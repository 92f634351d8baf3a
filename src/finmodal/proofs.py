"""Script builder and the shipped derivations.

The builder appends checker-validated steps, one method per rule, each
building an `abstraction.Step`. It exposes the standard derived moves of
a Hilbert system with deduction blocks (identity, double negation, ex
falso, reductio, conjunction handling), so longer derivations read as
recipes. Shipped here:

* the K-diamond lemma  [](p->q) -> (<>p -> <>q),
* the refutation of the unemended ontological premise set in logic K,
  driven by the lemma that an empty property is an essence of anything,
* the two-individuals derivation over the minimal object-theory model.
"""

from __future__ import annotations

from .abstraction import Layer, ProofScript, ProofState, Step, make_layer
from .formulas import (
    INDIVIDUAL, PROPOSITION, REL1,
    Actually, And, Box, Const, Diamond, Exemplify, Forall, Formula, Implies,
    Lambda, MacroFormula, MacroTerm, Not, PrimitiveEq, SOAtom, Term, Var,
    alpha_equivalent, beta_normalize,
)
from .macros import P_CONST, expand_derived


def normal(x):
    return beta_normalize(expand_derived(x))


def napp(rel: Term, *args: Term) -> Formula:
    return beta_normalize(Exemplify(rel, tuple(args)))


class ScriptBuilder:
    """Accumulates steps, checking each one as it is added."""

    def __init__(self, layer: Layer, premises=()):
        self.state = ProofState(layer, premises)
        self.steps: list = []

    def _push(self, rule: str, *args) -> int:
        step = Step(rule, args)
        idx = self.state.apply(step)
        self.steps.append(step)
        return idx

    def formula(self, idx: int) -> Formula:
        return self.state.formula(idx)

    def script(self) -> ProofScript:
        return ProofScript(tuple(self.steps))

    # elementary steps

    def ax(self, name: str, **subst) -> int:
        return self._push("ax", name, subst)

    def premise(self, k: int) -> int:
        return self._push("premise", k)

    def mp(self, i: int, j: int) -> int:
        return self._push("mp", i, j)

    def nec(self, i: int) -> int:
        return self._push("nec", i)

    def gen(self, i: int, var: Var) -> int:
        return self._push("gen", i, var)

    def expand(self, i: int) -> int:
        return self._push("expand", i)

    def hyp(self, f: Formula) -> int:
        return self._push("hyp", f)

    def qed(self, i: int) -> int:
        return self._push("qed", i)

    # derived moves (each returns the index of its conclusion)

    def thm_id(self, f: Formula) -> int:
        return self.qed(self.hyp(f))

    def imp_chain(self, i: int, j: int) -> int:
        """a->b, b->c  gives  a->c."""
        a = self.formula(i).left
        h = self.hyp(a)
        m = self.mp(h, i)
        m = self.mp(m, j)
        return self.qed(m)

    def dne(self, f: Formula) -> int:
        """~~f -> f."""
        f = beta_normalize(f)
        h = self.hyp(Not(Not(f)))
        x1 = self.ax("pl1", p=Not(Not(f)), q=Not(f))
        m1 = self.mp(h, x1)                      # ~f -> ~~f
        x2 = self.ax("pl3", q=f, p=Not(f))       # (~f->~~f)->((~f->~f)->f)
        m2 = self.mp(m1, x2)
        tid = self.thm_id(Not(f))
        m3 = self.mp(tid, m2)
        return self.qed(m3)

    def dni(self, f: Formula) -> int:
        """f -> ~~f."""
        f = beta_normalize(f)
        h = self.hyp(f)
        d = self.dne(Not(f))                     # ~~~f -> ~f
        x1 = self.ax("pl1", p=f, q=Not(Not(Not(f))))
        m1 = self.mp(h, x1)                      # ~~~f -> f
        x2 = self.ax("pl3", q=Not(Not(f)), p=f)
        m2 = self.mp(d, x2)
        m3 = self.mp(m1, m2)
        return self.qed(m3)

    def efq(self, a: Formula, b: Formula) -> int:
        """a -> (~a -> b)."""
        a, b = beta_normalize(a), beta_normalize(b)
        h1 = self.hyp(a)
        h2 = self.hyp(Not(a))
        x1 = self.ax("pl1", p=Not(a), q=Not(b))
        m1 = self.mp(h2, x1)                     # ~b -> ~a
        x2 = self.ax("pl1", p=a, q=Not(b))
        m2 = self.mp(h1, x2)                     # ~b -> a
        x3 = self.ax("pl3", q=b, p=a)            # (~b->~a)->((~b->a)->b)
        m3 = self.mp(m1, x3)
        m4 = self.mp(m2, m3)
        q1 = self.qed(m4)
        return self.qed(q1)

    def contradiction_to(self, target: Formula, i_pos: int, i_neg: int) -> int:
        """From lines chi and ~chi, conclude target."""
        e = self.efq(self.formula(i_pos), target)
        m = self.mp(i_pos, e)
        return self.mp(i_neg, m)

    def reductio(self, f: Formula, derive) -> int:
        """Assume f; derive(builder, hyp_idx) must return lines (chi, ~chi);
        concludes ~f outside the block."""
        f = beta_normalize(f)
        h = self.hyp(f)
        i_pos, i_neg = derive(self, h)
        neg, pos = self.formula(i_neg), self.formula(i_pos)
        if not (isinstance(neg, Not) and alpha_equivalent(neg.body, pos)):
            raise ValueError("reductio: the two lines are not contradictory")
        c = self.contradiction_to(Not(f), i_pos, i_neg)
        q = self.qed(c)                          # f -> ~f
        d = self.dne(f)                          # ~~f -> f
        s = self.imp_chain(d, q)                 # ~~f -> ~f
        a3 = self.ax("pl3", q=Not(f), p=f)
        m1 = self.mp(s, a3)
        return self.mp(d, m1)

    def contrapose_thm(self, a: Formula, b: Formula) -> int:
        """(a->b) -> (~b->~a)."""
        a, b = beta_normalize(a), beta_normalize(b)
        h1 = self.hyp(Implies(a, b))
        h2 = self.hyp(Not(b))
        na = self.reductio(a, lambda bb, h: (bb.mp(h, h1), h2))
        q = self.qed(na)
        return self.qed(q)

    def and_intro(self, i: int, j: int) -> int:
        """a, b  gives  ~(a -> ~b)."""
        a, b = self.formula(i), self.formula(j)

        def derive(bb, h):
            m = bb.mp(i, h)                      # ~b from hypothesis a -> ~b
            return j, m

        return self.reductio(Implies(a, Not(b)), derive)

    def and_elim_l(self, i: int) -> int:
        """~(a -> ~b)  gives  a."""
        impl = self.formula(i).body               # a -> ~b
        a, nb = impl.left, impl.right

        def derive(bb, h):
            e = bb.efq(a, nb)                     # a -> (~a -> ~b)
            h2 = bb.hyp(a)
            m1 = bb.mp(h2, e)
            m2 = bb.mp(h, m1)                     # ~b
            got = bb.qed(m2)                      # a -> ~b
            return got, i

        na = self.reductio(Not(a), derive)        # ~~a
        return self.mp(na, self.dne(a))


# ---------------------------------------------------------------------------
# The K-diamond lemma

def derive_kdia(b: ScriptBuilder, p: Formula, q: Formula) -> int:
    """[](p->q) -> (<>p -> <>q), with the diamond unfolded to ~[]~."""
    p, q = beta_normalize(p), beta_normalize(q)
    h1 = b.hyp(Box(Implies(p, q)))
    h2 = b.hyp(Not(Box(Not(p))))

    def derive(bb, hb):
        ct = bb.contrapose_thm(p, q)             # (p->q)->(~q->~p)
        n1 = bb.nec(ct)
        k1 = bb.ax("ax_K", p=Implies(p, q), q=Implies(Not(q), Not(p)))
        m1 = bb.mp(n1, k1)
        m2 = bb.mp(h1, m1)                       # [](~q->~p)
        k2 = bb.ax("ax_K", p=Not(q), q=Not(p))
        m3 = bb.mp(m2, k2)                       # []~q -> []~p
        m4 = bb.mp(hb, m3)                       # []~p
        return m4, h2

    r = b.reductio(Box(Not(q)), derive)          # ~[]~q
    q1 = b.qed(r)
    return b.qed(q1)


def kdia_script() -> ProofScript:
    b = ScriptBuilder(make_layer("K"))
    p = Exemplify(Const("p", PROPOSITION), ())
    q = Exemplify(Const("q", PROPOSITION), ())
    derive_kdia(b, p, q)
    return b.script()


# ---------------------------------------------------------------------------
# Refutation of the unemended premise set in logic K

def goedel_refutation_script(premises) -> ProofScript:
    """The script of `goedel_refutation`."""
    return goedel_refutation(premises).script()


def goedel_refutation(premises) -> ScriptBuilder:
    """Derive ~(q -> q) from the five premises of the unemended variant;
    the builder's state holds the checked lines.

    Premise order: 1 exclusive polarity, 2 entailment closure, 3 the
    godlike property is positive, 4 positivity is necessary, 5 necessary
    existence is positive. Only 1, 2, and 5 are needed.
    """
    b = ScriptBuilder(make_layer("K"), premises)
    xv, yv = Var("x", INDIVIDUAL), Var("y", INDIVIDUAL)
    Yv, Zv = Var("Y", REL1), Var("Z", REL1)

    ne = normal(MacroTerm("NE_g"))
    empty = Lambda((yv,), Not(PrimitiveEq(yv, yv)))
    univ = Lambda((yv,), PrimitiveEq(yv, yv))

    def neg_term(t: Term) -> Term:
        return normal(MacroTerm("neg", (t,)))

    def P(t: Term) -> Formula:
        return SOAtom(P_CONST, beta_normalize(t))

    e1 = b.expand(b.premise(1))
    e2 = b.expand(b.premise(2))
    e5 = b.expand(b.premise(5))
    a1_body = b.formula(e1).body
    a2_body = b.formula(e2).body

    def t1(y_term: Term, py_line: int) -> int:
        """From P(Y), the property Y is possibly exemplified."""
        y_term = beta_normalize(y_term)
        yx = napp(y_term, xv)
        ny = neg_term(y_term)
        bx = Box(Not(Not(Forall(xv, Not(yx)))))   # [] ~ exists x Yx

        def derive(bb, hb):
            a1 = bb.ax("pl1", p=Not(yx), q=yx)
            g1 = bb.gen(a1, xv)
            d1 = bb.ax("dist", alpha=xv, phi=Not(yx), psi=Implies(yx, Not(yx)))
            m1 = bb.mp(g1, d1)
            dn = bb.dne(Forall(xv, Not(yx)))
            s1 = bb.imp_chain(dn, m1)             # ~~all x ~Yx -> all x (Yx->~Yx)
            n1 = bb.nec(s1)
            k1 = bb.ax("ax_K", p=Not(Not(Forall(xv, Not(yx)))),
                       q=Forall(xv, Implies(yx, Not(yx))))
            m2 = bb.mp(n1, k1)
            ent = bb.mp(hb, m2)                   # [] all x (Yx -> ~Yx)
            i1 = bb.ax("inst", alpha=Yv, phi=a2_body, tau=y_term)
            m4 = bb.mp(e2, i1)
            i2 = bb.ax("inst", alpha=Zv, phi=bb.formula(m4).body, tau=ny)
            m5 = bb.mp(m4, i2)                    # ~(PY -> ~ent(Y,~Y)) -> P~Y
            ai = bb.and_intro(py_line, ent)
            pn = bb.mp(ai, m5)                    # P(~Y)
            i3 = bb.ax("inst", alpha=Yv, phi=a1_body, tau=y_term)
            m7 = bb.mp(e1, i3)
            d2 = bb.dne(Implies(Implies(P(y_term), P(ny)),
                                Not(Implies(P(ny), P(y_term)))))
            m8 = bb.mp(m7, d2)                    # (PY->P~Y) -> ~(P~Y->PY)
            x1 = bb.ax("pl1", p=P(ny), q=P(y_term))
            fwd = bb.mp(pn, x1)                   # PY -> P~Y
            m10 = bb.mp(fwd, m8)                  # ~(P~Y -> PY)
            x2 = bb.ax("pl1", p=P(y_term), q=P(ny))
            bwd = bb.mp(py_line, x2)              # P~Y -> PY
            return bwd, m10

        return b.reductio(bx, derive)

    dia_ne = t1(ne, e5)                           # <> exists x (ne x)

    # the universal property is positive (entailment closure from premise 5)
    ne_x = napp(ne, xv)
    r1 = b.ax("eq_refl", tau=xv)
    a4 = b.ax("pl1", p=PrimitiveEq(xv, xv), q=ne_x)
    m1 = b.mp(r1, a4)                             # ne x -> x = x
    g1 = b.gen(m1, xv)
    n1 = b.nec(g1)                                # [] all x (ne x -> x = x)
    iu = b.ax("inst", alpha=Yv, phi=a2_body, tau=ne)
    mu = b.mp(e2, iu)
    iu2 = b.ax("inst", alpha=Zv, phi=b.formula(mu).body, tau=univ)
    mu2 = b.mp(mu, iu2)
    aiu = b.and_intro(e5, n1)
    pu = b.mp(aiu, mu2)                           # P(univ)
    dia_u = t1(univ, pu)                          # <> exists x (x = x)

    # the empty-essence lemma, with x free
    r2 = b.ax("eq_refl", tau=yv)
    ef = b.efq(PrimitiveEq(yv, yv), napp(Zv, yv))
    m2 = b.mp(r2, ef)                             # ~(y=y) -> Zy
    g2 = b.gen(m2, yv)
    n2 = b.nec(g2)                                # [] all y (~(y=y) -> Zy)
    a5 = b.ax("pl1", p=b.formula(n2), q=napp(Zv, xv))
    m3 = b.mp(n2, a5)
    ess_empty = b.gen(m3, Zv)                     # all Z (Zx -> [] all y (empty y -> Zy))

    # anything with necessary existence makes the empty property necessary
    ex_empty = Not(Forall(yv, Not(Not(PrimitiveEq(yv, yv)))))
    C = Box(ex_empty)                             # [] exists y (empty y)
    h = b.hyp(ne_x)
    ii = b.ax("inst", alpha=Var("Y", REL1), phi=ne_x.body, tau=empty)
    mm = b.mp(h, ii)                              # ess(empty, x) -> [] ex y empty y
    mm2 = b.mp(ess_empty, mm)
    dx = b.qed(mm2)                               # ne x -> C
    dgen = b.gen(dx, xv)

    # existential elimination: exists x (ne x) -> C
    ct = b.contrapose_thm(ne_x, C)
    gct = b.gen(ct, xv)
    dd = b.ax("dist", alpha=xv, phi=Implies(ne_x, C),
              psi=Implies(Not(C), Not(ne_x)))
    md = b.mp(gct, dd)
    mcontra = b.mp(dgen, md)                      # all x (~C -> ~ne x)
    vv = b.ax("vac", alpha=xv, phi=Not(C))
    dd2 = b.ax("dist", alpha=xv, phi=Not(C), psi=Not(ne_x))
    md2 = b.mp(mcontra, dd2)
    s2 = b.imp_chain(vv, md2)                     # ~C -> all x ~ne x
    ct2 = b.contrapose_thm(Not(C), Forall(xv, Not(ne_x)))
    m5 = b.mp(s2, ct2)
    dnc = b.dne(C)
    ee = b.imp_chain(m5, dnc)                     # exists x (ne x) -> C

    nee = b.nec(ee)
    kd = derive_kdia(b, Not(Forall(xv, Not(ne_x))), C)
    mk = b.mp(nee, kd)
    dia_box_e = b.mp(dia_ne, mk)                  # <> C

    # no world satisfies exists y (empty y)
    r3 = b.ax("eq_refl", tau=yv)
    dn3 = b.dni(PrimitiveEq(yv, yv))
    m6 = b.mp(r3, dn3)                            # ~~(y=y)
    g3 = b.gen(m6, yv)                            # all y ~ empty y
    dn4 = b.dni(b.formula(g3))
    noe = b.mp(g3, dn4)                           # ~ exists y (empty y)

    # so necessarily-empty worlds refute the possible exemplification of
    # the universal property
    ex_u = Not(Forall(xv, Not(PrimitiveEq(xv, xv))))
    he = b.hyp(ex_empty)
    cc = b.contradiction_to(Not(ex_u), he, noe)
    ff = b.qed(cc)                                # exists y empty y -> ~ exists x (x=x)
    nf = b.nec(ff)
    k3 = b.ax("ax_K", p=ex_empty, q=Not(ex_u))
    gthm = b.mp(nf, k3)                           # C -> [] ~ exists x (x=x)

    kd2 = derive_kdia(b, C, Box(Not(ex_u)))
    n4 = b.nec(gthm)
    mk2 = b.mp(n4, kd2)
    dia_no_u = b.mp(dia_box_e, mk2)               # <> [] ~ exists x (x=x)

    box_dia_u = b.nec(dia_u)                      # [] <> exists x (x=x)
    q_atom = Exemplify(Const("q", PROPOSITION), ())
    b.contradiction_to(Not(Implies(q_atom, q_atom)), box_dia_u, dia_no_u)
    return b


# ---------------------------------------------------------------------------
# The two-individuals derivation (minimal object-theory model)

def two_individuals_premises() -> tuple:
    k1 = Const("k1", INDIVIDUAL)
    k2 = Const("k2", INDIVIDUAL)
    e = Const("E!", REL1)
    e1 = Exemplify(e, (k1,))
    e2 = Exemplify(e, (k2,))
    return (And(Diamond(e1), Not(Actually(e1))), Not(Diamond(e2)))


def two_individuals_script() -> ProofScript:
    """From <>E!k1 & ~@E!k1 and ~<>E!k2, derive ~(k1 = k2)."""
    k1 = Const("k1", INDIVIDUAL)
    k2 = Const("k2", INDIVIDUAL)
    e = Const("E!", REL1)
    dia1 = Not(Box(Not(Exemplify(e, (k1,)))))
    dia2 = Not(Box(Not(Exemplify(e, (k2,)))))

    b = ScriptBuilder(make_layer("AOT"), two_individuals_premises())
    p1 = b.expand(b.premise(1))
    a = b.and_elim_l(p1)                          # <>E!k1
    p2 = b.expand(b.premise(2))                   # ~<>E!k2

    def derive(bb, h):
        s = bb.ax("eq_sub", alpha=k1, beta=k2, phi=dia1, psi=dia2)
        m = bb.mp(h, s)
        m2 = bb.mp(a, m)                          # <>E!k2
        return m2, p2

    b.reductio(MacroFormula("id", (k1, k2)), derive)
    return b.script()
