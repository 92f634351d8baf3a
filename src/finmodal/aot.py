"""Aczel-model semantics for second-order abstract-object theory.

A model carries ordinary and special urelements, finite worlds with total
accessibility, the full space of urelement relations, and a proxy map from
abstract objects (sets of relations, packed as bitmasks over the relation
space) to special urelements. Exemplification routes every individual
through its urelement; encoding tests membership in an abstract object's
set and is world-independent. Terms may fail to denote: atoms touching a
non-denoting term are false.

Every binder of an individual, be it a quantifier, a unary lambda or a
description, runs on one quotient: the ordinary individuals, built once
per call, and the abstract representatives `_abstract_reps` gives it, one
per (proxy class, membership pattern). A variable whose encoding atoms
all use relation terms closed at the binder ranges over membership
patterns; a variable free of encoding atoms ranges over urelement
representatives; anything else needs one full sweep over all encoded sets,
evaluated column-wise on packed integers. Nested full sweeps exceed the
budget and raise, never truncate.

`_ev` (truth at a world) and `_vec` (a sweep's column) find each node's
handler by its type in a table, `_EV` and `_VEC`. An atom reads a variable
or constant straight from the assignment or the model; lambdas and
descriptions are denoted. A formula is rigid when its truth cannot differ
between worlds, a fact stored on the node; a Box evaluates a rigid body
once, at world 0, where the loop over worlds would start. A Box's truth
is kept per call; its column in a sweep is not, since keeping it was
measured to save no time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .abstraction import Accepted, check_proof, make_layer
from .formulas import (
    EXPANSION_BUDGET, INDIVIDUAL, PROPOSITION, REL1,
    Actually, And, Box, Const, Description, Encode, Exemplify, Forall,
    Formula, Implies, Lambda, MacroFormula, Not, PrimitiveEq, Term, Var,
    binder_vars, children, free_names, subnodes,
)
from .kripke import lowest_bit
from .macros import primitive_form
from .parser import parse_term
from .printer import print_formula, print_term
from .proofs import two_individuals_premises, two_individuals_script
from .signature import LogicTag, Mode, Signature


class AotEvalError(Exception):
    pass


class AotBudgetError(AotEvalError):
    """A quantifier or term needs more than the declared search budget."""


@dataclass(frozen=True)
class Ordinary:
    u: int


@dataclass(frozen=True)
class Abstract:
    encoded: int  # bitmask over relation-space values


@dataclass(frozen=True)
class Denotes:
    value: object


@dataclass(frozen=True)
class NonDenoting:
    pass


NON_DENOTING = NonDenoting()

MAX_URELEMENT_BITS = 4  # |U| * |W| cap keeps the relation space at <= 16
FULL_SCAN_BUDGET = 1    # full sweeps over abstract objects that may nest
PATTERN_BUDGET = 2      # individual quantifiers that may nest on a quotient


@dataclass(frozen=True)
class AczelConfig:
    n_ordinary: int = 1
    n_special: int = 1
    n_worlds: int = 2
    actual: int = 0
    sigma: tuple = ("constant",)   # or ("membership", relation-value)
    e_bang: int | None = None      # relation value for concreteness
    consts: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class AczelModel:
    n_ordinary: int
    n_special: int
    n_worlds: int
    actual: int
    relspace1: tuple   # all functions U x W -> bool, packed; index == value
    propspace: tuple   # all functions W -> bool
    sigma: tuple
    denot: dict        # name -> Individual | relation value | world mask
    sig: Signature

    @property
    def n_urelements(self) -> int:
        return self.n_ordinary + self.n_special

    def rel_bit(self, value: int, u: int, w: int) -> bool:
        return bool((value >> (u * self.n_worlds + w)) & 1)

    def sigma_of(self, encoded: int) -> int:
        """Special-urelement index serving as an abstract object's proxy."""
        if self.sigma[0] == "constant":
            return 0
        if self.sigma[0] == "membership":
            return (1 if (encoded >> self.sigma[1]) & 1 else 0) % self.n_special
        raise AotEvalError(f"unknown sigma rule {self.sigma!r}")

    def urelement_of(self, ind) -> int:
        if isinstance(ind, Ordinary):
            return ind.u
        return self.n_ordinary + self.sigma_of(ind.encoded)


def build_aczel(config: AczelConfig) -> AczelModel:
    if min(config.n_ordinary, config.n_special, config.n_worlds) < 1:
        raise AotEvalError("urelements and worlds must be non-empty")
    n_u = config.n_ordinary + config.n_special
    if n_u * config.n_worlds > MAX_URELEMENT_BITS:
        raise AotEvalError(
            f"|U|*|W| = {n_u * config.n_worlds} exceeds the cap "
            f"{MAX_URELEMENT_BITS}")
    relspace1 = tuple(range(1 << (n_u * config.n_worlds)))
    propspace = tuple(range(1 << config.n_worlds))

    def in_range(value, bound: int, what: str):
        if not 0 <= value < bound:
            raise AotEvalError(f"{what} {value} is not in 0..{bound - 1}")
        return value

    in_range(config.actual, config.n_worlds, "actual world")
    if config.sigma[0] == "membership":
        in_range(config.sigma[1], len(relspace1), "sigma membership value")
    e_bang = config.e_bang
    if e_bang is None:
        # concreteness holds of the first ordinary urelement at the first
        # non-actual world only, so nothing is concrete at the actual world
        e_bang = 0
        if config.n_worlds > 1:
            w1 = 1 if config.actual != 1 else 0
            e_bang = 1 << (0 * config.n_worlds + w1)
    in_range(e_bang, len(relspace1), "concreteness value")
    for s in range(config.n_special):
        u = config.n_ordinary + s
        for w in range(config.n_worlds):
            if (e_bang >> (u * config.n_worlds + w)) & 1:
                raise AotEvalError("concreteness must fail of special urelements")
    denot = {"E!": e_bang}
    consts = {"E!": REL1}
    for name, spec in config.consts.items():
        kind = spec[0]
        if kind == "ordinary":
            denot[name] = Ordinary(in_range(spec[1], config.n_ordinary,
                                            f"{name}: ordinary urelement"))
            consts[name] = INDIVIDUAL
        elif kind == "abstract":
            mask = 0
            for v in spec[1]:
                mask |= 1 << in_range(v, len(relspace1),
                                      f"{name}: relation value")
            denot[name] = Abstract(mask)
            consts[name] = INDIVIDUAL
        elif kind == "prop":
            denot[name] = in_range(spec[1], len(propspace),
                                   f"{name}: proposition value")
            consts[name] = PROPOSITION
        elif kind == "rel":
            denot[name] = in_range(spec[1], len(relspace1),
                                   f"{name}: relation value")
            consts[name] = REL1
        else:
            raise AotEvalError(f"unknown constant spec {spec!r}")
    sig = Signature(Mode.AOT, LogicTag.S5TOTAL, consts)
    return AczelModel(config.n_ordinary, config.n_special,
                      config.n_worlds, config.actual, relspace1, propspace,
                      config.sigma, denot, sig)


def minimal_model(sigma: tuple = ("constant",)) -> AczelModel:
    """One ordinary and one special urelement over two worlds; k1 names the
    ordinary object and k2 the abstract object encoding nothing."""
    consts = {"k1": ("ordinary", 0), "k2": ("abstract", ())}
    return build_aczel(AczelConfig(consts=consts, sigma=sigma))


# ---------------------------------------------------------------------------
# Column machinery for full sweeps over encoded sets

_MEMBERSHIP_CACHE: dict = {}


def _membership_masks(n_values: int) -> list:
    """masks[v]: one bit per encoded set S, set iff v is a member of S."""
    if n_values in _MEMBERSHIP_CACHE:
        return _MEMBERSHIP_CACHE[n_values]
    n_cols = 1 << n_values
    masks = []
    for v in range(n_values):
        block = ((1 << (1 << v)) - 1) << (1 << v)   # 2^v zeros, then ones
        width = 1 << (v + 1)
        while width < n_cols:
            block |= block << width
            width <<= 1
        masks.append(block)
    _MEMBERSHIP_CACHE[n_values] = masks
    return masks


class _EvalContext:
    """The state of one top-level call (`denote`, `eval_aot`).

    Besides the sweep counters and the closed terms' denotations, it
    holds the ordinary individuals, built once, the truth of each Box per
    budget depth and values of its free names (the same at every world,
    accessibility being total), and the abstract representatives every
    binder ranges over per tuple of pattern values (see `_abstract_reps`).
    The Box table and the closed terms' are keyed by node, the
    representatives by values alone; all are dropped when the call
    returns. What depends only on a node's structure is stored on the node
    (see `formulas._FACTS`)."""

    def __init__(self, m: AczelModel):
        self.m = m
        self.full_scans = 0
        self.pattern_depth = 0
        self.n_cols = 1 << len(m.relspace1)
        self.full = (1 << self.n_cols) - 1
        self.membership = _membership_masks(len(m.relspace1))
        self.sigma_class_masks = self._sigma_classes()
        self.ordinary = [Ordinary(u) for u in range(m.n_ordinary)]
        self.closed_cache: dict = {}   # closed term -> denotation
        self.reps: dict = {}           # pattern values -> representatives
        # (box, pattern_depth, full_scans, free-name values) -> truth
        self.boxes: dict = {}

    def _sigma_classes(self) -> dict:
        m = self.m
        if m.sigma[0] == "constant" or m.n_special == 1:
            return {0: self.full}
        mem = self.membership[m.sigma[1]]
        return {0: self.full ^ mem, 1: mem}


def _encode_usage(binder):
    """(needs_full_sweep, closed_relation_terms, prefetch) for the variable
    of binder (an individual quantifier, a unary lambda or a description)
    over its body, stored on binder.

    A relation term is closed when it mentions no variable bound between
    the binder and the encoding atom. prefetch lists the closed lambdas
    and descriptions of the body, in the order a walk meets them, which a
    full sweep denotes before it starts; it is empty when no full sweep is
    needed."""
    usage = getattr(binder, "_binder", None)
    if usage is not None:
        return usage
    x, f = binder_vars(binder)[0].name, binder.body
    closed: list = []
    state = {"full": False}

    def walk(g, bound: frozenset):
        if isinstance(g, Var):
            return
        bvs = frozenset(v.name for v in binder_vars(g))
        if x in bvs or x not in free_names(g):
            return
        if isinstance(g, Encode):
            if x in free_names(g.obj):
                if not (isinstance(g.obj, Var) and g.obj.name == x):
                    state["full"] = True
                if x in free_names(g.rel) or (free_names(g.rel) & bound):
                    state["full"] = True
                else:
                    closed.append(g.rel)
            elif x in free_names(g.rel):
                state["full"] = True
            return
        if isinstance(g, (Lambda, Description)):
            state["full"] = True
            return
        inner = bound | bvs
        for c in children(g):
            if isinstance(c, Formula):
                walk(c, inner)
            elif isinstance(c, Term) and x in free_names(c):
                if not (isinstance(c, Var) and c.name == x):
                    state["full"] = True

    walk(f, frozenset())
    prefetch = ()
    if state["full"]:
        prefetch = tuple({id(n): n for n in subnodes(f)
                          if isinstance(n, (Lambda, Description))
                          and not free_names(n)}.values())
    usage = (state["full"], tuple(closed), prefetch)
    object.__setattr__(binder, "_binder", usage)
    return usage


def _budget_error(what: str, node) -> AotBudgetError:
    """A budget error naming the subformula or term that tripped it."""
    shown = print_term(node) if isinstance(node, Term) else print_formula(node)
    return AotBudgetError(f"{what}: {shown}")


def _abstract_reps(binder, m: AczelModel, a: dict, ctx: "_EvalContext"):
    """The abstract objects the variable of binder (an individual
    quantifier, a unary lambda or a description) ranges over besides the
    ordinary ones: one encoded set per (proxy class, membership pattern
    over the values of the body's closed encoding relations), class by
    class. None when the body needs a full sweep instead. The list is built
    once per call for each tuple of pattern values."""
    needs_full, closed, _ = _encode_usage(binder)
    if needs_full:
        return None
    values = []
    for t in closed:
        v = _value(t, m, a, ctx)
        if v is not NON_DENOTING:
            values.append(v)
    if m.sigma[0] == "membership":
        values.append(m.sigma[1])
    values = tuple(sorted(set(values)))
    if len(values) > 8:
        raise _budget_error("too many reachable relation values to quotient",
                            binder)
    reps = ctx.reps.get(values)
    if reps is None:
        reps = []
        for bits in range(1 << len(values)):
            enc = 0
            for i, v in enumerate(values):
                if (bits >> i) & 1:
                    enc |= 1 << v
            reps.append(Abstract(enc))
        reps.sort(key=m.urelement_of)   # stable: patterns in order per class
        ctx.reps[values] = reps
    return reps


def _rigid(f: Formula) -> bool:
    """Whether f's truth under an assignment is the same at every world,
    stored on f (see formulas._FACTS). Accessibility is total and encoding
    does not depend on the world, so Box, Actually and Encode are rigid,
    Exemplify is not, and Not, Implies and Forall are when their bodies
    are. A rigid formula also raises the same error at every world."""
    r = getattr(f, "_rigid", None)
    if r is None:
        kind = type(f)
        r = kind in (Box, Actually, Encode) or (
            kind in (Not, Implies, Forall) and all(map(_rigid, children(f))))
        object.__setattr__(f, "_rigid", r)
    return r


# ---------------------------------------------------------------------------
# Denotation

def _expansion_error(x, size: int) -> AotBudgetError:
    return _budget_error(f"expands to {size} nodes, past the budget of "
                         f"{EXPANSION_BUDGET}", x)


def denote(t: Term, m: AczelModel, a: dict | None = None):
    ctx = _EvalContext(m)
    return denote_in(primitive_form(t, _expansion_error), m, dict(a or {}),
                     ctx)


def _value(t: Term, m: AczelModel, a: dict, ctx: "_EvalContext"):
    """What t denotes, unwrapped, or NON_DENOTING. A variable or constant
    is read from a or m.denot; anything else goes through denote_in."""
    kind = type(t)
    if kind is Var:
        try:
            return a[t.name]
        except KeyError:
            raise AotEvalError(f"unhoused free variable {t.name!r}")
    if kind is Const:
        try:
            return m.denot[t.name]
        except KeyError:
            raise AotEvalError(f"uninterpreted constant {t.name!r}")
    d = denote_in(t, m, a, ctx)
    return d.value if isinstance(d, Denotes) else NON_DENOTING


def denote_in(t: Term, m: AczelModel, a: dict, ctx: _EvalContext):
    if type(t) in (Var, Const):
        return Denotes(_value(t, m, a, ctx))
    if isinstance(t, (Lambda, Description)):
        closed = not free_names(t)
        if closed:
            hit = ctx.closed_cache.get(t)
            if hit is not None:
                return hit
        if isinstance(t, Lambda):
            if len(t.params) == 0:
                mask = 0
                for w in range(m.n_worlds):
                    if _ev(t.body, m, a, w, ctx):
                        mask |= 1 << w
                d = Denotes(mask)
            elif len(t.params) == 1:
                d = _denote_lambda1(t, m, a, ctx)
            else:
                raise AotEvalError("lambda terms of arity >= 2 are not interpreted")
        else:
            d = _denote_description(t, m, a, ctx)
        if closed:
            ctx.closed_cache[t] = d
        return d
    raise AotEvalError(f"cannot interpret {t!r}")


def _denote_lambda1(t: Lambda, m: AczelModel, a: dict, ctx: _EvalContext):
    """The urelement function for a unary lambda, or non-denoting when its
    matrix separates objects sharing a proxy."""
    x, body = t.params[0].name, t.body
    value = 0
    a2 = dict(a)
    for u, ind in enumerate(ctx.ordinary):
        a2[x] = ind
        for w in range(m.n_worlds):
            if _ev(body, m, a2, w, ctx):
                value |= 1 << (u * m.n_worlds + w)

    reps = _abstract_reps(t, m, a, ctx)
    if reps is not None:
        # truth depends on the proxy class and the membership pattern only;
        # the matrix factors iff representatives sharing a urelement agree
        rows = {}
        for rep in reps:
            a2[x] = rep
            u = m.urelement_of(rep)
            row = 0
            for w in range(m.n_worlds):
                if _ev(body, m, a2, w, ctx):
                    row |= 1 << (u * m.n_worlds + w)
            if rows.setdefault(u, row) != row:
                return NON_DENOTING
            value |= row
        return Denotes(value)

    cols = _scan_columns(t, m, a, ctx)
    for s, cmask in ctx.sigma_class_masks.items():
        rep_col = lowest_bit(cmask)
        for w in range(m.n_worlds):
            got = cols[w] & cmask
            if got != 0 and got != cmask:
                return NON_DENOTING
            if (cols[w] >> rep_col) & 1:
                value |= 1 << ((m.n_ordinary + s) * m.n_worlds + w)
    return Denotes(value)


def _denote_description(t: Description, m: AczelModel, a: dict,
                        ctx: _EvalContext):
    """The unique satisfier at the actual world, else non-denoting."""
    x, body = t.var.name, t.body
    w0 = m.actual
    a2 = dict(a)
    hits = []
    for ind in ctx.ordinary:
        a2[x] = ind
        if _ev(body, m, a2, w0, ctx):
            hits.append(ind)
            if len(hits) > 1:
                return NON_DENOTING

    reps = _abstract_reps(t, m, a, ctx)
    if reps is not None:
        # a pattern class holds many abstract objects unless every relation
        # value is reachable, so an abstract satisfier then spoils uniqueness
        singleton_classes = len(reps) == ctx.n_cols
        for rep in reps:
            a2[x] = rep
            if _ev(body, m, a2, w0, ctx):
                if not singleton_classes:
                    return NON_DENOTING
                hits.append(rep)
                if len(hits) > 1:
                    return NON_DENOTING
        return Denotes(hits[0]) if len(hits) == 1 else NON_DENOTING

    col = _scan_columns(t, m, a, ctx, worlds=(w0,))[w0]
    count = col.bit_count()
    if count + len(hits) != 1:
        return NON_DENOTING
    if hits:
        return Denotes(hits[0])
    return Denotes(Abstract(lowest_bit(col)))


def _scan_columns(binder, m: AczelModel, a: dict, ctx: _EvalContext,
                  worlds=None) -> dict:
    """The truth of the body of binder (a quantifier, a unary lambda or a
    description) with its variable bound to every abstract object, one bit
    per encoded set, per world. The closed complex subterms of the body are
    denoted (and cached) first, so their own sweeps run one after another,
    not nested."""
    if ctx.full_scans >= FULL_SCAN_BUDGET:
        raise _budget_error("nested full sweeps over abstract objects", binder)
    x, body = binder_vars(binder)[0].name, binder.body
    for t in _encode_usage(binder)[2]:
        denote_in(t, m, a, ctx)
    ctx.full_scans += 1
    try:
        out = {}
        for w in (worlds if worlds is not None else range(m.n_worlds)):
            out[w] = _vec(body, x, m, dict(a), w, ctx)
        return out
    finally:
        ctx.full_scans -= 1


def _higher_domain(var: Var, m: AczelModel):
    """The values a relation or proposition variable ranges over."""
    if var.sort == REL1:
        return m.relspace1
    if var.sort.kind == "rel" and var.sort.arity == 0:
        return m.propspace
    raise AotEvalError(f"no quantification domain at sort {var.sort}")


def _vec(f: Formula, x: str, m: AczelModel, a: dict, w: int,
         ctx: _EvalContext) -> int:
    if x not in free_names(f):
        return ctx.full if _ev(f, m, a, w, ctx) else 0
    handler = _VEC.get(type(f))
    if handler is None:
        raise _budget_error(f"column sweep cannot handle {type(f).__name__}",
                            f)
    return handler(f, x, m, a, w, ctx)


def _vec_encode(f: Encode, x, m, a, w, ctx) -> int:
    if isinstance(f.obj, Var) and f.obj.name == x \
            and x not in free_names(f.rel):
        rel = _value(f.rel, m, a, ctx)
        return 0 if rel is NON_DENOTING else ctx.membership[rel]
    raise _budget_error("encoding atom too complex for the column sweep", f)


def _vec_exemplify(f: Exemplify, x, m, a, w, ctx) -> int:
    if x in free_names(f.rel):
        raise _budget_error("quantified variable inside a relation term", f)
    head = _value(f.rel, m, a, ctx)
    if head is NON_DENOTING:
        return 0
    if len(f.args) != 1:
        raise _budget_error("column sweep over n-ary exemplification", f)
    arg = f.args[0]
    if not (isinstance(arg, Var) and arg.name == x):
        raise _budget_error("quantified variable buried in a term", f)
    out = 0
    for s, cmask in ctx.sigma_class_masks.items():
        if m.rel_bit(head, m.n_ordinary + s, w):
            out |= cmask
    return out


def _vec_not(f: Not, x, m, a, w, ctx) -> int:
    return ctx.full ^ _vec(f.body, x, m, a, w, ctx)


def _vec_implies(f: Implies, x, m, a, w, ctx) -> int:
    return (ctx.full ^ _vec(f.left, x, m, a, w, ctx)) \
        | _vec(f.right, x, m, a, w, ctx)


def _vec_box(f: Box, x, m, a, w, ctx) -> int:
    # accessibility is total, so the column is the same at every world
    body = f.body
    if _rigid(body):
        return _vec(body, x, m, a, 0, ctx)
    out = ctx.full
    for v in range(m.n_worlds):
        out &= _vec(body, x, m, a, v, ctx)
    return out


def _vec_actually(f: Actually, x, m, a, w, ctx) -> int:
    return _vec(f.body, x, m, a, m.actual, ctx)


def _vec_forall(f: Forall, x, m, a, w, ctx) -> int:
    # an individual quantifier charges PATTERN_BUDGET as in _ev_forall
    var = f.var
    depth = ctx.pattern_depth
    if var.sort == INDIVIDUAL:
        reps = _abstract_reps(f, m, a, ctx)
        if reps is None:
            raise _budget_error("nested full sweeps over abstract objects", f)
        if depth >= PATTERN_BUDGET:
            raise _budget_error("individual quantifiers nested too deeply", f)
        ctx.pattern_depth = depth + 1
        domain = chain(ctx.ordinary, reps)
    else:
        domain = _higher_domain(var, m)
    try:
        out = ctx.full
        for val in domain:
            a2 = dict(a)
            a2[var.name] = val
            out &= _vec(f.body, x, m, a2, w, ctx)
        return out
    finally:
        ctx.pattern_depth = depth


_VEC = {Encode: _vec_encode, Exemplify: _vec_exemplify, Not: _vec_not,
        Implies: _vec_implies, Box: _vec_box, Actually: _vec_actually,
        Forall: _vec_forall}


# ---------------------------------------------------------------------------
# Evaluation

def eval_aot(f: Formula, m: AczelModel, a: dict | None = None,
             w: int | None = None) -> bool:
    """Truth at a world (the actual world by default). Derived forms are
    expanded and safe redexes reduced before evaluation; an expansion past
    EXPANSION_BUDGET nodes raises AotBudgetError first."""
    ctx = _EvalContext(m)
    g = primitive_form(f, _expansion_error)
    return _ev(g, m, dict(a or {}), m.actual if w is None else w, ctx)


def _ev(f: Formula, m: AczelModel, a: dict, w: int, ctx: _EvalContext) -> bool:
    handler = _EV.get(type(f))
    if handler is None:
        raise AotEvalError(f"cannot evaluate {f!r}")
    return handler(f, m, a, w, ctx)


def _ev_exemplify(f: Exemplify, m, a, w, ctx) -> bool:
    head = _value(f.rel, m, a, ctx)
    if head is NON_DENOTING:
        return False
    if not f.args:
        return bool((head >> w) & 1)
    args = []
    for arg in f.args:
        d = _value(arg, m, a, ctx)
        if d is NON_DENOTING:
            return False
        args.append(d)
    if len(args) == 1:
        return m.rel_bit(head, m.urelement_of(args[0]), w)
    raise AotEvalError("n-ary exemplification is not interpreted")


def _ev_encode(f: Encode, m, a, w, ctx) -> bool:
    obj = _value(f.obj, m, a, ctx)
    rel = _value(f.rel, m, a, ctx)
    if obj is NON_DENOTING or rel is NON_DENOTING \
            or not isinstance(obj, Abstract):
        return False
    return bool((obj.encoded >> rel) & 1)


def _ev_primitive_eq(f: PrimitiveEq, m, a, w, ctx) -> bool:
    raise AotEvalError("primitive equality has no place in these models")


def _ev_not(f: Not, m, a, w, ctx) -> bool:
    return not _ev(f.body, m, a, w, ctx)


def _ev_implies(f: Implies, m, a, w, ctx) -> bool:
    return (not _ev(f.left, m, a, w, ctx)) or _ev(f.right, m, a, w, ctx)


def _ev_box(f: Box, m, a, w, ctx) -> bool:
    # accessibility is total, so the truth is the same at every world
    key = (f, ctx.pattern_depth, ctx.full_scans,
           tuple(a.get(n) for n in free_names(f)))
    hit = ctx.boxes.get(key)
    if hit is None:
        body = f.body
        if _rigid(body):
            hit = _ev(body, m, a, 0, ctx)
        else:
            hit = all(_ev(body, m, a, v, ctx) for v in range(m.n_worlds))
        ctx.boxes[key] = hit
    return hit


def _ev_actually(f: Actually, m, a, w, ctx) -> bool:
    return _ev(f.body, m, a, m.actual, ctx)


def _ev_forall(f: Forall, m, a, w, ctx) -> bool:
    var = f.var
    depth = ctx.pattern_depth
    if var.sort == INDIVIDUAL:
        reps = _abstract_reps(f, m, a, ctx)
        domain = ctx.ordinary
        if reps is not None:
            if depth >= PATTERN_BUDGET:
                raise _budget_error("individual quantifiers nested too deeply",
                                    f)
            ctx.pattern_depth = depth + 1
            domain = chain(domain, reps)
    else:
        reps, domain = (), _higher_domain(var, m)
    try:
        for val in domain:
            a2 = dict(a)
            a2[var.name] = val
            if not _ev(f.body, m, a2, w, ctx):
                return False
    finally:
        ctx.pattern_depth = depth
    # without representatives, the abstract objects take one full sweep
    return reps is not None or \
        _scan_columns(f, m, a, ctx, worlds=(w,))[w] == ctx.full


_EV = {Exemplify: _ev_exemplify, Encode: _ev_encode,
       PrimitiveEq: _ev_primitive_eq, Not: _ev_not, Implies: _ev_implies,
       Box: _ev_box, Actually: _ev_actually, Forall: _ev_forall}


# ---------------------------------------------------------------------------
# Term existence and identity

def exists_term(t: Term, m: AczelModel, a: dict | None = None) -> bool:
    """The sort-cased existence condition; agrees with denotation."""
    return eval_aot(MacroFormula("dn", (t,)), m, a)


def identity_holds(t1: Term, t2: Term, m: AczelModel,
                   a: dict | None = None) -> bool:
    return eval_aot(MacroFormula("id", (t1, t2)), m, a)

# ---------------------------------------------------------------------------
# The minimal-model census

@dataclass
class MinimalModelReport:
    n_worlds: int
    n_propositions: int
    n_relations: int
    witnesses: list            # (name, value) in discovery order
    historical_distinct: bool
    pair_witnesses: dict       # (i, j) -> (urelement, world)
    transcript_verdict: object
    transcript_semantics: dict

    def to_text(self) -> str:
        out = [
            f"worlds: {self.n_worlds}",
            f"propositions: {self.n_propositions}",
            f"relations: {self.n_relations}",
            f"named witnesses: {len(self.witnesses)}",
        ]
        for name, value in self.witnesses:
            out.append(f"  {name} = {value:0{self.n_relations.bit_length() - 1}b}")
        out.append(f"pairwise distinguishing witnesses: {len(self.pair_witnesses)}")
        out.append("historical six pairwise distinct: "
                   + ("yes" if self.historical_distinct else "no"))
        if isinstance(self.transcript_verdict, Accepted):
            out.append("two-individuals derivation: accepted, conclusion "
                       + print_formula(self.transcript_verdict.conclusion))
        else:
            out.append(f"two-individuals derivation: {self.transcript_verdict}")
        for k in sorted(self.transcript_semantics):
            out.append(f"  {k}: {'yes' if self.transcript_semantics[k] else 'no'}")
        return "\n".join(out) + "\n"


def _witness_terms(m: AczelModel) -> list:
    """Named relation terms whose values populate the relation space:
    the historical six, the two contingency properties, and enough
    conjunctive combinations (with negations) to separate everything."""
    base_texts = [
        "E!",
        "[\\x ~E! x]",
        "O!",
        "A!",
        "[\\x E! x -> E! x]",
        "[\\x ~(E! x -> E! x)]",
        "[\\x exists y (E! y & ~ @ E! y)]",
        "[\\x ~ exists y (E! y & ~ @ E! y)]",
    ]
    pool = []
    values = {}
    for text in base_texts:
        t = parse_term(text, m.sig)
        d = denote(t, m)
        if isinstance(d, Denotes) and d.value not in values:
            values[d.value] = text
            pool.append((text, t, d.value))

    def apply_term(t, x):
        return Exemplify(t, (x,))

    target = len(m.relspace1)
    frontier = list(pool)
    while len(values) < target and frontier:
        new = []
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                if len(values) >= target:
                    break
                n1, t1, _ = pool[i]
                n2, t2, _ = pool[j]
                x = Var("x", INDIVIDUAL)
                conj = Lambda((x,), And(apply_term(t1, x), apply_term(t2, x)))
                negc = Lambda((x,), Not(And(apply_term(t1, x), apply_term(t2, x))))
                for t in (conj, negc):
                    d = denote(t, m)
                    if isinstance(d, Denotes) and d.value not in values:
                        name = print_term(t)
                        values[d.value] = name
                        new.append((name, t, d.value))
        pool.extend(new)
        frontier = new
    return [(name, value) for name, _, value in pool]


def minimal_model_report(m: AczelModel) -> MinimalModelReport:
    witnesses = _witness_terms(m)
    n = m.n_urelements * m.n_worlds
    pair_witnesses = {}
    for i in range(len(witnesses)):
        for j in range(i + 1, len(witnesses)):
            diff = witnesses[i][1] ^ witnesses[j][1]
            if diff:
                bit = lowest_bit(diff)
                pair_witnesses[(i, j)] = (bit // m.n_worlds, bit % m.n_worlds)
    historical = [v for _, v in witnesses[:6]]
    historical_distinct = len(set(historical)) == len(historical)

    verdict = check_proof(two_individuals_script(), make_layer("AOT"),
                          two_individuals_premises())
    semantics = {}
    if "k1" in m.denot and "k2" in m.denot:
        prem = two_individuals_premises()
        semantics["premises true at the actual world"] = all(
            eval_aot(p, m) for p in prem)
        k1 = m.denot["k1"]
        k2 = m.denot["k2"]
        semantics["conclusion true (the two are not identical)"] = \
            not identity_holds(parse_term("k1", m.sig), parse_term("k2", m.sig), m)
        semantics["distinct urelements"] = \
            m.urelement_of(k1) != m.urelement_of(k2)
    return MinimalModelReport(
        m.n_worlds, len(m.propspace), len(m.relspace1), witnesses,
        historical_distinct, pair_witnesses, verdict, semantics)


# ---------------------------------------------------------------------------
# Syntactic worlds and the fundamental theorem

@dataclass
class WorldTheoryReport:
    syntactic_worlds: list        # encoded sets (as tuples of prop values)
    semantic_worlds: int
    bijection: list               # (syntactic index, semantic world)
    bijective: bool
    fundamental_theorem_ok: bool
    encoding_propositions_constant: bool
    checked_propositions: int

    def to_text(self) -> str:
        out = [
            f"syntactic worlds: {len(self.syntactic_worlds)}",
            f"semantic worlds: {self.semantic_worlds}",
        ]
        for i, enc in enumerate(self.syntactic_worlds):
            props = ",".join(str(p) for p in enc)
            out.append(f"  w_syn{i} encodes propositions [{props}]")
        out.append("bijection with semantic worlds: "
                   + ("yes" if self.bijective else "no")
                   + " " + str(self.bijection))
        out.append(f"fundamental theorem over {self.checked_propositions} "
                   "propositions: "
                   + ("holds" if self.fundamental_theorem_ok else "FAILS"))
        out.append("encoding-generated propositions world-constant: "
                   + ("yes" if self.encoding_propositions_constant else "no"))
        return "\n".join(out) + "\n"


def _prop_property_value(m: AczelModel, p: int) -> int:
    """The relation value of the propositional property for p."""
    out = 0
    for u in range(m.n_urelements):
        out |= p << (u * m.n_worlds)
    return out


def world_theory_report(m: AczelModel) -> WorldTheoryReport:
    full_w = (1 << m.n_worlds) - 1
    prop_vals = {p: _prop_property_value(m, p) for p in m.propspace}
    props = sorted(m.propspace)

    candidates = []
    for bits in range(1 << len(props)):
        chosen = [props[i] for i in range(len(props)) if (bits >> i) & 1]
        maximal = all(((p in chosen) != ((full_w ^ p) in chosen))
                      for p in props)
        if not maximal:
            continue
        possible_worlds = [w for w in range(m.n_worlds)
                           if all((p >> w) & 1 for p in chosen)]
        if possible_worlds:
            candidates.append((tuple(sorted(chosen)), possible_worlds))

    bijection = []
    bijective = True
    seen = set()
    for i, (chosen, worlds) in enumerate(candidates):
        if len(worlds) != 1 or worlds[0] in seen:
            bijective = False
        else:
            seen.add(worlds[0])
            bijection.append((i, worlds[0]))
    if len(seen) != m.n_worlds:
        bijective = False

    # fundamental theorem: necessity is truth at every syntactic world,
    # where truth at a world is encoding the matching propositional property
    ok = True
    for p in props:
        necessary = p == full_w
        at_all_syntactic = all(p in chosen for chosen, _ in candidates)
        if necessary != at_all_syntactic:
            ok = False

    # encoding formulas denote world-constant propositions, so the theorem
    # covers the propositions they generate
    enc_ok = True
    xv, fv = Var("x", INDIVIDUAL), Var("F", REL1)
    enc_atom = Encode(xv, fv)
    samples = [Abstract(0), Abstract(1), Abstract((1 << len(m.relspace1)) - 1)]
    for a_obj in samples:
        for v in (0, 1, len(m.relspace1) - 1):
            bits = {eval_aot(enc_atom, m, {"x": a_obj, "F": v}, w)
                    for w in range(m.n_worlds)}
            if len(bits) != 1:
                enc_ok = False
    return WorldTheoryReport(
        [c for c, _ in candidates], m.n_worlds, bijection, bijective,
        ok, enc_ok, len(props))
