"""The closed table of derived forms and its expansion.

Expansion rewrites every derived connective and named macro into the
primitive constructors (Not, Implies, Box, Actually, Forall, atoms).
Applied lambdas are left unreduced; beta_normalize handles those.
"""

from __future__ import annotations

from operator import is_not

from .formulas import (
    EXPANSION_BUDGET, INDIVIDUAL, REL1, SECOND_ORDER, SortError,
    And, Box, Const, Diamond, Encode, Exemplify, Exists, Forall, Formula,
    Iff, Implies, Lambda, MacroFormula, MacroTerm, Node, Not, Or,
    SOAtom, Term, Var, Xor, beta_normalize, children, free_names, rebuild,
    fresh_name, sort_of, tree_size,
)

P_CONST = Const("P", SECOND_ORDER)
E_CONST = Const("E!", REL1)


def prop_term_as_formula(t: Term) -> Formula:
    """A proposition-sorted term used as a formula (zero-ary exemplification)."""
    return Exemplify(t, ())


def _apply(rel: Term, *args: Term) -> Formula:
    return Exemplify(rel, tuple(args))


def _iv(name: str, avoid=()) -> Var:
    return Var(fresh_name(name, avoid), INDIVIDUAL)


def _rv(name: str, avoid=()) -> Var:
    return Var(fresh_name(name, avoid), REL1)


def _ent(y: Term, z: Term) -> Formula:
    x = _iv("x", free_names(y) | free_names(z))
    return Box(Forall(x, Implies(_apply(y, x), _apply(z, x))))


def _ess_g(y: Term, x: Term) -> Formula:
    avoid = free_names(y) | free_names(x)
    z = _rv("Z", avoid)
    return Forall(z, Implies(_apply(z, x), _ent(y, z)))


def _ess_s(y: Term, x: Term) -> Formula:
    return And(_apply(y, x), _ess_g(y, x))


def _ess_a(y: Term, x: Term) -> Formula:
    avoid = free_names(y) | free_names(x)
    z = _rv("Z", avoid)
    return Forall(z, Iff(Box(_apply(z, x)), _ent(y, z)))


def _ne(ess) -> Term:
    x = Var("x", INDIVIDUAL)
    y = _rv("Y")
    w = _iv("y")
    return Lambda((x,), Forall(y, Implies(ess(y, x), Box(Exists(w, _apply(y, w))))))


def _godlike() -> Term:
    x = Var("x", INDIVIDUAL)
    y = _rv("Y")
    return Lambda((x,), Forall(y, Implies(SOAtom(P_CONST, y), _apply(y, x))))


def _godlike_star() -> Term:
    x = Var("x", INDIVIDUAL)
    y = _rv("Y")
    return Lambda((x,), Forall(y, Iff(Box(_apply(y, x)), SOAtom(P_CONST, y))))


def _expand_macro_term(t: MacroTerm) -> Term:
    n = t.name
    if n == "O!":
        x = Var("x", INDIVIDUAL)
        return Lambda((x,), Diamond(_apply(E_CONST, x)))
    if n == "A!":
        x = Var("x", INDIVIDUAL)
        return Lambda((x,), Not(Diamond(_apply(E_CONST, x))))
    if n == "neg":
        (y,) = t.args
        x = _iv("x", free_names(y))
        return Lambda((x,), Not(_apply(y, x)))
    if n == "G":
        return _godlike()
    if n == "G*":
        return _godlike_star()
    if n == "NE_g":
        return _ne(_ess_g)
    if n == "NE_s":
        return _ne(_ess_s)
    if n == "NE_a":
        return _ne(_ess_a)
    raise SortError(f"unknown term macro {n!r}")


def _expand_dn(t: Term) -> Formula:
    s = sort_of(t)
    if s == INDIVIDUAL:
        f = _rv("F", free_names(t))
        return Exists(f, _apply(f, t))
    if s.kind == "rel" and s.arity == 1:
        x = _iv("x", free_names(t))
        return Exists(x, Encode(x, t))
    if s.kind == "rel" and s.arity == 0:
        x = _iv("x", free_names(t))
        return _expand_dn(Lambda((x,), prop_term_as_formula(t)))
    raise SortError(f"term existence undefined at sort {s}")


def _expand_id(a: Term, b: Term) -> Formula:
    s = sort_of(a)
    avoid = free_names(a) | free_names(b)
    if s == INDIVIDUAL:
        f = _rv("F", avoid)
        ordinary = And(
            And(_apply(MacroTerm("O!"), a), _apply(MacroTerm("O!"), b)),
            Box(Forall(f, Iff(_apply(f, a), _apply(f, b)))),
        )
        abstract = And(
            And(_apply(MacroTerm("A!"), a), _apply(MacroTerm("A!"), b)),
            Box(Forall(f, Iff(Encode(a, f), Encode(b, f)))),
        )
        return Or(ordinary, abstract)
    if s.kind == "rel" and s.arity == 1:
        x = _iv("x", avoid)
        return And(
            And(MacroFormula("dn", (a,)), MacroFormula("dn", (b,))),
            Box(Forall(x, Iff(Encode(x, a), Encode(x, b)))),
        )
    if s.kind == "rel" and s.arity == 0:
        x = _iv("x", avoid)
        return _expand_id(
            Lambda((x,), prop_term_as_formula(a)),
            Lambda((x,), prop_term_as_formula(b)),
        )
    raise SortError(f"defined identity undefined at sort {s}")


def _expand_macro_formula(f: MacroFormula) -> Formula:
    n = f.name
    if n == "ent":
        return _ent(*f.args)
    if n == "ess_g":
        return _ess_g(*f.args)
    if n == "ess_s":
        return _ess_s(*f.args)
    if n == "ess_a":
        return _ess_a(*f.args)
    if n == "dn":
        return _expand_dn(f.args[0])
    if n == "id":
        return _expand_id(*f.args)
    raise SortError(f"unknown formula macro {n!r}")


def expand_derived(x: Node) -> Node:
    """Rewrite derived connectives and named macros into primitives.

    Terminating (the macro table is acyclic) and idempotent; applied
    lambdas are kept as written. A primitive node in which nothing
    changes is returned as it is, not rebuilt. What it returns is stored
    on x and flagged primitive (see formulas._FACTS), so expanding either
    again returns at once.
    """
    if isinstance(x, (Var, Const)):
        return x
    done = getattr(x, "_primitive", None)
    if done is not None:
        return x if done is True else done
    old = children(x)
    new = tuple(map(expand_derived, old))
    y = rebuild(x, new) if any(map(is_not, new, old)) else x
    if isinstance(y, Diamond):
        y = Not(Box(Not(y.body)))
    elif isinstance(y, Exists):
        y = Not(Forall(y.var, Not(y.body)))
    elif isinstance(y, And):
        y = Not(Implies(y.left, Not(y.right)))
    elif isinstance(y, Or):
        y = Implies(Not(y.left), y.right)
    elif isinstance(y, (Iff, Xor)):
        l, r = y.left, y.right
        iff = Not(Implies(Implies(l, r), Not(Implies(r, l))))
        y = iff if isinstance(y, Iff) else Not(iff)
    elif isinstance(y, MacroTerm):
        y = expand_derived(_expand_macro_term(y))
    elif isinstance(y, MacroFormula):
        y = expand_derived(_expand_macro_formula(y))
    object.__setattr__(y, "_primitive", True)
    if y is not x:
        object.__setattr__(x, "_primitive", y)
    return y


def primitive_form(x: Node, too_large) -> Node:
    """beta_normalize(expand_derived(x)), once the expansion is known to
    have at most EXPANSION_BUDGET nodes as a tree: expand_derived shares
    the two sides of each <-> or xor, but evaluating and compiling walk
    them apart. Past the budget it raises too_large(x, size). The size is
    checked on every call, a stored expansion included."""
    g = expand_derived(x)
    if tree_size(g) > EXPANSION_BUDGET:
        raise too_large(x, tree_size(g))
    return beta_normalize(g)
