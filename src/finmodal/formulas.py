"""AST for a second-order quantified modal language with exemplification and encoding.

Terms and formulas are immutable; every variable and constant carries a sort.
Alpha-equivalence is defined by a de Bruijn canonical key and decided by
`alpha_equivalent`, which tries identity and structural equality first: on
shared nodes, such as the parser's, most pairs are one of those, and no key
is built. Substitution is capture-avoiding and shares what it leaves
unchanged: a subtree where no substituted variable is free comes back as it
is, with what it stores, only the paths down to the occurrences are rebuilt,
and only a binder the substitution enters is renamed. Beta reduction is
restricted to applications whose matrix is safe (in AOT mode a lambda with
encoding atoms on its bound variable may fail to denote, so such redexes
are left in place).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_not
from typing import Iterable, Union


class SortError(Exception):
    """A term or formula violates the sort discipline."""


# ---------------------------------------------------------------------------
# Sorts

@dataclass(frozen=True)
class Sort:
    kind: str  # 'ind' | 'rel' | 'so'
    arity: int = 0

    def __post_init__(self):
        if self.kind not in ("ind", "rel", "so"):
            raise SortError(f"unknown sort kind {self.kind!r}")
        if self.arity < 0:
            raise SortError("negative arity")

    def __str__(self):
        if self.kind == "ind":
            return "ind"
        if self.kind == "so":
            return "so"
        if self.arity == 0:
            return "prop"
        return f"rel {self.arity}"


INDIVIDUAL = Sort("ind")
SECOND_ORDER = Sort("so")


def Relation(n: int) -> Sort:
    return Sort("rel", n)


PROPOSITION = Relation(0)
REL1 = Relation(1)


# ---------------------------------------------------------------------------
# Terms

# What a node stores about itself the first time it is asked: its free
# variables and names, its canonical key at top level, its size as a tree,
# what beta_normalize and macros.expand_derived return for it, on a
# binder what aot works out about its body, on a formula whether aot finds
# its truth the same at every world, and its hash. A stored result
# is True when it is the node itself, else the node returned, which stores
# True: never a reference to itself, which would make every node a
# reference cycle. These depend only on the node's structure, and they are
# not dataclass fields, so __init__, __eq__ and repr never see them, nor
# do pickle and copy, which carry a slotted dataclass's fields alone.
_FACTS = ("_free_vars", "_free_names", "_key", "_size", "_normal",
          "_primitive", "_binder", "_rigid", "_hash")
_EMPTY = frozenset()


class Term:
    __slots__ = _FACTS


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str
    sort: Sort


@dataclass(frozen=True, slots=True)
class Const(Term):
    name: str
    sort: Sort


@dataclass(frozen=True, slots=True)
class Lambda(Term):
    params: tuple  # tuple[Var, ...], all individual-sorted, distinct
    body: "Formula"

    def __post_init__(self):
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise SortError("lambda binds a variable twice")
        for p in self.params:
            if p.sort != INDIVIDUAL:
                raise SortError("lambda binds a non-individual variable")


@dataclass(frozen=True, slots=True)
class Description(Term):
    var: Var
    body: "Formula"

    def __post_init__(self):
        if self.var.sort != INDIVIDUAL:
            raise SortError("description binds a non-individual variable")


@dataclass(frozen=True, slots=True)
class MacroTerm(Term):
    name: str
    args: tuple = ()


# Macros are a closed table; argument and result sorts live here so that
# sort checking does not depend on the expansion rules.
MACRO_TERM_SIGS = {
    # name: (arg sorts, result sort)
    "O!": ((), REL1),
    "A!": ((), REL1),
    "G": ((), REL1),
    "G*": ((), REL1),
    "NE_g": ((), REL1),
    "NE_s": ((), REL1),
    "NE_a": ((), REL1),
    "neg": ((REL1,), REL1),
}

MACRO_FORMULA_SIGS = {
    "ent": (REL1, REL1),
    "ess_g": (REL1, INDIVIDUAL),
    "ess_s": (REL1, INDIVIDUAL),
    "ess_a": (REL1, INDIVIDUAL),
    "dn": (None,),        # one argument of any term sort
    "id": (None, None),   # two arguments of one shared sort
}


def sort_of(t: Term) -> Sort:
    if isinstance(t, (Var, Const)):
        return t.sort
    if isinstance(t, Lambda):
        return Relation(len(t.params))
    if isinstance(t, Description):
        return INDIVIDUAL
    if isinstance(t, MacroTerm):
        try:
            return MACRO_TERM_SIGS[t.name][1]
        except KeyError:
            raise SortError(f"unknown term macro {t.name!r}")
    raise SortError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Formulas

class Formula:
    __slots__ = _FACTS


@dataclass(frozen=True, slots=True)
class Exemplify(Formula):
    rel: Term
    args: tuple = ()  # tuple[Term, ...] of individuals


@dataclass(frozen=True, slots=True)
class Encode(Formula):
    obj: Term
    rel: Term


@dataclass(frozen=True, slots=True)
class SOAtom(Formula):
    op: Term  # second-order constant
    arg: Term  # unary-relation term


@dataclass(frozen=True, slots=True)
class PrimitiveEq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Box(Formula):
    body: Formula


@dataclass(frozen=True, slots=True)
class Actually(Formula):
    body: Formula


@dataclass(frozen=True, slots=True)
class Forall(Formula):
    var: Var
    body: Formula


# Derived connectives; expand_derived maps them to the primitives above.

@dataclass(frozen=True, slots=True)
class Diamond(Formula):
    body: Formula


@dataclass(frozen=True, slots=True)
class Exists(Formula):
    var: Var
    body: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Xor(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class MacroFormula(Formula):
    name: str
    args: tuple = ()


Node = Union[Term, Formula]


def _store_hash(cls):
    """Make cls's hash the one its dataclass __hash__ gives, stored on the
    node (see _FACTS). That hash is built from the fields' hashes, so
    without storing it every call walks the whole tree; set and dict
    orders stay as they were. dataclass writes __hash__ on each class, so
    each class gets its own."""
    field_hash = cls.__hash__

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
        return h
    cls.__hash__ = __hash__


for _cls in (Var, Const, Lambda, Description, MacroTerm, Exemplify, Encode,
             SOAtom, PrimitiveEq, Not, Implies, Box, Actually, Forall,
             Diamond, Exists, And, Or, Iff, Xor, MacroFormula):
    _store_hash(_cls)
del _cls

UNARY = (Not, Box, Actually, Diamond)
BINARY = (Implies, And, Or, Iff, Xor)
BINDERS = (Forall, Exists)


def children(x: Node):
    """Immediate term/formula children, for generic traversals. The node
    kinds are tested most common first: connectives, as expand_derived
    leaves them, then atoms and leaves."""
    if isinstance(x, UNARY):
        return (x.body,)
    if isinstance(x, BINARY):
        return (x.left, x.right)
    if isinstance(x, (Var, Const)):
        return ()
    if isinstance(x, Exemplify):
        return (x.rel, *x.args)
    if isinstance(x, BINDERS):
        return (x.body,)
    if isinstance(x, Lambda):
        return (x.body,)
    if isinstance(x, Description):
        return (x.body,)
    if isinstance(x, MacroTerm):
        return x.args
    if isinstance(x, Encode):
        return (x.obj, x.rel)
    if isinstance(x, SOAtom):
        return (x.op, x.arg)
    if isinstance(x, PrimitiveEq):
        return (x.left, x.right)
    if isinstance(x, MacroFormula):
        return x.args
    raise TypeError(f"not an AST node: {x!r}")


def binder_vars(x: Node) -> tuple:
    if isinstance(x, Lambda):
        return x.params
    if isinstance(x, (Description, Forall, Exists)):
        return (x.var,)
    return ()


def free_vars(x: Node) -> frozenset:
    """The free variables of x, stored on x (a Var excepted, whose set would
    hold the Var itself). A set equal to a child's is that child's set."""
    if isinstance(x, Var):
        return frozenset((x,))
    fv = getattr(x, "_free_vars", None)
    if fv is None:
        fv = _EMPTY
        for c in children(x):
            sub = free_vars(c)
            if not sub <= fv:
                fv = fv | sub if fv else sub
        bvs = binder_vars(x)
        if bvs and not fv.isdisjoint(bvs):
            fv = fv.difference(bvs)
        object.__setattr__(x, "_free_vars", fv)
    return fv


def free_names(x: Node) -> frozenset:
    """The names of x's free variables, stored on x. When x's variables
    are a child's set, its names are that child's set."""
    names = getattr(x, "_free_names", None)
    if names is None:
        fv = free_vars(x)
        names = _EMPTY
        if fv:
            same = [c for c in children(x)
                    if not isinstance(c, Var) and free_vars(c) is fv]
            names = free_names(same[0]) if same \
                else frozenset(v.name for v in fv)
        object.__setattr__(x, "_free_names", names)
    return names


# Most nodes a formula handed to model search or AOT evaluation may expand
# to, counted as a tree (see tree_size); the shipped problems and corpus
# variants need at most 56, the object-theory benchmark's jobs 939.
EXPANSION_BUDGET = 10_000


def tree_size(x: Node) -> int:
    """The number of nodes of x counted as a tree, stored on x. A child
    shared by two parents counts twice, as every walk visits it twice;
    macros.expand_derived shares the two sides of each <-> and xor."""
    n = getattr(x, "_size", None)
    if n is None:
        n = 1 + sum(map(tree_size, children(x)))
        object.__setattr__(x, "_size", n)
    return n


def subnodes(x: Node):
    """x and every node below it, in pre-order; a child shared by two
    parents comes twice. A stack, not nested generators, so each node
    costs one step whatever its depth."""
    stack = [x]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(children(n)))


# ---------------------------------------------------------------------------
# Reconstruction helper

def rebuild(x: Node, new_children: tuple) -> Node:
    """Rebuild a node with the given children (same arity, binder vars kept)."""
    if isinstance(x, Lambda):
        return Lambda(x.params, new_children[0])
    if isinstance(x, Description):
        return Description(x.var, new_children[0])
    if isinstance(x, MacroTerm):
        return MacroTerm(x.name, tuple(new_children))
    if isinstance(x, Exemplify):
        return Exemplify(new_children[0], tuple(new_children[1:]))
    if isinstance(x, Encode):
        return Encode(new_children[0], new_children[1])
    if isinstance(x, SOAtom):
        return SOAtom(new_children[0], new_children[1])
    if isinstance(x, PrimitiveEq):
        return PrimitiveEq(new_children[0], new_children[1])
    if isinstance(x, UNARY):
        return type(x)(new_children[0])
    if isinstance(x, BINARY):
        return type(x)(new_children[0], new_children[1])
    if isinstance(x, (Forall, Exists)):
        return type(x)(x.var, new_children[0])
    if isinstance(x, MacroFormula):
        return MacroFormula(x.name, tuple(new_children))
    raise TypeError(f"cannot rebuild {x!r}")


def fresh_name(base: str, taken: Iterable[str]) -> str:
    taken = set(taken)
    if base not in taken:
        return base
    i = 1
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def rename_binder(x: Node, old: Var, new: Var) -> Node:
    """Rename one bound variable of x (x must bind old)."""
    body_subst = lambda b: substitute(b, old, new)
    if isinstance(x, Lambda):
        params = tuple(new if p == old else p for p in x.params)
        return Lambda(params, body_subst(x.body))
    if isinstance(x, Description):
        return Description(new, body_subst(x.body))
    if isinstance(x, (Forall, Exists)):
        return type(x)(new, body_subst(x.body))
    raise TypeError(f"{x!r} is not a binder")


def substitute(x: Node, var: Var, term: Term) -> Node:
    """Capture-avoiding substitution of term for free occurrences of var."""
    if sort_of(term) != var.sort:
        raise SortError(
            f"substituting a {sort_of(term)} term for {var.sort} variable {var.name}"
        )
    return x if term == var else _subst(x, {var: term})


def substitute_many(x: Node, mapping: dict) -> Node:
    for v, t in mapping.items():
        if sort_of(t) != v.sort:
            raise SortError(f"bad sort in substitution for {v.name}")
    return _subst(x, {v: t for v, t in mapping.items() if t != v})


def _subst(x: Node, mapping: dict) -> Node:
    """x with the free occurrences of mapping's variables replaced; mapping
    maps none to itself. At each node the bindings whose variable is not
    free there are dropped, and a node left with none comes back as it is,
    with what it stores (see _FACTS), so only the paths down to the
    occurrences are rebuilt. A binder the substitution enters is renamed
    when it would capture a free variable of the payload; no other is."""
    if isinstance(x, Var):
        return mapping.get(x, x)
    names = free_names(x)
    bvs = binder_vars(x)
    live = {v: t for v, t in mapping.items()
            if v.name in names and v not in bvs}
    if not live:
        return x
    if bvs:
        # Rename any binder that would capture a free variable of the payload.
        # Each live variable is free here, so the fresh name, which avoids
        # names, is never one the substitution still replaces below.
        payload_names = set()
        for t in live.values():
            payload_names |= free_names(t)
        for bv in bvs:
            if bv.name in payload_names:
                taken = payload_names | names | {v.name for v in bvs}
                nv = Var(fresh_name(bv.name, taken), bv.sort)
                x = rename_binder(x, bv, nv)
    return rebuild(x, tuple(_subst(c, live) for c in children(x)))


# ---------------------------------------------------------------------------
# Alpha-equivalence via de Bruijn canonicalization

def canonical_key(x: Node):
    """A hashable key invariant under renaming of bound variables, stored
    on x. Only keys at top level are stored: under a binder a key depends
    on the binder's depth."""
    key = getattr(x, "_key", None)
    if key is None:
        key = _ckey(x, {}, 0)
        object.__setattr__(x, "_key", key)
    return key


def _ckey(x: Node, env: dict, depth: int):
    if isinstance(x, Var):
        if x.name in env:
            return ("b", env[x.name], str(x.sort))
        return ("f", x.name, str(x.sort))
    if isinstance(x, Const):
        return ("c", x.name, str(x.sort))
    bvs = binder_vars(x)
    if bvs:
        env = dict(env)
        for i, bv in enumerate(bvs):
            env[bv.name] = depth + i
        depth += len(bvs)
    tag = type(x).__name__
    extra = (x.name,) if isinstance(x, (MacroTerm, MacroFormula)) else ()
    if env:
        kids = tuple(_ckey(c, env, depth) for c in children(x))
    else:
        kids = tuple(map(canonical_key, children(x)))
    return (tag, *extra, len(bvs), kids)


def alpha_equivalent(a: Node, b: Node) -> bool:
    """True when a and b differ at most in the names of their bound
    variables, that is, when their canonical keys are equal.

    Identity and dataclass equality are tried first. Equality compares the
    class and every field, names and sorts included, so equal nodes have
    equal keys; it compares shared children by identity, so on shared
    nodes it is a short walk. Only a pair that is not equal builds keys.
    Every comparison of two keys in the package goes through here."""
    return a is b or a == b or canonical_key(a) == canonical_key(b)


# ---------------------------------------------------------------------------
# Beta normalization

def _param_touches_encode(x: Node, param: Var, shadowed=_EMPTY) -> bool:
    """True when param occurs free inside some Encode atom of x; the names
    in shadowed are bound above x. A subtree where no variable of param's
    name is free is not entered."""
    if isinstance(x, Var) or param.name not in free_names(x):
        return False
    if isinstance(x, Encode):
        return param.name not in shadowed and param in free_vars(x)
    bvs = binder_vars(x)
    if bvs:
        shadowed = shadowed | {v.name for v in bvs}
    return any(_param_touches_encode(c, param, shadowed)
               for c in children(x))


def beta_step_safe(lam: Lambda) -> bool:
    """A redex with this lambda may be reduced without changing meaning.

    In AOT a lambda whose matrix tests encoding of the bound variable may
    fail to denote; those applications are kept as written.
    """
    return all(not _param_touches_encode(lam.body, p) for p in lam.params)


def beta_normalize(x: Node) -> Node:
    """Reduce every safe redex, innermost first.

    A redex with a definite description among its arguments is kept: the
    description may fail to denote, and then the application is false
    while the reduced matrix need not be. A node in which nothing changes
    is returned as it is, not rebuilt. What it returns is stored on x and
    flagged normal (see _FACTS), so normalizing either again returns at
    once.
    """
    if isinstance(x, (Var, Const)):
        return x
    done = getattr(x, "_normal", None)
    if done is not None:
        return x if done is True else done
    old = children(x)
    new = tuple(map(beta_normalize, old))
    y = rebuild(x, new) if any(map(is_not, new, old)) else x
    lam = y.rel if isinstance(y, Exemplify) else None
    if isinstance(lam, Lambda) and len(lam.params) == len(y.args) \
            and beta_step_safe(lam) \
            and not any(isinstance(t, Description) for t in y.args):
        y = beta_normalize(
            substitute_many(lam.body, dict(zip(lam.params, y.args))))
    else:
        object.__setattr__(y, "_normal", True)
    if y is not x:
        object.__setattr__(x, "_normal", y)
    return y
