"""Finite Kripke interpretations and their three evaluators.

Values are packed into integer bitmasks: a proposition is a mask over
worlds, a unary relation a mask over (individual, world) pairs with bit
position d * n_worlds + w. Box quantifies over accessibility successors.
An S5 interpretation carries the total relation, so there Box quantifies
over all worlds, mirroring the lifted definition of necessity.

`evaluate` walks the formula at one world and stops at the first subformula
that settles it. It is the reference the other two are tested against, and
the path for one-off calls, and it takes the full language, derived
connectives and macros included. The two compilers take only the primitive
language, what `beta_normalize(expand_derived(f))` returns: atoms, Not,
Implies, Box, Actually, Forall and lambda terms. A derived node (And, Or,
Iff, Xor, Diamond, Exists or a macro) raises EvalError when the compiled
closure is called.

`compile_world` turns a formula into closures once; each call makes the
same reads as `evaluate`, in the same order, and stops at the same point.
Model search runs it on partially assigned interpretations, where the
denotation bit an evaluation stops on decides which bit a premise instance
waits for. `compile_mask` also compiles once, but each call returns the
mask of all the worlds where the formula holds, with Box and Actually left
to the interpretation's `box` and `actually`. It serves complete
interpretations. `compile_masks` is compile_mask over a list of formulas:
one program with the same semantics for each construct, in which equal
nodes are one node, each evaluated once per space (or complete
interpretation) and values of its free variables, whatever its construct.

`box`, `actually` and `spread` have one implementation each, over columns:
bit c * n_worlds + w of a mask means "column c at world w". The columns
fall into equal consecutive blocks of `per_block` columns, one per frame,
and each column is read over its block's frame; `block(x, i)` is block i
of mask x, and is the one place a mask is cut into blocks. `spread(x, v)`
copies each column's bit at world v to all of its worlds. Box is a spread
per predecessor: for each world v, it ANDs `spread(x, v)` into slot w of
the columns whose frame has w -> v, the mask `into[v]`. Actually is the spread of the actual world. A complete
`KripkeInterpretation` is the one-column space over its own frame.

`frames_for` lists a frame class as a `FrameCube`: a base relation and
generating edge sets, each frame the base with some of the generators
added, in the order doubling over the generators gives, which is the
order of the frames' bits. A space over a cube builds its `into` masks by
the same doubling, a few big-int operations per world and generator
whatever the number of frames; any other tuple of frames is one cube per
frame.

A `ColumnSpace` lets one `compile_mask` call check many complete
interpretations at once, each column a valuation of the constants and
variables. It covers 0-place atoms, Not, Implies, Box and Actually, and
unary relations over its `n_individuals` individuals, Forall over them and
equality between them. A formula's mask has `width` = n_columns * n_worlds
bits, and a unary relation's word has one such mask per individual, d's at
bit d * width (an interpretation's width is n_worlds); an individual
variable names one individual in every column. `ColumnSpace.product` lays
out every tuple of given world masks for given names, repeated in each
frame's block, and `column(c)` reads column c's frame and values back.
Premise-free countermodel search gives it every frame of a class at one
world count, with every valuation. Layer validation gives it every frame
of a world count: as one-column blocks, to read the vectors the atoms
realize on each; and with every tuple of all world vectors for a
template's metavariables, from which it reads every model's outcome.
For its builtin schemas it gives it one space per (world count, domain
size), every test frame with every valuation, and runs all the instances
as one compile_masks program. The standard-translation cross-check gives
it every K frame of a world count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import itemgetter

from .formulas import (
    INDIVIDUAL,
    Actually, And, Box, Const, Description, Diamond, Encode, Exemplify,
    Exists, Forall, Formula, Iff, Implies, Lambda, MacroFormula, MacroTerm,
    Not, Or, PrimitiveEq, SOAtom, Term, Var, Xor, free_names, free_vars,
    subnodes,
)
from .macros import expand_derived
from .signature import LogicTag, Signature


class EvalError(Exception):
    """Evaluation failed: free variable unhoused or construct unsupported."""


RELSPACE_LIMIT = 4  # full function space only while n_individuals * n_worlds <= 4


def full_relspace(n_individuals: int, n_worlds: int) -> tuple:
    bits = n_individuals * n_worlds
    if bits > RELSPACE_LIMIT:
        raise EvalError(
            f"full relation space needs {n_individuals}*{n_worlds} bits; "
            f"limit is {RELSPACE_LIMIT} (list the space explicitly instead)")
    return tuple(range(1 << bits))


def rel_bit(value: int, d: int, w: int, n_worlds: int) -> bool:
    return bool((value >> (d * n_worlds + w)) & 1)


def is_rigid_value(value: int, n_individuals: int, n_worlds: int) -> bool:
    for d in range(n_individuals):
        col = (value >> (d * n_worlds)) & ((1 << n_worlds) - 1)
        if col not in (0, (1 << n_worlds) - 1):
            return False
    return True


def total_access(n_worlds: int) -> frozenset:
    return frozenset((w, v) for w in range(n_worlds) for v in range(n_worlds))


class FrameCube(tuple):
    """The frames base | (a union of some generators), listed by doubling:
    the listing starts as [base], and each generator g appends every frame
    so far with g added, so frame i holds generators[k] exactly when bit k
    of i is set. The generators are disjoint edge sets, none meeting base.
    `_Columns.into` lays out a whole cube from base and generators alone."""

    def __new__(cls, base: frozenset, generators: tuple = ()):
        frames = [base]
        for g in generators:
            frames += [R | g for R in frames]
        cube = super().__new__(cls, frames)
        cube.base, cube.generators = base, generators
        return cube

    def __getnewargs__(self):
        # copy and pickle rebuild the cube, not a cube of its frame tuple
        return self.base, self.generators


def frames_for(logic: LogicTag, n_worlds: int) -> FrameCube:
    """Every accessibility relation of the frame class, in increasing order
    of its bits (w * n_worlds + v); model search's canonical order, and so
    the first model it reports, follows this order.

    The class is a cube. K has one generator per pair, in bit order; KB
    one per symmetric pair {(w, v), (v, w)}, ordered by its higher bit;
    S5 is the total relation with no generators. The cube's order is the
    bit order: every bit of a generator lies below the higher bit of each
    later one, so the last generator in which two frames differ also
    decides which has the larger bits."""
    if logic is LogicTag.S5TOTAL:
        return FrameCube(total_access(n_worlds))
    pairs = [(w, v) for w in range(n_worlds) for v in range(n_worlds)]
    if logic is LogicTag.KB:
        # for v <= w, (w, v) holds the pair's higher bit
        generators = [frozenset({(w, v), (v, w)}) for w, v in pairs if v <= w]
    else:
        generators = [frozenset({p}) for p in pairs]
    return FrameCube(frozenset(), tuple(generators))


def _repunit(period: int, count: int) -> int:
    """count ones, period bits apart, the first at bit 0."""
    return ((1 << (period * count)) - 1) // ((1 << period) - 1)


def _sources(edges, v: int) -> int:
    """The mask of the worlds w with w -> v in edges."""
    return sum(1 << w for w, u in edges if u == v)


def lowest_bit(x: int) -> int:
    """The position of the lowest set bit of x > 0."""
    return (x & -x).bit_length() - 1


class _stored:
    """functools.cached_property without its lock: the first read of the
    attribute calls the method and puts the value in the instance's
    __dict__, where, since this descriptor defines no __set__, every later
    read finds it before looking here. Python 3.11's cached_property takes
    a lock at each first read, and every space makes several. Two threads
    reading at once could both compute the value; the package shares no
    interpretation or space between threads."""

    def __init__(self, method):
        self.method = method
        self.__doc__ = method.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.method(obj)
        return value


class _Columns:
    """Box, Actually and spread over n_columns columns of n_worlds bits:
    bit c * n_worlds + w of a mask is column c at world w. The columns split
    into len(frames) equal consecutive blocks, and block i is read over the
    accessibility relation frames[i]. A formula's mask has width bits.
    Subclasses give n_worlds, n_columns, frames and actual."""

    @_stored
    def width(self) -> int:
        return self.n_columns * self.n_worlds

    @_stored
    def all_worlds(self) -> int:
        return (1 << self.width) - 1

    @_stored
    def slots(self) -> tuple:
        """Per world w, the mask of bit w in every column."""
        first = _repunit(self.n_worlds, self.n_columns)
        return tuple(first << w for w in range(self.n_worlds))

    @property
    def per_block(self) -> int:
        """The number of columns in each frame's block."""
        return self.n_columns // len(self.frames)

    def block(self, x: int, i: int) -> int:
        """Block i of mask x, its first column at bit 0."""
        bits = self.per_block * self.n_worlds
        return (x >> (i * bits)) & ((1 << bits) - 1)

    @_stored
    def into(self) -> tuple:
        """Per world v, the mask of slot w in the columns whose frame has
        w -> v, over every w.

        A FrameCube is laid out by doubling: the first block gets base's
        edges, and each generator g copies the blocks so far above
        themselves with g's edges added, a few big-int operations per world
        and generator rather than one per edge and frame. Its frames are
        listed in the same doubling order, so block i is frames[i]. Any
        other tuple of frames is one cube per frame, with no generators."""
        n, frames = self.n_worlds, self.frames
        block = self.block(self.slots[0], 0)
        if isinstance(frames, FrameCube):
            cubes = [(frames.base, frames.generators)]
        else:
            cubes = [(R, ()) for R in frames]
        out = [0] * n
        offset = 0
        for base, generators in cubes:
            x = [_sources(base, v) * block for v in range(n)]
            rep, size = block, self.per_block * n
            for g in generators:
                for v in range(n):
                    x[v] |= (x[v] | _sources(g, v) * rep) << size
                rep |= rep << size
                size *= 2
            for v in range(n):
                out[v] |= x[v] << offset
            offset += size
        return tuple(out)

    def spread(self, x: int, s: int) -> int:
        """Each column's bit at world s, copied to all of its worlds."""
        return ((x >> s) & self.slots[0]) * ((1 << self.n_worlds) - 1)

    def box(self, x: int) -> int:
        """In each column, the worlds all of whose successors in the
        column's frame lie in x: each world v's bit, spread to the column,
        is ANDed into v's predecessors."""
        full = out = self.all_worlds
        for v, into in enumerate(self.into):
            out &= self.spread(x, v) | (full ^ into)
        return out

    def actually(self, x: int) -> int:
        """In each column, every world when x holds at the actual world,
        else none."""
        return self.spread(x, self.actual)


@dataclass(frozen=True, eq=False)
class KripkeInterpretation(_Columns):
    """A complete or partial interpretation. As a complete one it is a
    one-column space over its own frame, for compile_mask."""
    sig: Signature
    n_worlds: int
    n_individuals: int
    access: frozenset
    denot: dict  # name -> value (mask / int / dict, per sort)
    relspace: tuple = ()
    actual: int = 0
    relvar_domain: str = "full"  # 'full' | 'rigid'
    n_columns = 1

    def __post_init__(self):
        if self.n_worlds < 1 or self.n_individuals < 1:
            raise EvalError("worlds and individuals must be non-empty")
        if self.sig.logic is LogicTag.S5TOTAL and self.access != total_access(self.n_worlds):
            raise EvalError("S5 interpretations carry the total accessibility relation")

    @property
    def frames(self) -> tuple:
        return (self.access,)

    def successors(self, w: int):
        return [v for v in range(self.n_worlds) if (w, v) in self.access]

    @_stored
    def successor_lists(self) -> tuple:
        """Per world, the tuple of `successors(w)`."""
        return tuple(tuple(self.successors(w)) for w in range(self.n_worlds))

    @_stored
    def lambda_values(self) -> dict:
        """compile_world's values of lambdas that read no denotation, by
        compiled lambda and the values of its free variables."""
        return {}

    @_stored
    def rigid_relations(self) -> tuple:
        """The rigid values of relspace, in its order."""
        return tuple(v for v in self.relspace
                     if is_rigid_value(v, self.n_individuals, self.n_worlds))

    def relation_domain(self):
        if not self.relspace:
            raise EvalError("relation quantifier needs a relation space")
        if self.relvar_domain == "rigid":
            return self.rigid_relations
        return self.relspace

    def proposition_domain(self):
        return range(1 << self.n_worlds)


@dataclass(frozen=True, eq=False)
class ColumnSpace(_Columns):
    """n_columns complete interpretations for compile_mask, in len(frames)
    blocks; denot maps each proposition constant to its column word, and
    each unary relation constant to one column word per individual, d's at
    bit d * width."""
    n_worlds: int
    frames: tuple
    n_columns: int
    denot: dict
    actual: int = 0
    n_individuals: int = 1

    @classmethod
    def product(cls, n_worlds: int, frames, names, values,
                actual: int = 0) -> ColumnSpace:
        """Every tuple of the world masks in values for names, the first
        name outermost, in each frame's block: in column c of a block, name
        j holds values[the j-th of the len(names) base-len(values) digits
        of c]. See product_words."""
        if not isinstance(frames, tuple):
            frames = tuple(frames)  # a FrameCube stays one
        denot, n_columns = product_words(n_worlds, len(frames), names, values)
        return cls(n_worlds, frames, n_columns, denot, actual)

    def column(self, c: int) -> tuple:
        """(frame, values): column c's accessibility relation, and the
        value in column c of each word of denot (of individual 0's block,
        for a relation), in denot's order."""
        n = self.n_worlds
        mask = (1 << n) - 1
        return self.frames[c // self.per_block], tuple(
            (word >> (c * n)) & mask for word in self.denot.values())


def product_words(n_worlds: int, n_blocks: int, names, values) -> tuple:
    """(denot, n_columns) of ColumnSpace.product over n_blocks frames:
    per name its column word, and the number of columns. Each word repeats
    one run rather than visiting the columns."""
    values = tuple(values)
    n_v, k = len(values), len(names)
    per_block = n_v ** k
    denot = dict.fromkeys(names, 0)
    if per_block:
        blocks = _repunit(per_block * n_worlds, n_blocks)
        for j, name in enumerate(names):
            inner = n_v ** (k - 1 - j)  # columns per value
            width = inner * n_worlds
            run = _repunit(n_worlds, inner)
            word = 0
            for i, v in enumerate(values):
                word |= v * run << (i * width)
            denot[name] = word * _repunit(n_v * width, n_v ** j) * blocks
    return denot, n_blocks * per_block


def frame_check(m: KripkeInterpretation, tag: LogicTag) -> bool:
    if tag is LogicTag.K:
        return True
    if tag is LogicTag.KB:
        return all((v, w) in m.access for (w, v) in m.access)
    if tag is LogicTag.S5TOTAL:
        return m.access == total_access(m.n_worlds)
    raise ValueError(tag)


def term_value(t: Term, m: KripkeInterpretation, a: dict):
    if isinstance(t, Var):
        try:
            return a[t.name]
        except KeyError:
            raise EvalError(f"unhoused free variable {t.name!r}")
    if isinstance(t, Const):
        try:
            return m.denot[t.name]
        except KeyError:
            raise EvalError(f"uninterpreted constant {t.name!r}")
    if isinstance(t, MacroTerm):
        return term_value(expand_derived(t), m, a)
    if isinstance(t, Lambda):
        n = len(t.params)
        if n == 0:
            mask = 0
            for w in range(m.n_worlds):
                if evaluate(t.body, m, a, w):
                    mask |= 1 << w
            return mask
        if n == 1:
            mask = 0
            for d in range(m.n_individuals):
                inner = dict(a)
                inner[t.params[0].name] = d
                for w in range(m.n_worlds):
                    if evaluate(t.body, m, inner, w):
                        mask |= 1 << (d * m.n_worlds + w)
            return mask
        raise EvalError("lambda terms of arity >= 2 are not interpreted")
    if isinstance(t, Description):
        raise EvalError("definite descriptions are not interpreted in classical models")
    raise EvalError(f"cannot evaluate term {t!r}")


def evaluate(f: Formula, m: KripkeInterpretation, a: dict, w: int) -> bool:
    if isinstance(f, Exemplify):
        v = term_value(f.rel, m, a)
        if not f.args:
            return bool((v >> w) & 1)
        if len(f.args) == 1:
            d = term_value(f.args[0], m, a)
            return rel_bit(v, d, w, m.n_worlds)
        ds = tuple(term_value(arg, m, a) for arg in f.args)
        return bool((v[ds] >> w) & 1)
    if isinstance(f, SOAtom):
        table = m.denot.get(f.op.name)
        if table is None:
            raise EvalError(f"uninterpreted second-order constant {f.op.name!r}")
        v = term_value(f.arg, m, a)
        try:
            mask = table[v]
        except KeyError:
            # applied to a value outside the interpreted domain: false
            return False
        return bool((mask >> w) & 1)
    if isinstance(f, PrimitiveEq):
        return term_value(f.left, m, a) == term_value(f.right, m, a)
    if isinstance(f, Encode):
        raise EvalError("encoding atoms are not interpreted in classical models")
    if isinstance(f, Not):
        return not evaluate(f.body, m, a, w)
    if isinstance(f, Implies):
        return (not evaluate(f.left, m, a, w)) or evaluate(f.right, m, a, w)
    if isinstance(f, And):
        return evaluate(f.left, m, a, w) and evaluate(f.right, m, a, w)
    if isinstance(f, Or):
        return evaluate(f.left, m, a, w) or evaluate(f.right, m, a, w)
    if isinstance(f, Iff):
        return evaluate(f.left, m, a, w) == evaluate(f.right, m, a, w)
    if isinstance(f, Xor):
        return evaluate(f.left, m, a, w) != evaluate(f.right, m, a, w)
    if isinstance(f, Box):
        return all(evaluate(f.body, m, a, v) for v in m.successors(w))
    if isinstance(f, Diamond):
        return any(evaluate(f.body, m, a, v) for v in m.successors(w))
    if isinstance(f, Actually):
        return evaluate(f.body, m, a, m.actual)
    if isinstance(f, (Forall, Exists)):
        dom = _domain_of(f.var)(m)
        inner = dict(a)
        name = f.var.name
        if isinstance(f, Forall):
            for val in dom:
                inner[name] = val
                if not evaluate(f.body, m, inner, w):
                    return False
            return True
        for val in dom:
            inner[name] = val
            if evaluate(f.body, m, inner, w):
                return True
        return False
    if isinstance(f, MacroFormula):
        return evaluate(expand_derived(f), m, a, w)
    raise EvalError(f"cannot evaluate {f!r}")


def _domain_of(var: Var):
    """fn(m): the values var ranges over in m."""
    if var.sort == INDIVIDUAL:
        return lambda m: range(m.n_individuals)
    if var.sort.kind == "rel" and var.sort.arity == 1:
        return KripkeInterpretation.relation_domain
    if var.sort.kind == "rel" and var.sort.arity == 0:
        return KripkeInterpretation.proposition_domain
    return _raiser(f"no quantification domain at sort {var.sort}")


# ---------------------------------------------------------------------------
# Compiled evaluation

def _raiser(message: str):
    def fail(*args):
        raise EvalError(message)
    return fail


def _compile_term(t: Term, lambda_term):
    """fn(m, a) giving the value term_value gives; lambda_term compiles the
    0- and 1-place lambda terms."""
    if isinstance(t, Var):
        name = t.name

        def var(m, a):
            try:
                return a[name]
            except KeyError:
                raise EvalError(f"unhoused free variable {name!r}")
        return var
    if isinstance(t, Const):
        name = t.name

        def const(m, a):
            try:
                return m.denot[name]
            except KeyError:
                raise EvalError(f"uninterpreted constant {name!r}")
        return const
    if isinstance(t, Lambda):
        if len(t.params) <= 1:
            return lambda_term(t)
        return _raiser("lambda terms of arity >= 2 are not interpreted")
    if isinstance(t, Description):
        return _raiser("definite descriptions are not interpreted in classical models")
    return _raiser(f"cannot evaluate term {t!r}")


# ---------------------------------------------------------------------------
# Per-world evaluation in evaluate's order, for partial interpretations

def _world_lambda(t: Lambda):
    """A lambda term's value: its body evaluated at every world, for each
    individual when it has a parameter, in term_value's order.

    A lambda that reads no denotation (no constant and no second-order
    atom among its subnodes) has a value fixed by the interpretation's
    frame and sizes and by its free variables' values, so it is worked
    out once per interpretation and assignment of those variables and
    kept in the interpretation's `lambda_values`."""
    body = compile_world(t.body)
    if not t.params:
        def value(m, a):
            mask = 0
            for w in range(m.n_worlds):
                if body(m, a, w):
                    mask |= 1 << w
            return mask
    else:
        name = t.params[0].name

        def value(m, a):
            inner = dict(a)
            n_w = m.n_worlds
            mask = 0
            for d in range(m.n_individuals):
                inner[name] = d
                for w in range(n_w):
                    if body(m, inner, w):
                        mask |= 1 << (d * n_w + w)
            return mask
    if any(isinstance(n, (Const, SOAtom)) for n in subnodes(t)):
        return value
    token = object()   # this closure's part of the key
    names = tuple(sorted(free_names(t)))

    def memo(m, a):
        try:
            key = (token, *[a[n] for n in names])
        except KeyError:
            return value(m, a)  # raises for the unassigned variable
        values = m.lambda_values
        v = values.get(key)
        if v is None:
            v = values[key] = value(m, a)
        return v
    return memo


def compile_world(f: Formula):
    """f, in the primitive language, compiled once into
    fn(m, a, w) == evaluate(f, m, a, w).

    fn reads the interpretation and the assignment exactly as evaluate does,
    in the same order, and stops where evaluate stops, so on a partially
    assigned interpretation it raises at the same missing entry. Constructs
    evaluate cannot interpret raise the same EvalError, and derived ones an
    EvalError naming them, when fn is called rather than when it is built.

    A 0- or 1-place lambda term with no constant and no second-order atom
    among its subnodes reads no denotation, so its value is kept in
    m.lambda_values, keyed by the compiled lambda and its free variables'
    values, and later calls on m read it back: m's frame, sizes, relation
    space and actual world are fixed, and a search that fills in m's
    denotation between calls cannot change it. Skipping the body skips
    no denotation read, so the read order above still holds.
    """
    if isinstance(f, Exemplify):
        rel = _compile_term(f.rel, _world_lambda)
        if not f.args:
            return lambda m, a, w: bool((rel(m, a) >> w) & 1)
        if len(f.args) == 1:
            arg = _compile_term(f.args[0], _world_lambda)

            def unary(m, a, w):
                v = rel(m, a)
                return bool((v >> (arg(m, a) * m.n_worlds + w)) & 1)
            return unary
        args = tuple(_compile_term(t, _world_lambda) for t in f.args)

        def nary(m, a, w):
            v = rel(m, a)
            return bool((v[tuple(t(m, a) for t in args)] >> w) & 1)
        return nary
    if isinstance(f, SOAtom):
        name, arg = f.op.name, _compile_term(f.arg, _world_lambda)

        def so_atom(m, a, w):
            table = m.denot.get(name)
            if table is None:
                raise EvalError(f"uninterpreted second-order constant {name!r}")
            v = arg(m, a)
            try:
                mask = table[v]
            except KeyError:
                # applied to a value outside the interpreted domain: false
                return False
            return bool((mask >> w) & 1)
        return so_atom
    if isinstance(f, PrimitiveEq):
        left = _compile_term(f.left, _world_lambda)
        right = _compile_term(f.right, _world_lambda)
        return lambda m, a, w: left(m, a) == right(m, a)
    if isinstance(f, Encode):
        return _raiser("encoding atoms are not interpreted in classical models")
    if isinstance(f, Not):
        body = compile_world(f.body)
        return lambda m, a, w: not body(m, a, w)
    if isinstance(f, Implies):
        left, right = compile_world(f.left), compile_world(f.right)
        return lambda m, a, w: (not left(m, a, w)) or right(m, a, w)
    if isinstance(f, Box):
        body = compile_world(f.body)

        def box(m, a, w):
            for v in m.successor_lists[w]:
                if not body(m, a, v):
                    return False
            return True
        return box
    if isinstance(f, Actually):
        body = compile_world(f.body)
        return lambda m, a, w: body(m, a, m.actual)
    if isinstance(f, Forall):
        domain, name, body = _domain_of(f.var), f.var.name, compile_world(f.body)

        def forall(m, a, w):
            dom = domain(m)
            inner = dict(a)
            for val in dom:
                inner[name] = val
                if not body(m, inner, w):
                    return False
            return True
        return forall
    return _raiser(f"cannot evaluate {f!r}")


# ---------------------------------------------------------------------------
# World-mask evaluation for complete interpretations

def _mask_lambda(t: Lambda, sub):
    """A lambda term's value from the masks of its body, compiled by sub."""
    body = sub(t.body)
    if not t.params:
        return body
    name = t.params[0].name

    def columns(m, a):
        inner = dict(a)
        mask = 0
        for d in range(m.n_individuals):
            inner[name] = d
            mask |= body(m, inner) << (d * m.width)
        return mask
    return columns


def compile_mask(f: Formula):
    """f, in the primitive language, compiled once into fn(m, a): the
    mask of the worlds of m where f holds under the assignment a, so bit w
    of fn(m, a) is evaluate(f, m, a, w). On a ColumnSpace m, for a formula
    of its fragment, bit c * m.n_worlds + w is that bit in column c, where
    a maps proposition variables to column words and individual variables
    to individuals.

    Constructs evaluate cannot interpret raise the same EvalError, and
    derived ones an EvalError naming them, when fn is called rather than
    when it is built. Implies reads its right side only where its left
    mask is not 0, and Forall stops at the first value that leaves no
    world.
    """
    return _mask_node(f, compile_mask)


def _mask_node(f: Formula, sub):
    """compile_mask's closure for f's own construct, its subformulas
    compiled by sub: compile_mask itself, or compile_masks' shared
    nodes. Connectives are tested first, as they are most nodes."""
    if isinstance(f, Implies):
        left, right = sub(f.left), sub(f.right)

        def implies(m, a):
            x = left(m, a)
            return m.all_worlds if not x else (m.all_worlds ^ x) | right(m, a)
        return implies
    if isinstance(f, Not):
        body = sub(f.body)
        return lambda m, a: m.all_worlds ^ body(m, a)
    if isinstance(f, Box):
        body = sub(f.body)
        return lambda m, a: m.box(body(m, a))
    if isinstance(f, Forall):
        domain, name, body = _domain_of(f.var), f.var.name, sub(f.body)

        def forall(m, a):
            inner = dict(a)
            out = m.all_worlds
            for val in domain(m):
                inner[name] = val
                out &= body(m, inner)
                if not out:
                    break
            return out
        return forall
    if isinstance(f, Actually):
        body = sub(f.body)
        return lambda m, a: m.actually(body(m, a))

    def lambda_term(t):
        return _mask_lambda(t, sub)

    if isinstance(f, Exemplify):
        rel = _compile_term(f.rel, lambda_term)
        if not f.args:
            return lambda m, a: rel(m, a) & m.all_worlds
        if len(f.args) == 1:
            arg = _compile_term(f.args[0], lambda_term)
            return lambda m, a: (rel(m, a) >> (arg(m, a) * m.width)) & m.all_worlds
        args = tuple(_compile_term(t, lambda_term) for t in f.args)
        return lambda m, a: rel(m, a)[tuple(t(m, a) for t in args)] & m.all_worlds
    if isinstance(f, SOAtom):
        name, arg = f.op.name, _compile_term(f.arg, lambda_term)

        def so_atom(m, a):
            table = m.denot.get(name)
            if table is None:
                raise EvalError(f"uninterpreted second-order constant {name!r}")
            v = arg(m, a)
            try:
                return table[v] & m.all_worlds
            except KeyError:
                # applied to a value outside the interpreted domain: false
                return 0
        return so_atom
    if isinstance(f, PrimitiveEq):
        left = _compile_term(f.left, lambda_term)
        right = _compile_term(f.right, lambda_term)
        return lambda m, a: m.all_worlds if left(m, a) == right(m, a) else 0
    if isinstance(f, Encode):
        return _raiser("encoding atoms are not interpreted in classical models")
    return _raiser(f"cannot evaluate {f!r}")


def _kept(fn, names: tuple):
    """fn, its value kept per space and values of the variables names."""
    values = {}
    if not names:
        def kept(m, a):
            x = values.get(m)
            if x is None:
                x = values[m] = fn(m, a)
            return x
        return kept

    values_of = itemgetter(*names)

    def kept_per_value(m, a):
        try:
            key = (m, values_of(a))
        except KeyError:
            return fn(m, a)  # raises where fn reads the unassigned variable
        x = values.get(key)
        if x is None:
            x = values[key] = fn(m, a)
        return x
    return kept_per_value


def compile_masks(formulas) -> list:
    """compile_mask over a list: one fn(m, a) per formula, in order, each
    returning what compile_mask(formula)(m, a) returns and raising where
    it raises, the same EvalError.

    The formulas share one program: equal nodes are one node, and each
    node's mask is worked out once per space (or complete interpretation)
    and values of its free variables, then kept, whatever its construct:
    a mask is a function of those alone. A node reached again, under any
    root, assignment or bound value, reads it back; one that raised is
    evaluated again, so it raises again where compile_mask would. The
    program keeps every mask, and so every space it has seen, for as long
    as it lives, so it serves spaces and complete interpretations that do
    not change between calls."""
    compiled = {}  # node -> its kept closure

    def sub(f):
        fn = compiled.get(f)
        if fn is None:
            fn = compiled[f] = _kept(_mask_node(f, sub),
                                     tuple(free_names(f)))
        return fn
    return [sub(f) for f in formulas]


def proposition_of(f: Formula, m: KripkeInterpretation, a: dict) -> tuple:
    return tuple(evaluate(f, m, a, w) for w in range(m.n_worlds))


class Validity(enum.Enum):
    NECESSARY = "necessary"
    ACTUAL = "actual"


def validity(f: Formula, m: KripkeInterpretation, mode: Validity) -> bool:
    if free_vars(f):
        raise EvalError("validity is defined for closed formulas only")
    if mode is Validity.NECESSARY:
        return all(evaluate(f, m, {}, w) for w in range(m.n_worlds))
    return evaluate(f, m, {}, m.actual)
