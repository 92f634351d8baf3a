"""Exhaustive finite model and countermodel search with incremental pruning.

Interpretations are enumerated in a canonical order: world count, then
individual count, then accessibility bits, then denotation bits (with the
rows of a second-order table visited complement-pair-adjacent, so polarity
constraints prune early). Premises are split into ground instances and
re-checked as soon as the bits they read are assigned. `leaves` yields
every complete interpretation the pruned search reaches, with whether the
premises hold in it; `_run_search` takes the first that passes, and callers
that want every premise model filter the same stream. The stream is read
through a LeafTable, which keeps each node's leaves for its premise set:
searches that share one (a corpus suite's consistency, K, KB and S5, and
collapse searches) search each node once, and each still walks its own
frame order with its own leaf test. The frames of one size walk the same
denotation tree, so the table keeps one entry per size: its denotation
groups, its compiled premise instances, and a trie of the search
positions its nodes have visited. A node that reaches a position another
node has visited first tries each instance on a frameless copy of its
interpretation, keeps a result reached without the frame there for every
frame of the size, and tries only the instances that read the frame on its
own; a position's first visit tries instances as a lone node does. A
countermodel tree search whose premises and conjecture never read the
actual world searches one frame per isomorphism class (see
find_countermodel). A relation space is
listed in full up to RELSPACE_LIMIT bits; bounds that need a larger one
raise SearchBoundsError before any node is searched. Without premises, a
conjecture over proposition constants alone is checked one world count at
a time, every frame and valuation in one call, and the first failing
valuation is the same first countermodel. The search runs in one thread.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

from .formulas import (
    EXPANSION_BUDGET, INDIVIDUAL, PROPOSITION, Actually, Box, Const,
    Exemplify, Formula, Forall, Implies, Not, Var, free_vars, subnodes,
)
from .kripke import (
    ColumnSpace, EvalError, KripkeInterpretation, compile_mask, compile_world,
    frames_for, full_relspace, lowest_bit, RELSPACE_LIMIT,
)
from .macros import primitive_form
from .signature import LogicTag, Mode, Signature


class SearchBoundsError(Exception):
    """The requested bounds exceed the relation-space limit or the model
    budget."""


# Most first-order interpretations a search may enumerate (see
# _check_budget); the shipped problems need at most 33 032.
MODEL_BUDGET = 1_000_000


class _MissingBit(Exception):
    """A premise instance reads a denotation bit that is not assigned yet.

    args[0] is the (constant, key) token of the missing bit; key is None
    for scalar denotations.
    """


class _PartialDenot(dict):
    def __missing__(self, key):
        raise _MissingBit((key, None))


class _PartialTable(dict):
    """A denotation table under construction. A missing key signals an
    unassigned bit while rows are still being chosen, and an ordinary
    out-of-domain lookup once the table is complete."""

    def __init__(self, name: str):
        super().__init__()
        self.name = name
        self.complete = False

    def __missing__(self, key):
        if self.complete:
            raise KeyError(key)
        raise _MissingBit((self.name, key))


@dataclass(frozen=True)
class Bounds:
    max_worlds: int = 3
    max_individuals: int = 2

    def __post_init__(self):
        if min(self.max_worlds, self.max_individuals) < 1:
            raise ValueError("bounds must be at least 1")


@dataclass(frozen=True)
class SatResult:
    model: object  # KripkeInterpretation | None
    bounds: Bounds
    examined: int

    @property
    def is_sat(self) -> bool:
        return self.model is not None


def _pair_adjacent_in(rows, relspace) -> list:
    """rows reordered so a value and its pointwise complement are adjacent."""
    full = len(relspace) - 1 if relspace else 0
    members = set(rows)
    order, seen = [], set()
    for v in rows:
        if v in seen:
            continue
        order.append(v)
        seen.add(v)
        c = full ^ v
        if c in members and c not in seen:
            order.append(c)
            seen.add(c)
    return order


def count_frames(logic: LogicTag, n: int) -> int:
    if logic is LogicTag.S5TOTAL:
        return 1
    if logic is LogicTag.KB:
        return 1 << (n * (n + 1) // 2)
    return 1 << (n * n)


def _needs_relspace(sig: Signature, premises_n) -> bool:
    """Whether the search needs the full relation space: a second-order
    constant, or a relation quantifier in the normalized premises."""
    if any(s.kind == "so" for s in sig.consts.values()):
        return True
    for f in premises_n:
        for n in subnodes(f):
            if isinstance(n, (Forall,)) and n.var.sort.kind == "rel" \
                    and n.var.sort.arity == 1:
                return True
    return False


def _denotation_groups(consts, n_worlds: int, n_individuals: int, rows,
                       relspace):
    """Ordered bit groups of the constants (a name -> sort dict) at one
    size, one at a time: (const, key, options). key is None for a scalar
    denotation and the row of a table otherwise; (const, key) is the
    _MissingBit token of the group's bit. rows are the second-order tables'
    rows, values of relspace (under the rigid reading its rigid values
    only)."""
    wmasks = range(1 << n_worlds)
    for name in sorted(consts):
        sort = consts[name]
        if sort.kind == "so":
            for v in _pair_adjacent_in(rows, relspace):
                yield name, v, wmasks
        elif sort.kind == "ind":
            yield name, None, range(n_individuals)
        elif sort.arity == 0:
            yield name, None, wmasks
        elif sort.arity == 1:
            yield name, None, range(1 << (n_individuals * n_worlds))
        else:
            for ds in itertools.product(range(n_individuals), repeat=sort.arity):
                yield name, ds, wmasks


def _check_relspace(n_worlds: int, n_individuals: int) -> None:
    if n_individuals * n_worlds > RELSPACE_LIMIT:
        raise SearchBoundsError(
            f"worlds={n_worlds} individuals={n_individuals} need a relation "
            f"space past the limit of {RELSPACE_LIMIT} bits")


def _node_counts(logic: LogicTag, consts, b: Bounds):
    """(n_worlds, n_individuals, factors) per size, canonical order, for
    the constants (a name -> sort dict): factors iterates the frame count
    and the option count of each bit group, and their product is the
    number of interpretations."""
    need = any(s.kind == "so" for s in consts.values())
    for n_w in range(1, b.max_worlds + 1):
        for n_d in range(1, b.max_individuals + 1):
            relspace = ()
            if need:
                _check_relspace(n_w, n_d)
                relspace = full_relspace(n_d, n_w)
            groups = _denotation_groups(consts, n_w, n_d, relspace, relspace)
            yield n_w, n_d, itertools.chain(
                (count_frames(logic, n_w),),
                (len(options) for _, _, options in groups))


def count_models(sig: Signature, b: Bounds) -> int:
    """Number of interpretations within bounds."""
    return sum(math.prod(factors) for _, _, factors in
               _node_counts(sig.logic, sig.consts, b))


def _check_budget(sig: Signature, b: Bounds) -> None:
    """Raise SearchBoundsError when the bounds admit more than MODEL_BUDGET
    interpretations of the signature without its second-order constants.

    Second-order tables are left out: RELSPACE_LIMIT bounds them and
    the premises prune them, so the corpus problems, with 1.7e10 to 2.7e11
    interpretations at two worlds and two individuals, still run. The count
    stops at the first factor that takes it past the budget, so absurd
    bounds or arities never build a huge integer.
    """
    consts = {n: s for n, s in sig.consts.items() if s.kind != "so"}
    total = 0
    for n_w, n_d, factors in _node_counts(sig.logic, consts, b):
        per = 1
        for factor in factors:
            per *= factor
            if total + per > MODEL_BUDGET:
                raise SearchBoundsError(
                    f"more than the search budget of {MODEL_BUDGET} "
                    f"interpretations within worlds<={n_w} "
                    f"individuals<={n_d}")
        total += per


def _expansion_error(f: Formula, size: int) -> SearchBoundsError:
    return SearchBoundsError(
        f"a premise or conjecture expands to {size} nodes, past the budget "
        f"of {EXPANSION_BUDGET}")


def _split_instances(f: Formula, domains) -> list:
    """Split a leading universal prefix into ground instances."""
    out = []

    def go(g, a):
        if isinstance(g, Forall):
            dom = domains(g.var)
            if dom is not None:
                for val in dom:
                    a2 = dict(a)
                    a2[g.var.name] = val
                    go(g.body, a2)
                return
        out.append((g, a))

    go(f, {})
    return out


def _size_nodes(sig: Signature, b: Bounds, premises_n):
    """All (n_worlds, n_individuals, frame, relspace) nodes, canonical order,
    for the normalized premises."""
    if sig.mode is not Mode.CLASSICAL:
        raise EvalError("model search covers classical signatures only")
    _check_budget(sig, b)
    need = _needs_relspace(sig, premises_n)
    for n_w in range(1, b.max_worlds + 1):
        frames = frames_for(sig.logic, n_w)
        for n_d in range(1, b.max_individuals + 1):
            if need:
                _check_relspace(n_w, n_d)
            relspace = (full_relspace(n_d, n_w)
                        if n_d * n_w <= RELSPACE_LIMIT else ())
            for R in frames:
                yield (n_w, n_d, R, relspace)


def _one_frame_per_class(nodes):
    """nodes, lazily, without each node whose frame is a world permutation
    of an earlier node's frame with the same sizes; the first frame of each
    class is kept. Each kept frame's relabellings under all n_worlds!
    permutations are recorded as edge masks (bit w * n_worlds + v), so a
    later frame is tested with one lookup."""
    seen = set()
    for node in nodes:
        n_w, n_d, R, _ = node
        if (n_w, n_d, sum(1 << (w * n_w + v) for w, v in R)) in seen:
            continue
        seen.update((n_w, n_d, sum(1 << (p[w] * n_w + p[v]) for w, v in R))
                    for p in itertools.permutations(range(n_w)))
        yield node


def _compiled_body(bodies: dict, g: Formula):
    """compile_world(g), built once per search: bodies maps each instance
    body to its closure, so equal bodies share one."""
    fn = bodies.get(g)
    if fn is None:
        fn = bodies[g] = compile_world(g)
    return fn


class _NeedsFrame(Exception):
    """A premise instance read the frame of a _Frameless interpretation."""


class _Frameless(KripkeInterpretation):
    """A node's partial interpretation with its frame hidden: it shares the
    node's denot, and reading successor_lists, the one read of the frame a
    compile_world body makes, raises _NeedsFrame. A premise instance tried
    on it to a result read nothing that differs between the frames of the
    node's size, so every frame of the size gets that result there."""

    @property
    def successor_lists(self):
        raise _NeedsFrame


def _size_parts(m: KripkeInterpretation, premises_n, bodies) -> tuple:
    """(groups, instances) of m's size: its denotation groups, and the
    premises' split ground instances as (compiled body, assignment, index)
    triples in split order. Both read m's sizes, signature, relation space
    and quantifier reading only, never its frame or its denotation."""
    n_d = m.n_individuals

    def domains(var: Var):
        if var.sort == INDIVIDUAL:
            return range(n_d)
        if var.sort.kind == "rel" and var.sort.arity == 1:
            return m.relation_domain()
        return None

    split = [ga for p in premises_n for ga in _split_instances(p, domains)]
    rows = m.rigid_relations if m.relvar_domain == "rigid" else m.relspace
    groups = list(_denotation_groups(m.sig.consts, m.n_worlds, n_d, rows,
                                     m.relspace))
    return groups, tuple(
        (_compiled_body(bodies, g), a, i) for i, (g, a) in enumerate(split))


def _enter(position, value):
    """The search position below position at value (None: the seeding
    position below the top, or the leaf check below the last group's
    position), and the results of the instances tried there, by index:
    None on the position's first visit, which makes it, and one shared dict
    on every later visit."""
    below = position[0]
    if below is None:
        below = position[0] = {}
    child = below.get(value)
    if child is None:
        child = below[value] = [None, None]
        return child, None
    if child[1] is None:
        child[1] = {}
    return child, child[1]


def _search_node(node, sig, premises_n, relvar_domain, bodies, size=None):
    """Depth-first search of one (worlds, individuals, frame) node: yields
    (m, ok) at every complete interpretation it reaches, in canonical order.

    m is the live interpretation, valid only until the generator resumes
    (_freeze keeps it); ok says whether every premise instance holds in it.
    Premise instances wait on the specific denotation bit whose absence
    stopped their evaluation and are re-tried only when that bit is set.
    bodies caches the compiled instance bodies across the nodes of one
    search (see _compiled_body).

    size, when given, is the (groups, instances, top) table a LeafTable
    keeps for the node's size (see LeafTable); top is the root of its trie
    of search positions, each [positions below by value, results]. A
    position's first visit tries instances as an unshared search does. A
    later visit, by another frame's node, reads each woken instance's
    result there, or else tries it on a _Frameless copy of m and keeps
    what that gives, or that it needs the frame, for the other frames; only
    instances that need the frame are tried on m. Results, and so leaves,
    are those of the unshared search.
    """
    n_w, n_d, R, relspace = node
    denot = _PartialDenot()
    m = KripkeInterpretation(sig, n_w, n_d, R, denot, relspace,
                             relvar_domain=relvar_domain)
    if size is None:
        (groups, instances), top = _size_parts(m, premises_n, bodies), None
    else:
        groups, instances, top = size
        free = _Frameless(sig, n_w, n_d, R, denot, relspace,
                          relvar_domain=relvar_domain)

    tables = {}
    for name in sorted(sig.consts):
        sort = sig.consts[name]
        if sort.kind == "so" or (sort.kind == "rel" and sort.arity >= 2):
            tables[name] = _PartialTable(name)
            denot[name] = tables[name]

    def try_inst(inst, m=m):
        """True, False, or the token of the first missing bit."""
        holds, a, _ = inst
        try:
            for w in range(n_w):
                if not holds(m, a, w):
                    return False
            return True
        except _MissingBit as e:
            return e.args[0]

    def attempt(inst, shared):
        """try_inst(inst) at a later visit of a position whose instances'
        results are shared."""
        r = shared.get(inst[2])
        if r is None:
            try:
                r = try_inst(inst, free)
            except _NeedsFrame:
                r = _NeedsFrame
            shared[inst[2]] = r
        return try_inst(inst) if r is _NeedsFrame else r

    # Seed the waiting map: instances evaluable from the frame alone are
    # settled immediately.
    position, shared = (None, None) if top is None else _enter(top, None)
    waiting0: dict = {}
    for inst in instances:
        r = try_inst(inst) if shared is None else attempt(inst, shared)
        if r is False:
            return
        if r is not True:
            waiting0.setdefault(r, []).append(inst)
    waiting0 = {k: tuple(v) for k, v in waiting0.items()}

    def leaf_check(waiting, position) -> bool:
        # All groups are assigned; anything still waiting reads a value
        # outside the listed relation space, which falsifies its atom. The
        # tables are complete now, so the check has a position of its own.
        shared = None if position is None else _enter(position, None)[1]
        for insts in waiting.values():
            for inst in insts:
                r = try_inst(inst) if shared is None \
                    else attempt(inst, shared)
                if r is not True:
                    return False
        return True

    def rec(gi, waiting, position):
        if gi == len(groups):
            for t in tables.values():
                t.complete = True
            yield m, leaf_check(waiting, position)
            for t in tables.values():
                t.complete = False
            return
        name, key, options = groups[gi]
        token = (name, key)
        target, slot = (denot, name) if key is None else (tables[name], key)
        woken = waiting.get(token, ())
        below = shared = None
        for value in options:
            target[slot] = value
            if position is not None:
                below, shared = _enter(position, value)
            ok = True
            moved: dict = {}
            for inst in woken:
                r = try_inst(inst) if shared is None \
                    else attempt(inst, shared)
                if r is False:
                    ok = False
                    break
                if r is not True:
                    moved.setdefault(r, []).append(inst)
            if ok:
                if woken or moved:
                    nxt = dict(waiting)
                    nxt.pop(token, None)
                    for t, insts in moved.items():
                        nxt[t] = nxt.get(t, ()) + tuple(insts)
                else:
                    nxt = waiting
                yield from rec(gi + 1, nxt, below)
        del target[slot]

    yield from rec(0, waiting0, position)


def _freeze(m: KripkeInterpretation) -> KripkeInterpretation:
    denot = {}
    for k, v in m.denot.items():
        denot[k] = dict(v) if isinstance(v, dict) else v
    return KripkeInterpretation(m.sig, m.n_worlds, m.n_individuals, m.access,
                                denot, m.relspace, m.actual, m.relvar_domain)


class LeafTable:
    """The leaves of one premise set's search nodes, shared by every search
    over that premise set and quantifier reading, so each node is searched
    once however many searches reach it.

    It holds the normalized premises, the compiled instance bodies by body
    (see _compiled_body), and per (n_worlds, n_individuals, frame,
    relspace) node the leaves found so far, as (frozen model, True) or
    (None, False), with the node's _search_node generator while it is
    unfinished. It fills lazily: a search that stops partway through a node
    leaves its generator suspended, and the next search over the node
    replays the stored leaves and then resumes it.

    Per (n_worlds, n_individuals, relspace) size it holds one table, built
    when the size's first node is searched: the denotation groups and the
    split, compiled premise instances, which no frame changes, and a trie
    of search positions, the values of the first k groups, with the leaf
    check at a position of its own below the last group's, since it reads
    the tables complete. On a position's second and later visits, each
    instance tried there is kept with its result, when a _Frameless try
    reached one, or as needing the frame (see _search_node). Node
    generators stay lazy and per node, so a search walks no frame it would
    not walk unshared, and each node's leaves are those it lists alone.

    A node's leaves do not depend on the logic tag: premise evaluation
    reads the frame only, through successor_lists and box, and both read
    the access relation, which on an S5 interpretation is the total one
    its construction requires. So a node reached under K, KB
    and S5 is one entry, and a replayed model is given the signature of
    the search that reads it. The frozen models are shared and read only.
    """

    def __init__(self, premises, relvar_domain: str = "full"):
        self.premises = tuple(premises)
        self.relvar_domain = relvar_domain
        self.premises_n = [primitive_form(f, _expansion_error)
                           for f in self.premises]
        self.bodies: dict = {}
        self._nodes: dict = {}   # node -> [leaves so far, generator | None]
        self._sizes: dict = {}   # (n_worlds, n_individuals, relspace) -> size

    def _size(self, node, sig: Signature) -> tuple:
        """The (groups, instances, top) table of the node's size, shared by
        its frames' nodes (see _search_node)."""
        n_w, n_d, R, relspace = node
        size = self._sizes.get((n_w, n_d, relspace))
        if size is None:
            m = KripkeInterpretation(sig, n_w, n_d, R, {}, relspace,
                                     relvar_domain=self.relvar_domain)
            size = self._sizes[n_w, n_d, relspace] = (
                *_size_parts(m, self.premises_n, self.bodies), [None, None])
        return size

    def node_leaves(self, node, sig: Signature):
        """(m, ok) for every complete interpretation of the node, in
        _search_node's order; m is a frozen model carrying sig when ok,
        else None."""
        entry = self._nodes.get(node)
        if entry is None:
            entry = self._nodes[node] = [[], _search_node(
                node, sig, self.premises_n, self.relvar_domain, self.bodies,
                self._size(node, sig))]
        found, i = entry[0], 0
        while True:
            while i < len(found):
                m, ok = found[i]
                i += 1
                if ok and m.sig != sig:
                    m = replace(m, sig=sig)
                yield m, ok
            if entry[1] is None:
                return
            try:
                m, ok = next(entry[1])
            except StopIteration:
                entry[1] = None
                return
            found.append((_freeze(m), True) if ok else (None, False))


def leaves(premises, sig: Signature, b: Bounds,
           relvar_domain: str = "full", nodes=None, table=None):
    """(m, ok) for every complete interpretation the search reaches within
    bounds, node by node in canonical order (see _search_node); m is a
    frozen premise model when ok, else None. nodes replaces the size nodes
    when given.

    The leaves are read through table, a LeafTable for these premises and
    relvar_domain (else ValueError), or a fresh one when none is given;
    searches that share a table search each node once.

    The node list is built in full first, so bounds past the relation-space
    limit raise SearchBoundsError before any node is searched.
    """
    if table is None:
        table = LeafTable(premises, relvar_domain)
    elif tuple(premises) != table.premises \
            or relvar_domain != table.relvar_domain:
        raise ValueError("the leaf table was built for other premises or "
                         "another quantifier reading")
    if nodes is None:
        nodes = list(_size_nodes(sig, b, table.premises_n))
    for node in nodes:
        yield from table.node_leaves(node, sig)


def _run_search(premises, sig: Signature, b: Bounds, leaf_ok=None,
                relvar_domain: str = "full", table=None, nodes=None):
    """Canonically-first premise model passing leaf_ok, and the number of
    complete interpretations examined before it (all of them when none is
    found). nodes replaces the size nodes when given (see leaves)."""
    examined = 0
    for m, ok in leaves(premises, sig, b, relvar_domain, nodes, table):
        if ok and (leaf_ok is None or leaf_ok(m)):
            return m, examined
        examined += 1
    return None, examined


def enumerate_models(sig: Signature, b: Bounds):
    """All interpretations within bounds, canonical deterministic order."""
    for node in _size_nodes(sig, b, ()):
        n_w, n_d, R, relspace = node
        groups = list(_denotation_groups(sig.consts, n_w, n_d, relspace,
                                         relspace))

        def build(choice):
            denot = {}
            for (name, key, _), value in zip(groups, choice):
                if key is None:
                    denot[name] = value
                else:
                    denot.setdefault(name, {})[key] = value
            return KripkeInterpretation(sig, n_w, n_d, R, denot, relspace)

        for choice in itertools.product(*(g[2] for g in groups)):
            yield build(choice)


def decide_sat(premises, sig: Signature, b: Bounds | None = None,
               workers: int = 1, relvar_domain: str = "full",
               table: LeafTable | None = None) -> SatResult:
    """First satisfying model in canonical order, else exhaustion evidence.
    table is the premise set's LeafTable, when searches share one.
    workers is ignored, as search runs in one thread; it stays so that
    criterion 12 can still compare worker counts."""
    b = b or Bounds()
    for p in premises:
        if free_vars(p):
            raise EvalError("premises must be closed")
    model, examined = _run_search(premises, sig, b, None, relvar_domain,
                                  table)
    return SatResult(model, b, examined)


def find_countermodel(premises, conjecture: Formula, sig: Signature,
                      b: Bounds | None = None, relvar_domain: str = "full",
                      table: LeafTable | None = None):
    """A premise model falsifying the conjecture at some world, if any.
    table is the premise set's LeafTable, when searches share one.

    The tree search (every search but _packed_countermodel's) searches
    frames one per isomorphism class when neither the primitive form of a
    premise nor that of the conjecture contains Actually: a node whose
    frame is a world permutation of an earlier frame with the same sizes
    is skipped (see _one_frame_per_class). The permutation maps the
    premise models on one frame onto those on the other, keeping that
    every premise instance holds at every world and that the conjecture
    fails at some world, and the relation spaces searched (full or rigid)
    are closed under it. So a skipped frame has a countermodel exactly
    when the kept one does, and the search has stopped at the kept one by
    then: the first countermodel is the one the unfiltered search finds."""
    b = b or Bounds()
    if free_vars(conjecture):
        raise EvalError("conjecture must be closed")
    conjecture_n = primitive_form(conjecture, _expansion_error)
    holds = compile_mask(conjecture_n)
    if not premises and _propositional(sig, conjecture_n):
        return _packed_countermodel(holds, sig, b, relvar_domain)
    if table is None:
        table = LeafTable(premises, relvar_domain)
    # the leaves evaluate the conjecture, so a relation quantifier in it
    # needs the relation space as one in a premise does: past the limit,
    # the node list raises before any node is searched
    read = (*table.premises_n, conjecture_n)
    nodes = list(_size_nodes(sig, b, read))
    if not any(isinstance(n, Actually) for f in read for n in subnodes(f)):
        nodes = _one_frame_per_class(nodes)

    def leaf_ok(m):
        return holds(m, {}) != m.all_worlds

    model, _ = _run_search(premises, sig, b, leaf_ok, relvar_domain, table,
                           nodes)
    return model


_CONNECTIVES = (Not, Implies, Box, Actually)


def _propositional(sig: Signature, f: Formula) -> bool:
    """Whether sig is classical with proposition constants only, and f is
    built from them by Not, Implies, Box and Actually: the fragment a
    ColumnSpace evaluates."""
    if sig.mode is not Mode.CLASSICAL or any(
            s != PROPOSITION for s in sig.consts.values()):
        return False
    for n in subnodes(f):
        if isinstance(n, Exemplify):
            if n.args or not isinstance(n.rel, Const) \
                    or n.rel.name not in sig.consts:
                return False
        elif not isinstance(n, (Const,) + _CONNECTIVES):
            return False
    return True


def _packed_countermodel(holds, sig: Signature, b: Bounds,
                         relvar_domain: str):
    """The first countermodel of the tree search without premises, for a
    conjecture in the ColumnSpace fragment: one compile_mask call per world
    count.

    The columns are every frame of the class with its valuations, in the
    search's leaf order (frames in frames_for's order, then the constants
    sorted by name, the first outermost), so the lowest bit where the
    conjecture fails is the first failing leaf. Only one individual is
    tried: nothing reads individuals, so the nodes with more repeat the same
    interpretations.
    """
    _check_budget(sig, b)
    names = sorted(sig.consts)
    for n in range(1, b.max_worlds + 1):
        space = ColumnSpace.product(n, frames_for(sig.logic, n), names,
                                    range(1 << n))
        fails = space.all_worlds ^ holds(space, {})
        if fails:
            R, leaf = space.column(lowest_bit(fails) // n)
            relspace = full_relspace(1, n) if n <= RELSPACE_LIMIT else ()
            return KripkeInterpretation(
                sig, n, 1, R, dict(zip(names, leaf)), relspace,
                relvar_domain=relvar_domain)
    return None


def minimize_premises(premises, conjecture: Formula, sig: Signature,
                      b: Bounds | None = None,
                      relvar_domain: str = "full") -> list:
    """All subset-minimal premise subsets that still rule out a bounded
    countermodel, as tuples of 0-based indices, in (size, lex) order."""
    b = b or Bounds()
    premises = tuple(premises)
    if find_countermodel(premises, conjecture, sig, b,
                         relvar_domain=relvar_domain) is not None:
        raise ValueError("the conjecture fails from the full premise set")
    n = len(premises)
    sufficient: list = []
    cache: dict = {}

    def holds(subset) -> bool:
        if subset not in cache:
            cache[subset] = find_countermodel(
                [premises[i] for i in subset], conjecture, sig, b,
                relvar_domain=relvar_domain) is None
        return cache[subset]

    for size in range(0, n + 1):
        for subset in itertools.combinations(range(n), size):
            if any(set(s) <= set(subset) for s in sufficient):
                continue
            if holds(subset):
                sufficient.append(subset)
    return sufficient


def frame_requirements(premises, conjecture: Formula, sig: Signature,
                       logics, b: Bounds | None = None,
                       relvar_domain: str = "full",
                       table: LeafTable | None = None) -> dict:
    """Per-logic verdict: (True, None) when no bounded countermodel exists,
    else (False, countermodel).

    The searches share table, or one LeafTable built here, so a node that
    several frame classes reach (every S5 frame is a KB frame, and every
    KB frame a K frame) is searched once. Each class still walks its own
    frames in order, so its first countermodel is the one a search of its
    own finds. When nothing reads the actual world, each class searches
    one frame per isomorphism class, the first in its order (see
    find_countermodel): a later isomorphic frame has a countermodel only
    if the first has, and the search stops there, so the first
    countermodel is unchanged."""
    b = b or Bounds()
    if table is None:
        table = LeafTable(premises, relvar_domain)
    out = {}
    for tag in logics:
        cm = find_countermodel(premises, conjecture, sig.with_logic(tag), b,
                               relvar_domain=relvar_domain, table=table)
        out[tag] = (cm is None, cm)
    return out
