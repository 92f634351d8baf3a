"""The abstraction layer: axiom schemas, inference rules, a proof-script
checker that never consults the semantics, and a harness validating the
layer against the semantics.

The propositional base is Mendelson's three axioms for -> and ~; the
quantifier schemas are instantiation, distribution, and vacuous
generalization, with universal generalization as a rule. Inside a
deduction block, necessitation and generalization may only cite lines
that do not depend on an open hypothesis (generalization additionally
just needs its variable absent from the open hypotheses it depends on).

A proof step is one record, `Step(rule, args)`, and `RULES` gives each
rule's arguments in the order a proof file writes them; the file parser
and renderer in `problemfile` read the same table.

Every proof line is kept in beta normal form. Nodes store their
normal-form flag (see `formulas`), so a line that modus ponens,
necessitation or a closed deduction block builds from the lines it cites
is normalized in constant time. Modus ponens compares the cited
antecedent with the implication's by `alpha_equivalent`, which answers
most pairs by identity or equality and builds canonical keys only for
a pair that is not equal as written.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .formulas import (
    INDIVIDUAL, PROPOSITION, REL1, SortError,
    Actually, Box, Const, Exemplify, Forall, Formula, Implies, MacroFormula,
    Not, PrimitiveEq, Term, Var,
    alpha_equivalent, beta_normalize, binder_vars, children,
    free_names, free_vars, rebuild,
    sort_of, substitute,
)
from .kripke import (
    ColumnSpace, compile_mask, compile_masks, frames_for, lowest_bit,
    product_words, total_access,
)
from .macros import expand_derived
from .modelfind import Bounds, _check_budget, count_models
from .signature import LogicTag, Mode, Signature


# ---------------------------------------------------------------------------
# Schemas

@dataclass(frozen=True)
class Schema:
    name: str
    kind: str  # 'template' | 'inst' | 'dist' | 'vac' | 'eq_refl' | 'eq_sub'
    template: Formula | None = None
    metavars: tuple = ()  # names a substitution must give (see _metavars)


class SchemaError(Exception):
    pass


def _mv(name: str) -> Formula:
    return Exemplify(Var(name, PROPOSITION), ())


def _template_schemas() -> dict:
    p, q, r = _mv("p"), _mv("q"), _mv("r")
    return {
        "pl1": Schema("pl1", "template", Implies(p, Implies(q, p)), ("p", "q")),
        "pl2": Schema(
            "pl2", "template",
            Implies(Implies(p, Implies(q, r)),
                    Implies(Implies(p, q), Implies(p, r))),
            ("p", "q", "r")),
        "pl3": Schema(
            "pl3", "template",
            Implies(Implies(Not(q), Not(p)), Implies(Implies(Not(q), p), q)),
            ("p", "q")),
        "ax_K": Schema(
            "ax_K", "template",
            Implies(Box(Implies(p, q)), Implies(Box(p), Box(q))), ("p", "q")),
        "ax_T": Schema("ax_T", "template", Implies(Box(p), p), ("p",)),
        "ax_B": Schema(
            "ax_B", "template", Implies(p, Box(Not(Box(Not(p))))), ("p",)),
        "ax_5": Schema(
            "ax_5", "template",
            Implies(Not(Box(Not(p))), Box(Not(Box(Not(p))))), ("p",)),
    }


_BUILTINS = {
    "inst": Schema("inst", "inst", None, ("alpha", "phi", "tau")),
    "dist": Schema("dist", "dist", None, ("alpha", "phi", "psi")),
    "vac": Schema("vac", "vac", None, ("alpha", "phi")),
    "eq_refl": Schema("eq_refl", "eq_refl", None, ("tau",)),
    "eq_sub": Schema("eq_sub", "eq_sub", None, ("alpha", "beta", "phi", "psi")),
}


def instantiate_template(template: Formula, mapping: dict) -> Formula:
    """Splice metavariable values into a template (capturing on purpose:
    schema instances are syntactic). Every template is propositional: each
    0-place atom on a metavariable becomes that metavariable's value,
    which must be a formula. Each value is beta-normalized; when the
    template is normal too, splicing makes no redex, so each rebuilt node
    is flagged normal and the proof line is the instance itself."""
    normal = beta_normalize(template) is template

    def go(x):
        if isinstance(x, Exemplify) and isinstance(x.rel, Var) \
                and x.rel.name in mapping:
            value = mapping[x.rel.name]
            if not isinstance(value, Formula):
                raise SchemaError(
                    f"metavariable {x.rel.name} needs a formula value")
            return beta_normalize(value)
        kids = children(x)
        if not kids:
            return x
        y = rebuild(x, tuple(map(go, kids)))
        if normal:
            object.__setattr__(y, "_normal", True)
        return y

    return go(template)


def _replaces_some(phi: Formula, psi: Formula, a: Term, b: Term) -> bool:
    """psi results from phi by replacing zero or more free occurrences of a
    with b (binder names must coincide)."""
    a_names = free_names(a)

    def go(x, y, shadowed) -> bool:
        if alpha_equivalent(x, y):
            return True
        if isinstance(x, Term) and isinstance(y, Term):
            if alpha_equivalent(x, a) and alpha_equivalent(y, b) \
                    and not (a_names & shadowed):
                return True
        if type(x) is not type(y):
            return False
        bx, by = binder_vars(x), binder_vars(y)
        if tuple(v.name for v in bx) != tuple(v.name for v in by):
            return False
        inner = shadowed | {v.name for v in bx}
        cx, cy = children(x), children(y)
        if len(cx) != len(cy):
            return False
        if isinstance(x, (MacroFormula,)) and x.name != y.name:
            return False
        return all(go(c, d, inner) for c, d in zip(cx, cy))

    return go(phi, psi, frozenset())


def _metavars(s: Schema) -> tuple:
    """The names a substitution for s must give: those s names, else a
    template's free proposition variables, sorted, else its builtin
    kind's."""
    if s.metavars:
        return s.metavars
    if s.kind == "template":
        return tuple(sorted(v.name for v in free_vars(s.template)
                            if v.sort == PROPOSITION))
    builtin = _BUILTINS.get(s.kind)
    return builtin.metavars if builtin else ()


def schema_instance(s: Schema, subst: dict, mode: Mode = Mode.CLASSICAL) -> Formula:
    """Compute the instance of s under the given substitution, which must
    give every metavariable of s (see _metavars)."""
    missing = [n for n in _metavars(s) if n not in subst]
    if missing:
        raise SchemaError(f"missing metavariables {missing}")
    if s.kind == "template":
        return instantiate_template(s.template, subst)
    if s.kind == "inst":
        alpha, phi, tau = subst["alpha"], subst["phi"], subst["tau"]
        if not isinstance(alpha, Var):
            raise SchemaError("alpha must be a variable")
        return Implies(Forall(alpha, phi), substitute(phi, alpha, tau))
    if s.kind == "dist":
        alpha, phi, psi = subst["alpha"], subst["phi"], subst["psi"]
        if not isinstance(alpha, Var):
            raise SchemaError("alpha must be a variable")
        return Implies(
            Forall(alpha, Implies(phi, psi)),
            Implies(Forall(alpha, phi), Forall(alpha, psi)))
    if s.kind == "vac":
        alpha, phi = subst["alpha"], subst["phi"]
        if not isinstance(alpha, Var):
            raise SchemaError("alpha must be a variable")
        if alpha.name in free_names(phi):
            raise SchemaError("vacuous generalization needs the variable absent")
        return Implies(phi, Forall(alpha, phi))
    if s.kind == "eq_refl":
        tau = subst["tau"]
        if mode is Mode.AOT:
            raise SchemaError("reflexivity is not an AOT axiom (existence needed)")
        return PrimitiveEq(tau, tau)
    if s.kind == "eq_sub":
        alpha, beta, phi, psi = (subst["alpha"], subst["beta"],
                                 subst["phi"], subst["psi"])
        if sort_of(alpha) != sort_of(beta):
            raise SchemaError("equality between different sorts")
        if not _replaces_some(phi, psi, alpha, beta):
            raise SchemaError("psi is not phi with occurrences of alpha replaced")
        eq = (MacroFormula("id", (alpha, beta)) if mode is Mode.AOT
              else PrimitiveEq(alpha, beta))
        return Implies(eq, Implies(phi, psi))
    raise SchemaError(f"unknown schema kind {s.kind}")


# ---------------------------------------------------------------------------
# Layers

@dataclass(frozen=True)
class Layer:
    name: str
    logic: LogicTag
    mode: Mode
    schemas: dict


LAYER_NAMES = ("K", "KB", "S5", "AOT")


def make_layer(name: str) -> Layer:
    base = _template_schemas()
    common = {k: base[k] for k in ("pl1", "pl2", "pl3", "ax_K")}
    common.update({k: _BUILTINS[k] for k in ("inst", "dist", "vac")})
    if name == "K":
        return Layer("K", LogicTag.K, Mode.CLASSICAL,
                     {**common, "eq_refl": _BUILTINS["eq_refl"]})
    if name == "KB":
        return Layer("KB", LogicTag.KB, Mode.CLASSICAL,
                     {**common, "ax_B": base["ax_B"],
                      "eq_refl": _BUILTINS["eq_refl"]})
    if name == "S5":
        return Layer("S5", LogicTag.S5TOTAL, Mode.CLASSICAL,
                     {**common, "ax_T": base["ax_T"], "ax_5": base["ax_5"],
                      "eq_refl": _BUILTINS["eq_refl"]})
    if name == "AOT":
        return Layer("AOT", LogicTag.S5TOTAL, Mode.AOT,
                     {**common, "ax_T": base["ax_T"], "ax_5": base["ax_5"],
                      "eq_sub": _BUILTINS["eq_sub"]})
    raise ValueError(f"unknown layer {name!r}")


# ---------------------------------------------------------------------------
# Proof scripts

class Step(NamedTuple):
    """One proof step: a rule of RULES and its arguments in the order of
    the rule's form there."""
    rule: str
    args: tuple


# Each rule's arguments, as a proof file writes them after the rule's name.
# The slots in CITATIONS cite lines: 0-based in a Step, 1-based in a file.
# <k> numbers a premise from 1 in both. ax's substitution is written
# {name: value, ...}, and is a dict from metavariable names in a Step.
RULES = {"ax": ("<schema>", "{...}"), "premise": ("<k>",),
         "mp": ("<i>", "<j>"), "nec": ("<i>",), "gen": ("<i>", "<variable>"),
         "expand": ("<i>",), "hyp": ("<formula>",), "qed": ("<i>",)}
CITATIONS = ("<i>", "<j>")


@dataclass(frozen=True)
class ProofScript:
    steps: tuple


@dataclass(frozen=True)
class Accepted:
    conclusion: Formula


@dataclass(frozen=True)
class Rejected:
    step: int  # 0-based failing step
    reason: str


@dataclass
class _Line:
    formula: Formula
    hyp_deps: frozenset
    path: tuple  # open hypothesis line indices at creation


class ProofStepError(Exception):
    pass


class ProofState:
    """Step-by-step proof checking; shared by check_proof and ScriptBuilder."""

    def __init__(self, layer: Layer, premises=()):
        for p in premises:
            if free_vars(p):
                raise ProofStepError("premises must be closed")
        self.layer = layer
        self.premises = tuple(premises)
        self.lines: list = []
        self.path: tuple = ()

    def formula(self, idx: int) -> Formula:
        return self.lines[idx].formula

    def _visible(self, idx: int) -> bool:
        return (0 <= idx < len(self.lines)
                and self.lines[idx].path == self.path[:len(self.lines[idx].path)])

    def _open_hyp_deps(self, deps: frozenset) -> frozenset:
        return deps & set(self.path)

    def apply(self, step) -> int:
        """Apply one step; return the new line index or raise ProofStepError."""
        if not (isinstance(step, Step) and step.rule in RULES):
            raise ProofStepError(f"unknown step {step!r}")
        lines, layer = self.lines, self.layer
        rule, args = step
        try:
            if rule == "ax":
                name, subst = args
                s = layer.schemas.get(name)
                if s is None:
                    raise ProofStepError(f"schema-not-in-layer: {name}")
                f = schema_instance(s, subst, layer.mode)
                deps = frozenset()
            elif rule == "premise":
                (k,) = args
                if not (1 <= k <= len(self.premises)):
                    raise ProofStepError(f"no premise {k}")
                f = self.premises[k - 1]
                deps = frozenset()
            elif rule == "hyp":
                (f,) = args
                self.path = self.path + (len(lines),)
                deps = frozenset({len(lines)})
            else:  # a rule whose first argument cites a line
                if rule == "qed" and not self.path:
                    raise ProofStepError("qed outside a deduction block")
                if not (self._visible(args[0]) and (
                        rule != "mp" or self._visible(args[1]))):
                    raise ProofStepError(f"{rule} cites an unavailable line")
                src = lines[args[0]]
                deps = src.hyp_deps
                if rule == "mp":
                    impl = lines[args[1]]
                    g = impl.formula
                    if not isinstance(g, Implies) \
                            or not alpha_equivalent(g.left, src.formula):
                        raise ProofStepError("mp-mismatch")
                    f = g.right
                    deps = deps | impl.hyp_deps
                elif rule == "nec":
                    if self._open_hyp_deps(deps):
                        raise ProofStepError(
                            "nec-inside-deduction: line depends on an open hypothesis")
                    f = Box(src.formula)
                elif rule == "gen":
                    var = args[1]
                    for h in self._open_hyp_deps(deps):
                        if var.name in free_names(lines[h].formula):
                            raise ProofStepError("gen-variable free in an open hypothesis")
                    f = Forall(var, src.formula)
                elif rule == "expand":
                    f = expand_derived(src.formula)
                else:  # qed
                    hyp_idx = self.path[-1]
                    hyp = lines[hyp_idx]
                    f = Implies(hyp.formula, src.formula)
                    self.path = self.path[:-1]
                    deps = (deps | hyp.hyp_deps) - {hyp_idx}
        except (SchemaError, SortError, KeyError) as e:
            raise ProofStepError(f"{type(e).__name__}: {e}")
        lines.append(_Line(beta_normalize(f), deps, self.path))
        return len(lines) - 1

    def verdict(self):
        """The verdict on the steps applied so far: the last line, once
        every deduction block is closed."""
        if self.path:
            return Rejected(len(self.lines) - 1, "unclosed deduction block")
        if not self.lines:
            return Rejected(0, "empty script")
        return Accepted(self.lines[-1].formula)


def check_proof(script: ProofScript, layer: Layer, premises=()):
    """Check a proof script against a layer. Purely syntactic."""
    try:
        state = ProofState(layer, premises)
    except ProofStepError as e:
        return Rejected(0, str(e))
    for n, step in enumerate(script.steps):
        try:
            state.apply(step)
        except ProofStepError as e:
            return Rejected(n, str(e))
    return state.verdict()


# ---------------------------------------------------------------------------
# Layer validation against the semantics

@dataclass
class SchemaFinding:
    schema: str
    instances: int
    counterexample: object = None  # (witnesses, model description, world)


@dataclass
class SoundnessReport:
    layer: str
    n_models: int
    schema_findings: list

    @property
    def ok(self) -> bool:
        return all(f.counterexample is None for f in self.schema_findings)

    def to_text(self) -> str:
        lines = [f"layer {self.layer}: {self.n_models} models"]
        for f in sorted(self.schema_findings, key=lambda x: x.schema):
            status = "ok" if f.counterexample is None else f"FAILS {f.counterexample}"
            lines.append(f"  schema {f.schema}: {f.instances} instances {status}")
        return "\n".join(lines)


def _realized_vectors(unary: dict, atom_values: dict, depth: int) -> dict:
    """World-vector closure of the atoms' vectors under the connectives, to
    the given depth, on the frame of one of `_unary_tables`' tables. Each
    vector maps, in the order found, to the recipe of the first formula
    found for it: (name,) for an atom, (Not, v), (Box, v), (Actually, v)
    or (Implies, v1, v2), which `_witness` turns into that formula. It
    stops early once every vector is realized."""
    neg = unary[Not]
    vecs = {}
    for a, v in atom_values.items():
        vecs.setdefault(v, (a,))
    frontier = list(vecs)
    for _ in range(depth):
        new = []
        items = list(vecs)
        for v in frontier:
            for op, table in unary.items():
                nv = table[v]
                if nv not in vecs:
                    vecs[nv] = (op, v)
                    new.append(nv)
        for v1 in items:
            for v2 in items:
                nv = neg[v1] | v2
                if nv not in vecs:
                    vecs[nv] = (Implies, v1, v2)
                    new.append(nv)
        frontier = new
        if not new or len(vecs) == len(neg):
            break
    return vecs


def _unary_tables(n_worlds: int, frames: tuple) -> list:
    """Per frame, per connective ~, Box and Actually, its value on every
    world vector, by vector. One space holds every frame as a one-column
    block, so each Box is one call whatever the number of frames."""
    space = ColumnSpace(n_worlds, frames, len(frames), {})
    vs = range(1 << n_worlds)
    mask = (1 << n_worlds) - 1
    neg = tuple(mask ^ v for v in vs)
    actually = tuple(space.actually(v) & mask for v in vs)
    boxes = [space.box(v * space.slots[0]) for v in vs]
    return [{Not: neg,
             Box: tuple(space.block(x, i) for x in boxes),
             Actually: actually}
            for i in range(len(frames))]


def _witness(vecs: dict, v: int) -> Formula:
    """The formula that vector v's recipe in vecs describes."""
    op, *args = vecs[v]
    if isinstance(op, str):
        return Exemplify(Const(op, PROPOSITION), ())
    return op(*(_witness(vecs, u) for u in args))


def validate_layer(layer: Layer, max_worlds: int = 3, atoms=("p", "q"),
                   generator_depth: int = 3) -> SoundnessReport:
    """Every template schema over every model of the layer's frame class,
    its metavariables ranging over the world vectors the atoms generate
    there; the builtin schemas over a small first-order setup.

    A template's truth on a model depends only on the world count, the
    frame, the actual world and the set of realized vectors, not on which
    atom holds which vector; and that set depends only on the frame and
    the set of the atoms' values. So the closure is worked out once per
    (frame, atoms' values), and each template is checked once per world
    count: one call on a ColumnSpace whose blocks are the frames and whose
    columns are every tuple of all world vectors for its metavariables,
    first outermost. Every model's outcome is read from that fail mask,
    once per (frame, realized set): its first failing tuple is the lowest
    failing column of its frame's block whose entries are all realized
    (see _first_failing_tuple). Each model adds its instance count, in
    model order, and the first failing model's witnesses are rebuilt from
    its own closure. Every builtin instance is one compile_masks program
    (see _validate_builtins).

    Raises ValueError, before any work, for max_worlds < 1 or a repeated
    atom name, and SearchBoundsError past MODEL_BUDGET models."""
    if max_worlds < 1:
        raise ValueError(f"max_worlds must be at least 1, not {max_worlds}")
    if len(set(atoms)) != len(atoms):
        raise ValueError(f"atoms must be distinct names, not {tuple(atoms)}")
    # the models are every valuation of the atoms on every frame
    sig = Signature(Mode.CLASSICAL, layer.logic,
                    dict.fromkeys(atoms, PROPOSITION))
    bounds = Bounds(max_worlds, 1)
    _check_budget(sig, bounds)
    n_models = count_models(sig, bounds)
    template_schemas = [s for s in layer.schemas.values() if s.kind == "template"]
    builtin_schemas = [s for s in layer.schemas.values() if s.kind != "template"]
    holds = [compile_mask(s.template) for s in template_schemas]
    counts = [0] * len(template_schemas)
    counterexamples = [None] * len(template_schemas)
    for n in range(1, max_worlds + 1):
        unfailed = [i for i, ce in enumerate(counterexamples) if ce is None]
        if not unfailed:
            break
        # the models: per frame, every valuation, the last atom outermost
        frames = frames_for(layer.logic, n)
        denots = [dict(zip(atoms, reversed(v))) for v in
                  itertools.product(range(1 << n), repeat=len(atoms))]
        atom_sets = [frozenset(d.values()) for d in denots]
        # per frame, per valuation, the realized vectors, sorted; the
        # closure is worked out once per set of the atoms' values
        unary = _unary_tables(n, frames)
        realized = []
        for tables in unary:
            closures = {}
            for d, atom_set in zip(denots, atom_sets):
                if atom_set not in closures:
                    closures[atom_set] = tuple(sorted(
                        _realized_vectors(tables, d, generator_depth)))
            realized.append([closures[a] for a in atom_sets])
        spaces = {}  # metavariable count -> space
        for i in unfailed:
            s = template_schemas[i]
            metavars = _metavars(s)
            k = len(metavars)
            if k not in spaces:
                spaces[k] = ColumnSpace.product(n, frames, range(k),
                                                range(1 << n))
            space = spaces[k]
            fails = space.all_worlds ^ holds[i](
                space, dict(zip(metavars, space.denot.values())))
            count, failure = _first_failing_model(space, fails, realized)
            counts[i] += count
            if failure is not None:
                j, model, w, column = failure
                vecs = _realized_vectors(unary[j], denots[model],
                                         generator_depth)
                counterexamples[i] = (
                    tuple(_witness(vecs, v) for v in column),
                    _describe(n, frames[j], denots[model]), w)
    findings = [SchemaFinding(s.name, n, ce) for s, n, ce
                in zip(template_schemas, counts, counterexamples)]
    findings.extend(_validate_builtins(builtin_schemas, layer))
    return SoundnessReport(layer.name, n_models, findings)


def _first_failing_model(space: ColumnSpace, fails: int,
                         realized: list) -> tuple:
    """(count, failure) of one template over one world count's models, in
    validate_layer's order: per frame j, per valuation m, the model whose
    realized vectors, sorted, are realized[j][m]. fails is the template's
    fail mask on space, each frame a block of every tuple of all world
    vectors, first outermost. failure is (j, m, world, tuple) for the
    first failing (model, tuple), or None, and count the instances up to
    and including it, or all of them. A frame whose block has no failing
    column adds all its models' instances; on any other, each realized
    set is read once (see _first_failing_tuple)."""
    count, k = 0, len(space.denot)
    for j, per_model in enumerate(realized):
        block = space.block(fails, j)
        if not block:  # no failing tuple on this frame
            count += sum(len(values) ** k for values in per_model)
            continue
        found = {}  # realized vectors -> (instances, failure)
        for m, values in enumerate(per_model):
            if values not in found:
                found[values] = _first_failing_tuple(space, j, block, values)
            instances, failure = found[values]
            count += instances
            if failure is not None:
                return count, (j, m, *failure)
    return count, None


def _first_failing_tuple(space: ColumnSpace, j: int, block: int,
                         values: tuple) -> tuple:
    """(instances, failure) of a template whose fail mask on block j of
    space is block, over every tuple of the sorted world vectors values:
    failure is (world, tuple) for the first failing tuple, or None, and
    instances its position among the tuples plus 1, or their number.

    A column's truth depends only on its tuple and its frame, and the
    tuples of values come in the same order as among all vectors, so the
    first failing tuple of values is the lowest failing column of the
    block whose entries all lie in values, and its world that column's
    lowest failing bit. inside marks those columns, every world of each,
    and the tuples before the failing one are its columns below it."""
    n, k = space.n_worlds, len(space.denot)
    words, _ = product_words(n, 1, range(k), [
        (1 << n) - 1 if v in values else 0 for v in range(1 << n)])
    inside = (1 << space.per_block * n) - 1
    for word in words.values():
        inside &= word
    hits = block & inside
    if not hits:
        return len(values) ** k, None
    low = lowest_bit(hits)
    c, w = divmod(low, n)
    return ((inside & ((1 << low) - 1)).bit_count() // n + 1,
            (w, space.column(j * space.per_block + c)[1]))


def _describe(n_worlds: int, frame, denot: dict) -> str:
    vals = {k: bin(v) for k, v in sorted(denot.items())}
    return f"|W|={n_worlds} R={sorted(frame)} {vals}"


def _builtin_instances(s: Schema, layer: Layer):
    """The instances _validate_builtins checks for s, or None for one it
    defers."""
    x, y = Var("x", INDIVIDUAL), Var("y", INDIVIDUAL)
    Sx = Exemplify(Const("S", REL1), (x,))
    Sy = Exemplify(Const("S", REL1), (y,))
    p = Exemplify(Const("p", PROPOSITION), ())
    phis = [Sx, Implies(Sx, p), Box(Sx), Forall(y, Implies(Sy, Sx))]
    if s.kind == "inst":
        return [schema_instance(s, {"alpha": x, "phi": phi, "tau": tau})
                for phi in phis for tau in (x, y)]
    if s.kind == "dist":
        return [schema_instance(s, {"alpha": x, "phi": phi, "psi": psi})
                for phi in phis for psi in phis]
    if s.kind == "vac":
        return [schema_instance(s, {"alpha": y, "phi": Sx}),
                schema_instance(s, {"alpha": x, "phi": p})]
    if s.kind == "eq_refl":
        return [schema_instance(s, {"tau": x})]
    if s.kind == "eq_sub":
        if layer.mode is Mode.AOT:
            # defined identity has urelement-model semantics only;
            # the object-theory suite exercises it there
            return None
        return [schema_instance(
            s, {"alpha": x, "beta": y, "phi": Sx, "psi": Sy}, layer.mode)]
    return []


def _builtin_spaces(logic: LogicTag) -> tuple:
    """The test models: per world count, its test frames and, per domain
    size, one ColumnSpace holding each of those frames as a block. Block
    column c is the model (S, p) = divmod(c, 2 ** n_worlds), S's value the
    digits S{n_d-1} ... S0 of its individuals, the last lowest."""
    out = []
    for n_w in (1, 2):
        if logic is LogicTag.S5TOTAL:
            frames = (total_access(n_w),)
        elif n_w == 1:
            frames = (frozenset(), total_access(1))
        else:
            frames = (frozenset(), total_access(2), frozenset({(0, 1)}))
        spaces = []
        for n_d in (1, 2):
            names = [f"S{d}" for d in reversed(range(n_d))] + ["p"]
            words, n_columns = product_words(n_w, len(frames), names,
                                             range(1 << n_w))
            width = n_columns * n_w
            S = sum(words[f"S{d}"] << (d * width) for d in range(n_d))
            spaces.append(ColumnSpace(n_w, frames, n_columns,
                                      {"S": S, "p": words["p"]},
                                      n_individuals=n_d))
        out.append((frames, spaces))
    return tuple(out)


def _validate_builtins(schemas, layer: Layer):
    """Quantifier and equality schemas over every valuation of a unary S and
    a 0-place p on small test frames with one or two individuals.

    All the instances are one compile_masks program, run on one ColumnSpace
    per (world count, domain size) that holds each test frame as a block
    (see _builtin_spaces), so each distinct node is evaluated once per
    (space, assignment). An instance's models are read in (world count,
    frame, domain size) order, block by block, and within each model its
    assignments, the first free variable outermost: the count runs to the
    first failing (model, assignment), which is the lowest failing column
    of the first failing block and then its first failing assignment."""
    out = []
    if not schemas:
        return out
    checked = [(s, _builtin_instances(s, layer)) for s in schemas]
    programs = compile_masks(
        [inst for _, insts in checked if insts for inst in insts])
    spaces = _builtin_spaces(layer.logic)
    first = 0  # the index in programs of s's first instance
    for s, insts in checked:
        if insts is None:
            out.append(SchemaFinding(s.name, 0, None))
            continue
        count = 0
        counterexample = None
        for inst, holds in zip(insts, programs[first:]):
            fv = sorted(free_names(inst))
            fails = {space: [space.all_worlds ^ holds(space, dict(zip(fv, ds)))
                             for ds in itertools.product(
                                 range(space.n_individuals), repeat=len(fv))]
                     for _, row in spaces for space in row}
            n, found = _first_failure(spaces, fails)
            count += n
            if found is not None:
                counterexample = (inst, *found)
                break
        first += len(insts)
        out.append(SchemaFinding(s.name, count, counterexample))
    return out


def _first_failure(spaces: tuple, fails: dict) -> tuple:
    """(count, found) for one instance, whose fail mask per assignment
    fails holds by space: found is (model description, world) for the
    first failing (model, assignment), or None, and count the number of
    (model, assignment) pairs up to and including it, or all of them."""
    if not any(any(fs) for fs in fails.values()):
        return sum(space.n_columns * len(fs)
                   for space, fs in fails.items()), None
    count = 0
    for frames, row in spaces:
        for i, frame in enumerate(frames):
            for space in row:
                n_w = space.n_worlds
                block = [space.block(f, i) for f in fails[space]]
                bad = [(lowest_bit(f) // n_w, j)
                       for j, f in enumerate(block) if f]
                if not bad:
                    count += space.per_block * len(block)
                    continue
                c, j = min(bad)
                model = dict(zip("Sp", divmod(c, 1 << n_w)))
                return (count + c * len(block) + j + 1,
                        (_describe(n_w, frame, model),
                         lowest_bit(block[j]) % n_w))
