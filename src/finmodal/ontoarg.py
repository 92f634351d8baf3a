"""The ontological-argument corpus: premise sets for the four variants,
essence and rigidity machinery, ultrafilter analysis, and the per-variant
verification suite. A variant's signature, premises, quantifier reading and
bounds come from `problems/<name>.problem`; its main theorem, the collapse
formula and its notes are kept here.

The unemended and emended premise sets share the entailment-closure and
necessity axioms; they differ in the polarity axiom (exclusive, biconditional,
or one direction only) and in which essence notion feeds necessary existence.
The rigid variant keeps the emended premises and restricts relation
quantifiers to world-constant properties, reading positivity extensionally.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path

from .abstraction import Accepted
from .formulas import INDIVIDUAL, REL1, Formula, MacroFormula, Var
from .kripke import (
    KripkeInterpretation, compile_world, evaluate, is_rigid_value,
    total_access,
)
from .macros import expand_derived
from .modelfind import (
    Bounds, LeafTable, SatResult, decide_sat, find_countermodel,
    frame_requirements, leaves,
)
from .parser import parse_formula
from .printer import print_formula
from .problemfile import load_problem
from .proofs import goedel_refutation
from .reportfmt import relvalue_str, render_model
from .signature import LogicTag, Signature

VARIANT_NAMES = ("goedel", "scott", "anderson", "fitting")
PROBLEMS_DIR = Path(__file__).resolve().parents[2] / "problems"


class EssenceKind(enum.Enum):
    GOEDEL = "ess_g"
    SCOTT = "ess_s"
    ANDERSON_STAR = "ess_a"


@dataclass(frozen=True)
class PremiseSet:
    name: str
    sig: Signature
    premises: tuple  # ((label, Formula), ...)
    main_theorem: Formula
    collapse: Formula
    bounds: Bounds
    relvar_domain: str = "full"
    notes: tuple = ()

    def formulas(self) -> tuple:
        return tuple(f for _, f in self.premises)


_VARIANT_MAIN = {
    "goedel": "[] exists x (G x)",
    "scott": "[] exists x (G x)",
    "anderson": "[] exists x (G* x)",
    "fitting": "[] exists x (G x)",
}

_VARIANT_NOTES = {
    "fitting": ("composition: the emended premises with relation quantifiers "
                "restricted to rigid properties and positivity read on "
                "rigidified extensions",),
}


def variant(name: str) -> PremiseSet:
    """The variant's premise set, read from `problems/<name>.problem`."""
    if name not in VARIANT_NAMES:
        raise ValueError(f"unknown variant {name!r}")
    problem = load_problem(str(PROBLEMS_DIR / f"{name}.problem"))
    sig = problem.sig
    premises = tuple((f"A{i}", f)
                     for i, f in enumerate(problem.premises, start=1))
    return PremiseSet(name, sig, premises,
                      parse_formula(_VARIANT_MAIN[name], sig),
                      parse_formula("q -> []q", sig), problem.bounds,
                      problem.relvar_domain, _VARIANT_NOTES.get(name, ()))


# ---------------------------------------------------------------------------
# Essence and rigidity

def essence_holds(kind: EssenceKind, rel_value: int, individual: int,
                  m: KripkeInterpretation, w: int) -> bool:
    y = Var("Y", REL1)
    x = Var("x", INDIVIDUAL)
    f = expand_derived(MacroFormula(kind.value, (y, x)))
    return evaluate(f, m, {"Y": rel_value, "x": individual}, w)


# ---------------------------------------------------------------------------
# Ultrafilter analysis

@dataclass(frozen=True)
class UltrafilterReport:
    selector: str           # 'P' | 'Pprime'
    carrier: str
    family: tuple           # sorted lattice elements in the family
    lattice: tuple          # the carrier lattice elements
    proper: bool
    upward_closed: bool
    meet_closed: bool
    maximal: bool
    witnesses: dict = field(default_factory=dict)

    @property
    def is_ultrafilter(self) -> bool:
        return self.proper and self.upward_closed and self.meet_closed and self.maximal


def _check_family(selector: str, carrier: str, family, lattice, top) -> UltrafilterReport:
    fam = set(family)
    lat = list(lattice)
    proper = 0 not in fam
    upward, meet, maximal = True, True, True
    witnesses = {}
    for a in sorted(fam):
        for b in lat:
            if (a & ~b & top) == 0 and b not in fam:
                upward = False
                witnesses.setdefault("upward", (a, b))
        for b in sorted(fam):
            if (a & b) not in fam:
                meet = False
                witnesses.setdefault("meet", (a, b))
    for b in lat:
        if b not in fam and (top ^ b) not in fam:
            maximal = False
            witnesses.setdefault("maximal", b)
    if not proper:
        witnesses.setdefault("proper", 0)
    return UltrafilterReport(selector, carrier, tuple(sorted(fam)),
                             tuple(sorted(lat)), proper, upward, meet,
                             maximal, witnesses)


def _rigidify(value: int, m: KripkeInterpretation) -> int:
    """The rigid property with the value's extension at the actual world."""
    out = 0
    wmask = (1 << m.n_worlds) - 1
    for d in range(m.n_individuals):
        if (value >> (d * m.n_worlds + m.actual)) & 1:
            out |= wmask << (d * m.n_worlds)
    return out


def ultrafilter_report(m: KripkeInterpretation, selector: str) -> UltrafilterReport:
    """Positivity as a family: 'P' on the full intensional lattice at the
    actual world, 'Pprime' as the rigidified extensions of the positive
    properties on the rigid lattice."""
    table = m.denot.get("P")
    if table is None:
        raise ValueError("the model does not interpret the positivity constant")
    positives = [v for v in m.relspace if (table.get(v, 0) >> m.actual) & 1]
    top = (1 << (m.n_individuals * m.n_worlds)) - 1
    if selector == "P":
        return _check_family("P", "intensional properties", positives,
                             m.relspace, top)
    if selector == "Pprime":
        lattice = m.rigid_relations
        if m.relvar_domain == "rigid":
            positives = [v for v in positives if v in lattice]
        family = {_rigidify(v, m) for v in positives}
        return _check_family("Pprime", "rigid properties", family, lattice, top)
    raise ValueError(f"unknown selector {selector!r}")


# ---------------------------------------------------------------------------
# The per-variant suite

@dataclass
class VariantReport:
    name: str
    bounds: Bounds
    sat: SatResult
    frame_verdicts: dict            # LogicTag -> (holds, countermodel|None)
    collapse_countermodel: object   # model | None
    ultrafilters: dict              # selector -> UltrafilterReport
    analysis_model: object          # model the ultrafilters were computed on
    world_constant_models: object = None   # (checked_count, all_world_constant)
    refutation: object = None       # Accepted/Rejected for the unemended set
    vagueness_witness: object = None
    godlike_extension_ok: object = None
    notes: tuple = ()

    def to_text(self) -> str:
        out = [f"variant: {self.name}"]
        for n in self.notes:
            out.append(f"note: {n}")
        out.append(f"bounds: worlds<={self.bounds.max_worlds} "
                   f"individuals<={self.bounds.max_individuals}")
        if self.sat.is_sat:
            out.append(f"consistency: satisfiable "
                       f"(first model after {self.sat.examined} candidates)")
            out.append(render_model(self.sat.model, "  "))
        else:
            out.append(f"consistency: no model up to bounds "
                       f"({self.sat.examined} interpretations examined)")
        vacuous = " (vacuously: no premise models)" if not self.sat.is_sat else ""
        for tag in (LogicTag.K, LogicTag.KB, LogicTag.S5TOTAL):
            if tag in self.frame_verdicts:
                holds, cm = self.frame_verdicts[tag]
                verdict = ("holds" + vacuous) if holds else "countermodel"
                out.append(f"main theorem under {tag.value}: {verdict}")
        if self.collapse_countermodel is None:
            out.append("modal collapse: holds at bounds (no countermodel for "
                       "q -> []q)")
        else:
            m = self.collapse_countermodel
            out.append(f"modal collapse: countermodel with {m.n_worlds} worlds")
            out.append(render_model(m, "  "))
        if self.world_constant_models is not None:
            n, ok = self.world_constant_models
            out.append(f"world-indistinguishable models: {n} checked, "
                       f"{'all world-constant' if ok else 'NOT all world-constant'}")
        if self.analysis_model is not None:
            out.append("positivity analysis (at the actual world of the model "
                       "shown for the collapse status):")
            for sel in sorted(self.ultrafilters):
                r = self.ultrafilters[sel]
                out.append(f"  {sel} on {r.carrier}: "
                           f"proper={_yn(r.proper)} upward={_yn(r.upward_closed)} "
                           f"meet={_yn(r.meet_closed)} maximal={_yn(r.maximal)} "
                           f"ultrafilter={_yn(r.is_ultrafilter)}")
                fam = ", ".join(
                    relvalue_str(v, self.analysis_model.n_individuals,
                                 self.analysis_model.n_worlds)
                    for v in r.family)
                out.append(f"    family: [{fam}]")
        if self.refutation is not None:
            if isinstance(self.refutation, Accepted):
                out.append("refutation script: accepted, conclusion "
                           + print_formula(self.refutation.conclusion))
            else:
                out.append(f"refutation script: rejected ({self.refutation})")
        if self.vagueness_witness is not None:
            m = self.vagueness_witness
            out.append("distinct godlike witnesses: model with a listed "
                       "2-element relation space")
            out.append(render_model(m, "  "))
        if self.godlike_extension_ok is not None:
            out.append("godlike extension matches the intersection of the "
                       f"positive rigid properties: {_yn(self.godlike_extension_ok)}")
        return "\n".join(out) + "\n"


def _yn(b: bool) -> str:
    return "yes" if b else "no"


def _all_world_constant(m: KripkeInterpretation) -> bool:
    full = (1 << m.n_worlds) - 1
    for name, value in m.denot.items():
        sort = m.sig.consts[name]
        if sort.kind == "so" or (sort.kind == "rel" and sort.arity >= 2):
            if any(v not in (0, full) for v in value.values()):
                return False
        elif sort.kind == "rel" and sort.arity == 1:
            if not is_rigid_value(value, m.n_individuals, m.n_worlds):
                return False
        elif sort.kind == "rel":
            if value not in (0, full):
                return False
    return True


def _satisfying_models(ps: PremiseSet, b: Bounds,
                       table: LeafTable | None = None) -> list:
    """Every premise model within bounds, canonical order, read through
    table when given."""
    return [m for m, ok in leaves(ps.formulas(), ps.sig, b,
                                  ps.relvar_domain, table=table) if ok]


def find_vagueness_witness(b: Bounds | None = None):
    """A bounded model of the one-directional variant with two distinct
    godlike individuals, searched over a listed two-element relation space
    (the full space separates any two individuals by a rigid property)."""
    ps = variant("anderson")
    b = b or ps.bounds
    gx = compile_world(expand_derived(parse_formula("G* x", ps.sig)))
    nodes = [(n_w, 2, total_access(n_w), (0, (1 << (2 * n_w)) - 1))
             for n_w in range(1, b.max_worlds + 1)]
    for m, ok in leaves(ps.formulas(), ps.sig, b, nodes=nodes):
        if ok and sum(1 for d in range(m.n_individuals)
                      if gx(m, {"x": d}, m.actual)) >= 2:
            return m
    return None


def run_variant_suite(name: str, bounds: Bounds | None = None,
                      workers: int = 1) -> VariantReport:
    """The variant's report: consistency, the main theorem under K, KB and
    S5, modal collapse, and the variant's own checks.

    Every search over the variant's premises reads one LeafTable, so each
    search node is searched once per suite, and the table is dropped when
    the suite returns. Each search keeps its own frame order and leaf
    test, so its verdict, first model and examined count are those of a
    search of its own. workers is ignored, as search runs in one thread;
    it stays so that criterion 12 can still compare worker counts."""
    ps = variant(name)
    b = bounds or ps.bounds
    premises = ps.formulas()
    table = LeafTable(premises, ps.relvar_domain)
    sat = decide_sat(premises, ps.sig, b, relvar_domain=ps.relvar_domain,
                     table=table)
    frame_verdicts = frame_requirements(
        premises, ps.main_theorem, ps.sig,
        (LogicTag.K, LogicTag.KB, LogicTag.S5TOTAL), b, ps.relvar_domain,
        table)
    collapse_cm = find_countermodel(premises, ps.collapse, ps.sig, b,
                                    relvar_domain=ps.relvar_domain,
                                    table=table)
    analysis_model = collapse_cm if collapse_cm is not None else sat.model
    ultrafilters = {}
    if analysis_model is not None:
        if name != "fitting":
            ultrafilters["P"] = ultrafilter_report(analysis_model, "P")
        ultrafilters["Pprime"] = ultrafilter_report(analysis_model, "Pprime")

    report = VariantReport(name, b, sat, frame_verdicts, collapse_cm,
                           ultrafilters, analysis_model, notes=ps.notes)
    if name == "scott":
        models = _satisfying_models(ps, b, table)
        report.world_constant_models = (
            len(models), all(_all_world_constant(m) for m in models))
    if name == "goedel":
        report.refutation = goedel_refutation(premises).state.verdict()
    if name == "anderson":
        report.vagueness_witness = find_vagueness_witness()
    if name == "fitting" and analysis_model is not None:
        report.godlike_extension_ok = _godlike_extension_matches(
            analysis_model, ps)
    return report


def _godlike_extension_matches(m: KripkeInterpretation, ps: PremiseSet) -> bool:
    """The godlike extension equals the set of individuals in every member
    of the rigidified positivity family."""
    gx = compile_world(expand_derived(parse_formula("G x", ps.sig)))
    pprime = ultrafilter_report(m, "Pprime").family
    for d in range(m.n_individuals):
        in_all = all((s >> (d * m.n_worlds + m.actual)) & 1 for s in pprime)
        if gx(m, {"x": d}, m.actual) != in_all:
            return False
    return True
