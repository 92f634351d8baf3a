"""The four workloads: their seeded inputs, their jobs, and the checks.

`setup(name, seed, root)` returns the job list of one workload. Everything
a CLI call would pay before its verdict happens here: importing finmodal,
reading and parsing the shipped files, building the Aczel models, and
generating the seeded inputs. Each job calls the public functions that the
matching `finmodal` subcommand calls and returns one verdict; its check
compares that verdict with answers that do not come from today's output
and returns None, or the reason the verdict is wrong.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import finmodal.cli  # noqa: F401  (the import every CLI call pays)
from finmodal import kripke
from finmodal.abstraction import (
    Accepted, Rejected, check_proof, make_layer, validate_layer,
)
from finmodal.aot import (
    Denotes, build_aczel, denote, eval_aot, exists_term, minimal_model_report,
    world_theory_report,
)
from finmodal.formulas import (
    Exists, MacroFormula, Var, alpha_equivalent, beta_normalize, sort_of,
)
from finmodal.macros import expand_derived
from finmodal.modelfind import decide_sat, find_countermodel
from finmodal.ontoarg import VARIANT_NAMES, run_variant_suite
from finmodal.parser import parse_formula, parse_term
from finmodal.problemfile import (
    load_aot_config, load_problem, parse_aot_config, parse_problem, parse_proof,
    render_proof,
)
from finmodal.proofs import ScriptBuilder, derive_kdia
from finmodal.signature import LogicTag

import modal


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    known_fault: bool = False   # fails on every pass because of a program fault


def normal(f):
    return beta_normalize(expand_derived(f))


# ---------------------------------------------------------------------------
# The verdict of `finmodal sat`

def sat_verdict(problem):
    """(verdict, model) exactly as `finmodal sat` decides it."""
    if problem.expectation in (None, "sat", "unsat"):
        result = decide_sat(problem.premises, problem.sig, problem.bounds,
                            relvar_domain=problem.relvar_domain)
        return ("sat" if result.is_sat else "unsat"), result.model
    cm = find_countermodel(problem.premises, problem.conjectures[0],
                           problem.sig, problem.bounds,
                           relvar_domain=problem.relvar_domain)
    return ("valid" if cm is None else "countermodel"), cm


def _problem_text(logic: str, atoms, conjecture: str, expect: str) -> str:
    consts = "".join(f"const {a} : prop\n" for a in sorted(atoms))
    return (f"sig classical\nlogic {logic}\n{consts}"
            f"bounds worlds=3 individuals=1\n"
            f"conjecture {conjecture}\nexpect {expect}\n")


# ---------------------------------------------------------------------------
# modal-validity

def _modal_job(name, problem, logic, conj_ast, want):
    def check(out):
        verdict, cm = out
        if verdict != want:
            return f"verdict {verdict}, expected {want}"
        if cm is None:
            return None
        val = {a: cm.denot[a] for a in modal.atoms_of(conj_ast)}
        if not modal.in_frame_class(logic, cm.n_worlds, cm.access):
            return "countermodel frame outside the class"
        if not modal.refutes(conj_ast, cm.n_worlds, cm.access, val):
            return "countermodel does not falsify the conjecture"
        return None
    return Job(name, lambda: sat_verdict(problem), check)


def _layer_job(layer_name, max_worlds, atoms):
    layer = make_layer(layer_name)
    want = modal.model_count(layer_name, max_worlds, len(atoms))

    def check(rep):
        if rep.n_models != want:
            return f"{rep.n_models} models, closed form gives {want}"
        return None if rep.ok else "layer validation found a counterexample"
    return Job(f"validate_layer {layer_name} worlds={max_worlds}",
               lambda: validate_layer(layer, max_worlds=max_worlds, atoms=atoms),
               check)


def setup_modal_validity(rng, root: Path) -> list:
    jobs = []
    kdia_ast = imp_kdia(modal.atom("p"), modal.atom("q"))
    for stem, logic in (("kdia", "K"), ("s5", "S5")):
        problem = load_problem(str(root / "problems" / f"{stem}.problem"))
        jobs.append(_modal_job(f"sat {stem}.problem", problem, logic,
                               kdia_ast, "valid"))
    plain = {"P": modal.atom("p"), "Q": modal.atom("q")}
    for logic in ("K", "KB", "S5"):
        for name, schema in modal.SCHEMAS.items():
            conj = modal.substitute(schema, plain)
            want = "valid" if name in modal.VALID_SCHEMAS[logic] else "countermodel"
            text = _problem_text(logic, modal.atoms_of(conj),
                                 modal.render(conj), want)
            jobs.append(_modal_job(f"schema {name} on {logic}",
                                   parse_problem(text), logic, conj, want))
    # Uniform substitution instances of the valid schemas, two per schema,
    # together using each skeleton once for P and once for Q. Over KB frames
    # they use one atom (548 interpretations); over K frames a single
    # instance would cost 0.4-0.8 s, so K-frame validity of the K schema is
    # left to the plain schema and to kdia.problem.
    sk = modal.SKELETONS
    for logic, atoms in (("KB", ("p",)), ("S5", ("p", "q"))):
        for name in modal.VALID_SCHEMAS[logic]:
            for k in (0, 2):
                sub = {"P": modal.fixed_shape(rng, atoms, sk[k]),
                       "Q": modal.fixed_shape(rng, atoms, sk[k + 1])}
                conj = modal.substitute(modal.SCHEMAS[name], sub)
                text = _problem_text(logic, atoms, modal.render(conj), "valid")
                jobs.append(_modal_job(f"instance {k // 2} of {name} on {logic}",
                                       parse_problem(text), logic, conj,
                                       "valid"))
    jobs.append(_layer_job("S5", 3, ("p", "q")))
    jobs.append(_layer_job("K", 2, ("p", "q")))
    rng.shuffle(jobs)
    return jobs


def imp_kdia(p, q) -> tuple:
    """[](p -> q) -> (<>p -> <>q)"""
    return modal.imp(modal.box(modal.imp(p, q)),
                     modal.imp(modal.dia(p), modal.dia(q)))


# ---------------------------------------------------------------------------
# corpus

# The paper's table (README): consistency and the collapse verdict of each
# variant's problem file, as `finmodal sat` reports them.
CORPUS_SAT = {"goedel": "unsat", "scott": "valid", "anderson": "countermodel",
              "fitting": "countermodel"}


def _premises_hold(m, premises_n) -> bool:
    """Every premise true at every world of the complete model."""
    return all(kripke.evaluate(p, m, {}, w)
               for p in premises_n for w in range(m.n_worlds))


def _collapse_refuted(m) -> bool:
    """q -> []q fails at some world, and q separates the worlds."""
    q = m.denot["q"]
    conj = modal.imp(modal.atom("q"), modal.box(modal.atom("q")))
    return (m.n_worlds >= 2 and q not in (0, (1 << m.n_worlds) - 1)
            and modal.refutes(conj, m.n_worlds, m.access, {"q": q}))


def _suite_check(name, premises_n, refutation_want):
    def check(rep):
        models = [rep.sat.model, rep.collapse_countermodel,
                  rep.vagueness_witness]
        models += [cm for _, cm in rep.frame_verdicts.values()]
        for m in models:
            if m is not None and not _premises_hold(m, premises_n):
                return "a returned model violates a premise"
        uf = rep.ultrafilters
        if name == "goedel":
            if rep.sat.is_sat:
                return "unemended set satisfiable"
            if not isinstance(rep.refutation, Accepted):
                return f"refutation not accepted: {rep.refutation}"
            if not alpha_equivalent(normal(rep.refutation.conclusion),
                                    refutation_want):
                return "refutation concludes something else"
            return None
        if not rep.sat.is_sat:
            return "emended set has no model"
        if name == "scott":
            checked, constant = rep.world_constant_models
            if rep.collapse_countermodel is not None:
                return "collapse not forced"
            if not (constant and checked >= 1):
                return "a model is not world-constant"
            if not (rep.frame_verdicts[LogicTag.KB][0]
                    and rep.frame_verdicts[LogicTag.S5TOTAL][0]):
                return "main theorem fails under KB or S5"
            if not (uf["P"].is_ultrafilter and uf["Pprime"].is_ultrafilter
                    and set(uf["P"].family) == set(uf["Pprime"].family)):
                return "positivity families are not the same ultrafilter"
            return None
        cm = rep.collapse_countermodel
        if cm is None or not _collapse_refuted(cm):
            return "no two-world collapse countermodel"
        if not uf["Pprime"].is_ultrafilter:
            return "rigidified family is not an ultrafilter"
        if name == "anderson":
            if uf["P"].is_ultrafilter or uf["P"].maximal:
                return "intensional family should fail maximality"
        elif "P" in uf:
            return "intensional family reported for the rigid variant"
        return None
    return check


def _corpus_sat_check(name, premises_n, want):
    def check(out):
        verdict, m = out
        if verdict != want:
            return f"verdict {verdict}, expected {want}"
        if m is not None and not _premises_hold(m, premises_n):
            return "the countermodel violates a premise"
        if verdict == "countermodel" and not _collapse_refuted(m):
            return "the countermodel does not refute q -> []q"
        return None
    return check


def setup_corpus(rng, root: Path) -> list:
    jobs = []
    for name in VARIANT_NAMES:
        problem = load_problem(str(root / "problems" / f"{name}.problem"))
        premises_n = [normal(p) for p in problem.premises]
        want_ref = normal(parse_formula("~(q -> q)", problem.sig))
        jobs.append(Job(f"suite {name}",
                        lambda name=name: run_variant_suite(name),
                        _suite_check(name, premises_n, want_ref)))
        jobs.append(Job(f"sat {name}.problem",
                        lambda problem=problem: sat_verdict(problem),
                        _corpus_sat_check(name, premises_n, CORPUS_SAT[name])))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# hilbert

def prove(problem_text: str, proof_text: str):
    """`finmodal prove` without its semantic countermodel step."""
    problem = parse_problem(problem_text)
    layer_name, script = parse_proof(proof_text, problem.sig)
    verdict = check_proof(script, make_layer(layer_name),
                          tuple(problem.premises))
    matches = None
    if isinstance(verdict, Accepted) and problem.conjectures:
        matches = alpha_equivalent(normal(problem.conjectures[0]),
                                   normal(verdict.conclusion))
    return verdict, matches, problem.sig


def _accept_check(theorem_text: str):
    def check(out):
        verdict, matches, sig = out
        if not isinstance(verdict, Accepted):
            return f"rejected: {verdict}"
        want = normal(parse_formula(theorem_text, sig))
        if not (matches and alpha_equivalent(normal(verdict.conclusion), want)):
            return "conclusion differs from the theorem"
        return None
    return check


def _reject_check(step: int):
    def check(out):
        verdict = out[0]
        if not isinstance(verdict, Rejected):
            return "corrupted script accepted"
        if verdict.step != step:
            return f"rejected at step {verdict.step}, corrupted step {step}"
        return None
    return check


def corrupt(proof_text: str, rng) -> tuple:
    """The script with the citations of one late `mp i j` swapped, and the
    0-based index of that step. Line i would have to be an implication
    whose antecedent is line j, which contains line i: no script passes."""
    lines = proof_text.splitlines()
    steps = [k for k, line in enumerate(lines)
             if line.split("#")[0].strip() and not line.startswith("layer")]
    mps = [n for n, k in enumerate(steps) if lines[k].startswith("mp ")]
    n = rng.choice(mps[-8:])
    _, i, j = lines[steps[n]].split()
    lines[steps[n]] = f"mp {j} {i}"
    return "\n".join(lines) + "\n", n


HILBERT_SHIPPED = (
    ("s5", "kdia", "[](p -> q) -> (<>p -> <>q)"),
    ("goedel", "goedel_refutation", "~(q -> q)"),
    ("two_individuals", "two_individuals", "~(k1 = k2)"),
)
HILBERT_INSTANCES = 6
HILBERT_CORRUPTED_INSTANCES = 2


def setup_hilbert(rng, root: Path) -> list:
    jobs = []
    sources = []
    for problem_stem, proof_stem, theorem in HILBERT_SHIPPED:
        problem_text = (root / "problems" / f"{problem_stem}.problem").read_text()
        proof_text = (root / "proofs" / f"{proof_stem}.proof").read_text()
        sources.append((proof_stem, problem_text, proof_text, theorem))
    atoms = ("p", "q", "r")
    sk = modal.SKELETONS
    for k in range(HILBERT_INSTANCES):
        a = modal.fixed_shape(rng, atoms, sk[k % len(sk)])
        b = modal.fixed_shape(rng, atoms, sk[(k + 1) % len(sk)])
        theorem = modal.render(imp_kdia(a, b))
        problem_text = _problem_text("K", atoms, theorem, "valid")
        problem = parse_problem(problem_text)
        builder = ScriptBuilder(make_layer("K"))
        derive_kdia(builder, parse_formula(modal.render(a), problem.sig),
                    parse_formula(modal.render(b), problem.sig))
        proof_text = render_proof("K", builder.script())
        sources.append((f"kdia instance {k}", problem_text, proof_text, theorem))
    corrupted = sources[:len(HILBERT_SHIPPED) + HILBERT_CORRUPTED_INSTANCES]
    for name, problem_text, proof_text, theorem in sources:
        jobs.append(Job(f"prove {name}",
                        lambda a=problem_text, b=proof_text: prove(a, b),
                        _accept_check(theorem)))
    for name, problem_text, proof_text, _ in corrupted:
        bad_text, step = corrupt(proof_text, rng)
        jobs.append(Job(f"prove corrupted {name}",
                        lambda a=problem_text, b=bad_text: prove(a, b),
                        _reject_check(step)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# object-theory

# A second model within the 4-bit cap: the proxy of an abstract object
# depends on whether it encodes relation 3.
MEMBERSHIP_MODEL = """\
ordinary 1
special 1
worlds 2
actual 0
sigma membership 3
concrete u0 w1
const k1 ordinary 0
const k2 abstract 1 2
"""

# A description that does not denote, whose identity witness disagrees
# with `exists_term` (see CHANGES.md). Fixed, so it fails on every pass.
NON_DENOTING_PROBE = "(the x: A! x)"


def term_verdict(t, m) -> tuple:
    """(denotes, exists_term, exists beta (beta = t))."""
    d = denote(t, m)
    exists = exists_term(t, m)
    beta = Var("B" if sort_of(t).kind == "rel" else "b", sort_of(t))
    witness = eval_aot(Exists(beta, MacroFormula("id", (beta, t))), m)
    return isinstance(d, Denotes), exists, witness


def _agree_check(want=None):
    def check(out):
        if len(set(out)) != 1:
            return f"denotes/exists/witness disagree: {out}"
        if want is not None and out[0] != want:
            return f"denotation {out[0]}, expected {want}"
        return None
    return check


def term_texts(rng) -> list:
    """The terms of one model: every shape with fixed fill-ins, from 1 ms
    constants to 0.1-0.3 s comprehension descriptions. A seeded draw of
    shapes would move the geometric mean between seeds, so the seed only
    names the bound variables."""
    x = rng.choice(("x", "y", "z", "u"))
    f = rng.choice(("F", "G", "H"))
    return [
        "k1", "k2", "E!", "O!", "A!",
        *(f"[\\{x} {m}E! {x}]" for m in ("", "~", "[]", "<>", "@")),
        f"[\\{x} O! {x} & E! {x}]", f"[\\{x} A! {x} | E! {x}]",
        f"[\\{x} O! {x} -> A! {x}]",
        "[\\ <>E! k1]", "[\\ ~E! k2]",
        f"[\\{x} {x}[E!]]", f"[\\{x} {x}[O!]]",
        f"[\\{x} exists {f} ({x}[{f}] & {f} {x})]",
        f"(the {x}: O! {x})", f"(the {x}: O! {x} & <>E! {x})",
        # encoding comprehension: the abstract object encoding exactly r
        *(f"(the {x}: A! {x} & all {f} ({x}[{f}] <-> {f} = {r}))"
          for r in ("E!", "O!", "A!", "[\\v ~E! v]")),
    ]


def setup_object_theory(rng, root: Path) -> list:
    aotmin = build_aczel(load_aot_config(
        str(root / "problems" / "aotmin.model")))
    membership = build_aczel(parse_aot_config(MEMBERSHIP_MODEL))
    jobs = []

    def census_check(rep):
        if (rep.n_worlds, rep.n_propositions, rep.n_relations) != (2, 4, 16):
            return "census is not 2/4/16"
        if len({v for _, v in rep.witnesses}) != 16:
            return "witnesses do not cover the 16 relations"
        if len(rep.pair_witnesses) != 120 or None in rep.pair_witnesses.values():
            return "not 120/120 distinguishing witnesses"
        if not (rep.historical_distinct
                and isinstance(rep.transcript_verdict, Accepted)):
            return "historical six or the two-individuals derivation fails"
        return None

    def world_check(rep):
        if not (len(rep.syntactic_worlds) == rep.semantic_worlds == 2
                and rep.bijective and rep.fundamental_theorem_ok
                and rep.checked_propositions == 4
                and rep.encoding_propositions_constant):
            return "world theory is not a bijection with the fundamental theorem"
        return None

    jobs.append(Job("census", lambda: minimal_model_report(aotmin), census_check))
    jobs.append(Job("world theory", lambda: world_theory_report(aotmin),
                    world_check))
    paradox = parse_term("[\\x exists F (x[F] & ~F x)]", aotmin.sig)
    jobs.append(Job("paradoxical lambda", lambda: term_verdict(paradox, aotmin),
                    _agree_check(want=False)))
    probe = parse_term(NON_DENOTING_PROBE, aotmin.sig)
    jobs.append(Job(f"term {NON_DENOTING_PROBE} on aotmin",
                    lambda: term_verdict(probe, aotmin), _agree_check(),
                    known_fault=True))
    for label, m in (("aotmin", aotmin), ("membership", membership)):
        for text in term_texts(rng):
            t = parse_term(text, m.sig)
            jobs.append(Job(f"term {text} on {label}",
                            lambda t=t, m=m: term_verdict(t, m), _agree_check()))
    rng.shuffle(jobs)
    return jobs


SETUPS = {
    "modal-validity": setup_modal_validity,
    "corpus": setup_corpus,
    "hilbert": setup_hilbert,
    "object-theory": setup_object_theory,
}


def setup(name: str, seed: int, root: Path) -> list:
    return SETUPS[name](random.Random(f"{name}:{seed}"), root)
