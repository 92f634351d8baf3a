import collections
import itertools
import random
import time
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from finmodal.abstraction import (
    Accepted, Layer, ProofScript, ProofState, Rejected, Schema, SchemaFinding,
    SoundnessReport, Step, check_proof, make_layer, schema_instance,
    validate_layer,
)
from finmodal.formulas import (
    INDIVIDUAL, PROPOSITION, REL1,
    Actually, And, Box, Const, Encode, Exemplify, Forall, Formula, Implies,
    Lambda, MacroFormula, Not, PrimitiveEq, Relation, Var,
    alpha_equivalent, beta_normalize, canonical_key, children, free_names,
    rebuild, subnodes,
)
from finmodal.kripke import (
    ColumnSpace, KripkeInterpretation, Validity, compile_mask, frames_for,
    lowest_bit, total_access, validity,
)
from finmodal.macros import expand_derived
from finmodal.modelfind import (
    MODEL_BUDGET, Bounds, SearchBoundsError, find_countermodel,
)
from finmodal.ontoarg import variant
from finmodal.parser import parse_formula
from finmodal.problemfile import parse_problem, parse_proof
from finmodal.proofs import (
    ScriptBuilder, derive_kdia, goedel_refutation, goedel_refutation_script,
    kdia_script,
)
from finmodal.signature import LogicTag, Mode, Signature

from conftest import fresh, random_formula

SIG = Signature(Mode.CLASSICAL, LogicTag.K,
                {"p": PROPOSITION, "q": PROPOSITION})
P = Exemplify(Const("p", PROPOSITION), ())
Q = Exemplify(Const("q", PROPOSITION), ())


class TestCheckProof:
    def test_kdia_accepted(self):
        script = kdia_script()
        verdict = check_proof(script, make_layer("K"))
        assert isinstance(verdict, Accepted)
        want = beta_normalize(expand_derived(
            parse_formula("[](p -> q) -> (<>p -> <>q)", SIG)))
        assert alpha_equivalent(verdict.conclusion, want)

    def test_schema_not_in_layer(self):
        script = ProofScript((Step("ax", ("ax_T", {"p": P})),))
        verdict = check_proof(script, make_layer("K"))
        assert isinstance(verdict, Rejected)
        assert "schema-not-in-layer" in verdict.reason

    def test_mp_mismatch(self):
        steps = (Step("ax", ("pl1", {"p": P, "q": Q})),
                 Step("ax", ("pl1", {"p": P, "q": Q})),
                 Step("mp", (0, 1)))
        verdict = check_proof(ProofScript(steps), make_layer("K"))
        assert isinstance(verdict, Rejected)
        assert verdict.reason == "mp-mismatch"
        assert verdict.step == 2

    def test_mp_across_renamed_binders(self):
        # the cited antecedent binds another name: neither the same object
        # nor equal, so the canonical keys decide
        S, x, y = Const("S", REL1), Var("x", INDIVIDUAL), Var("y", INDIVIDUAL)
        all_x = Forall(x, Exemplify(S, (x,)))
        all_y = Forall(y, Exemplify(S, (y,)))
        steps = (Step("hyp", (all_x,)), Step("hyp", (Implies(all_y, Q),)),
                 Step("mp", (0, 1)), Step("qed", (2,)), Step("qed", (3,)))
        verdict = check_proof(ProofScript(steps), make_layer("K"))
        assert verdict == Accepted(Implies(all_x, Implies(Implies(all_y, Q), Q)))

    @pytest.mark.parametrize("kind,rest", [
        ("inst", {"phi": Q, "tau": Const("c", INDIVIDUAL)}),
        ("dist", {"phi": Q, "psi": Q}),
        ("vac", {"phi": Q}),
    ], ids=["inst", "dist", "vac"])
    @pytest.mark.parametrize("alpha", [
        P.rel, Lambda((Var("x", INDIVIDUAL),), P),
    ], ids=["constant", "lambda"])
    def test_quantifier_schemas_need_a_variable(self, kind, rest, alpha):
        script = ProofScript((Step("ax", (kind, {"alpha": alpha, **rest})),))
        verdict = check_proof(script, make_layer("K"))
        assert verdict == Rejected(0, "SchemaError: alpha must be a variable")

    def test_nec_barred_on_hypothesis_dependents(self):
        steps = (Step("hyp", (P,)), Step("nec", (0,)), Step("qed", (1,)))
        verdict = check_proof(ProofScript(steps), make_layer("K"))
        assert isinstance(verdict, Rejected)
        assert "nec-inside-deduction" in verdict.reason

    def test_nec_fine_on_theorems_inside_blocks(self):
        b = ScriptBuilder(make_layer("K"))
        b.hyp(P)
        t = b.thm_id(Q)
        n = b.nec(t)
        b.qed(n)
        verdict = check_proof(b.script(), make_layer("K"))
        assert isinstance(verdict, Accepted)

    def test_unclosed_block(self):
        verdict = check_proof(ProofScript((Step("hyp", (P,)),)),
                              make_layer("K"))
        assert isinstance(verdict, Rejected)
        assert "unclosed" in verdict.reason

    def test_lines_inside_closed_blocks_are_out_of_scope(self):
        steps = (Step("hyp", (P,)), Step("qed", (0,)), Step("nec", (0,)))
        verdict = check_proof(ProofScript(steps), make_layer("K"))
        assert isinstance(verdict, Rejected)

    def test_premises_enter_by_index(self):
        script = ProofScript((Step("premise", (1,)),))
        verdict = check_proof(script, make_layer("K"), (P,))
        assert isinstance(verdict, Accepted)
        assert verdict.conclusion == P
        bad = check_proof(ProofScript((Step("premise", (2,)),)),
                          make_layer("K"), (P,))
        assert isinstance(bad, Rejected)

    def test_deduction_metarule_admissible(self):
        # a block deriving q from hypothesis p yields p -> q outside
        b = ScriptBuilder(make_layer("K"), (Implies(P, Q),))
        h = b.hyp(P)
        pr = b.premise(1)
        m = b.mp(h, pr)
        out = b.qed(m)
        assert alpha_equivalent(b.formula(out), Implies(P, Q))
        assert isinstance(check_proof(b.script(), make_layer("K"),
                                      (Implies(P, Q),)), Accepted)

    def test_result_is_a_pure_function_of_inputs(self):
        script = kdia_script()
        first = check_proof(script, make_layer("K"))
        from finmodal.kripke import KripkeInterpretation, total_access
        m = KripkeInterpretation(SIG, 2, 1, total_access(2),
                                 {"p": 1, "q": 2})
        m.denot["p"] = 3  # models share nothing with the checker
        second = check_proof(script, make_layer("K"))
        assert first == second


_x, _y = Var("x", INDIVIDUAL), Var("y", INDIVIDUAL)
_Sx, _Sy = (Exemplify(Const("S", REL1), (v,)) for v in (_x, _y))


def _eq_sub(phi, psi, beta=_y):
    return Step("ax", ("eq_sub", {"alpha": _x, "beta": beta, "phi": phi,
                                  "psi": psi}))


_NOT_REPLACED = "SchemaError: psi is not phi with occurrences of alpha replaced"


@pytest.mark.parametrize("layer, steps, premises, step, reason", [
    ("K", (Step("ax", ("vac", {"alpha": _x, "phi": _Sx})),), (), 0,
     "SchemaError: vacuous generalization needs the variable absent"),
    ("K", (Step("ax", ("pl1", {"p": P})),), (), 0,
     "SchemaError: missing metavariables ['q']"),
    # a builtin schema checks its metavariables as a template schema does
    ("K", (Step("ax", ("inst", {"phi": P, "tau": _x})),), (), 0,
     "SchemaError: missing metavariables ['alpha']"),
    # an individual for a formula metavariable would head an atom
    ("K", (Step("ax", ("pl1", {"p": _x, "q": P})),), (), 0,
     "SchemaError: metavariable p needs a formula value"),
    ("K", (Step("hyp", (_Sx,)), Step("gen", (0, _x))), (), 1,
     "gen-variable free in an open hypothesis"),
    ("K", (Step("mp", (0, 1)),), (), 0, "mp cites an unavailable line"),
    ("K", (Step("gen", (0, _x)),), (), 0, "gen cites an unavailable line"),
    ("K", (Step("expand", (0,)),), (), 0, "expand cites an unavailable line"),
    ("K", (Step("qed", (0,)),), (), 0, "qed outside a deduction block"),
    ("K", (Step("hyp", (P,)), Step("qed", (1,))), (), 1,
     "qed cites an unavailable line"),
    ("K", ("junk",), (), 0, "unknown step 'junk'"),
    ("K", (Step("lemma", (0,)),), (), 0,
     "unknown step Step(rule='lemma', args=(0,))"),
    ("K", (), (), 0, "empty script"),
    ("K", (Step("premise", (1,)),), (_Sx,), 0, "premises must be closed"),
    ("AOT", (_eq_sub(_Sx, _Sy, Var("F", REL1)),), (), 0,
     "SchemaError: equality between different sorts"),
    ("AOT", (_eq_sub(_Sx, Not(_Sy)),), (), 0, _NOT_REPLACED),
    ("AOT", (_eq_sub(Forall(Var("z", INDIVIDUAL), _Sx),
                     Forall(Var("w", INDIVIDUAL), _Sy)),), (), 0,
     _NOT_REPLACED),
    ("AOT", (_eq_sub(_Sx, Exemplify(Const("R", Relation(2)), (_x, _y))),),
     (), 0, _NOT_REPLACED),
    ("AOT", (_eq_sub(MacroFormula("ess_g", (Const("S", REL1), _x)),
                     MacroFormula("ess_s", (Const("S", REL1), _y))),), (), 0,
     _NOT_REPLACED),
], ids=["vac-free", "missing-metavariable",
        "missing-builtin-metavariable", "template-term-value",
        "gen-free-in-hypothesis",
        "mp-unavailable", "gen-unavailable", "expand-unavailable",
        "qed-outside-block", "qed-unavailable", "unknown-step",
        "unknown-rule", "empty",
        "open-premise", "eq_sub-sorts", "eq_sub-node-kind",
        "eq_sub-binder-names", "eq_sub-arity", "eq_sub-macro-name"])
def test_rejected_steps(layer, steps, premises, step, reason):
    verdict = check_proof(ProofScript(steps), make_layer(layer), premises)
    assert verdict == Rejected(step, reason)


def test_custom_layer_schemas():
    # eq_refl in an object-theory layer, and a schema kind the checker
    # does not know, are rejected; eq_sub in a classical layer gives a
    # primitive equality and holds on every test model
    refl = Layer("AOT+eq_refl", LogicTag.S5TOTAL, Mode.AOT,
                 {"eq_refl": Schema("eq_refl", "eq_refl")})
    assert check_proof(ProofScript((Step("ax", ("eq_refl", {"tau": _x})),)),
                       refl) == Rejected(0, "SchemaError: reflexivity is "
                                            "not an AOT axiom (existence "
                                            "needed)")
    layer = Layer("K+eq_sub", LogicTag.K, Mode.CLASSICAL,
                  {"eq_sub": Schema("eq_sub", "eq_sub"),
                   "odd": Schema("odd", "odd")})
    assert check_proof(ProofScript((Step("ax", ("odd", {})),)),
                       layer) == Rejected(0, "SchemaError: unknown schema "
                                             "kind odd")
    assert check_proof(ProofScript((_eq_sub(_Sx, _Sy),)), layer) == Accepted(
        Implies(PrimitiveEq(_x, _y), Implies(_Sx, _Sy)))
    report = validate_layer(layer, max_worlds=1)
    assert [(f.schema, f.instances, f.counterexample)
            for f in report.schema_findings] == [
                ("eq_sub", 888, None), ("odd", 0, None)]
    with pytest.raises(ValueError, match="unknown layer 'T'"):
        make_layer("T")


def test_builtin_schema_without_metavariables():
    # a builtin-kind schema that names no metavariables needs its kind's,
    # so a missing one is a schema error, not a KeyError
    refl = Layer("K+eq_refl", LogicTag.K, Mode.CLASSICAL,
                 {"eq_refl": Schema("eq_refl", "eq_refl")})
    assert check_proof(ProofScript((Step("ax", ("eq_refl", {})),)),
                       refl) == Rejected(0, "SchemaError: missing "
                                            "metavariables ['tau']")
    assert check_proof(ProofScript((Step("ax", ("eq_refl", {"tau": _x})),)),
                       refl) == Accepted(PrimitiveEq(_x, _x))


def test_template_schema_without_metavariables():
    # a template schema that names no metavariables needs its free
    # proposition variables, sorted, the order each shipped one declares
    pl1 = make_layer("K").schemas["pl1"]
    bare = Layer("K+pl1", LogicTag.K, Mode.CLASSICAL,
                 {"pl1": Schema("pl1", "template", pl1.template)})
    assert check_proof(ProofScript((Step("ax", ("pl1", {})),)),
                       bare) == Rejected(0, "SchemaError: missing "
                                            "metavariables ['p', 'q']")
    declared = Layer("K+pl1", LogicTag.K, Mode.CLASSICAL, {"pl1": pl1})
    assert pl1.metavars == ("p", "q")
    report = validate_layer(bare, max_worlds=2)
    assert report == validate_layer(declared, max_worlds=2)
    assert report.schema_findings[0].instances > 0


def test_template_with_a_constant():
    # a template's leaves that are no metavariable atom, such as the
    # constant c, are kept as they are
    c = Exemplify(Const("c", PROPOSITION), ())
    layer = Layer("K+c", LogicTag.K, Mode.CLASSICAL, {
        "c_ax": Schema("c_ax", "template", Implies(P_meta(), c), ("p",))})
    assert check_proof(ProofScript((Step("ax", ("c_ax", {"p": Q})),)),
                       layer) == Accepted(Implies(Q, c))


def _spliced(x, mapping):
    """The instance as the proof line's normalization used to receive it:
    each metavariable atom replaced by its value as given, every other
    node rebuilt, nothing flagged."""
    if isinstance(x, Exemplify) and isinstance(x.rel, Var) \
            and x.rel.name in mapping:
        return mapping[x.rel.name]
    kids = children(x)
    return rebuild(x, tuple(_spliced(c, mapping) for c in kids)) if kids \
        else x


# a safe redex, which reduces to S x, and a kept one: its matrix encodes
_REDEX = Exemplify(Lambda((_y,), Exemplify(Const("S", REL1), (_y,))), (_x,))
_KEPT = Exemplify(Lambda((_y,), Encode(_y, Const("S", REL1))), (_x,))


_AX_CASES = {
    "pl1": {"p": _REDEX, "q": Box(Not(_REDEX))},
    "pl3": {"p": P, "q": Implies(_KEPT, _REDEX)},
    "ax_K": {"p": Actually(_REDEX), "q": Q},
    "ax_5": {"p": _Sx},
    # a template holding a redex is normalized as a whole, after splicing
    "redex": {"p": _REDEX},
}


@pytest.mark.parametrize("schema", _AX_CASES)
def test_ax_line_is_normal_and_unchanged(schema):
    subst = _AX_CASES[schema]
    layer = make_layer("S5")
    layer.schemas["redex"] = Schema("redex", "template", Exemplify(
        Lambda((_y,), Implies(P_meta(), Exemplify(Const("S", REL1), (_y,)))),
        (_x,)), ("p",))
    verdict = check_proof(ProofScript((Step("ax", (schema, subst)),)), layer)
    assert isinstance(verdict, Accepted)
    line = verdict.conclusion
    old = beta_normalize(_spliced(layer.schemas[schema].template, subst))
    assert line == old
    assert beta_normalize(line) is line
    if schema != "redex":
        # the shipped templates are normal, so each rebuilt node of the
        # instance is flagged normal where it is built, and the line is
        # the instance, not normalized node by node
        instance = schema_instance(layer.schemas[schema], subst)
        assert instance == line
        assert all(n._normal is True for n in subnodes(instance)
                   if isinstance(n, Formula))


# (problem, proof) stems of the shipped proof scripts
SHIPPED_PROOFS = (("s5", "kdia"), ("goedel", "goedel_refutation"),
                  ("two_individuals", "two_individuals"))


def _shipped(problem_stem, proof_stem):
    problem = parse_problem(Path(f"problems/{problem_stem}.problem").read_text())
    text = Path(f"proofs/{proof_stem}.proof").read_text()
    return problem, text


class TestIncrementalLines:
    """Lines built from the lines they cite (mp, nec, qed), whose stored
    normal-form flags they reuse, hold what normalizing and keying them
    from scratch would give."""

    def _assert_lines_normal_and_keyed(self, state):
        # a fresh copy has nothing stored, so its answers are computed anew
        assert state.lines
        for n, line in enumerate(state.lines):
            copy = fresh(line.formula)
            assert beta_normalize(copy) == line.formula, n
            assert canonical_key(copy) == canonical_key(line.formula), n

    @pytest.mark.parametrize("stems", SHIPPED_PROOFS,
                             ids=[p for _, p in SHIPPED_PROOFS])
    def test_shipped_proof_lines(self, stems):
        problem, text = _shipped(*stems)
        layer_name, script = parse_proof(text, problem.sig)
        state = ProofState(make_layer(layer_name), tuple(problem.premises))
        for step in script.steps:
            state.apply(step)
        assert isinstance(state.verdict(), Accepted)
        self._assert_lines_normal_and_keyed(state)

    def test_derive_kdia_lines(self):
        rng = random.Random(7)
        for _ in range(4):
            a = random_formula(rng, SIG, 2, quantifiers=False)
            b = random_formula(rng, SIG, 2, quantifiers=False)
            builder = ScriptBuilder(make_layer("K"))
            derive_kdia(builder, a, b)
            self._assert_lines_normal_and_keyed(builder.state)

    def test_goedel_builder_lines_and_verdict(self):
        premises = variant("goedel").formulas()
        builder = goedel_refutation(premises)
        self._assert_lines_normal_and_keyed(builder.state)
        verdict = builder.state.verdict()
        assert isinstance(verdict, Accepted)
        assert verdict == check_proof(goedel_refutation_script(premises),
                                      make_layer("K"), premises)


# Top-level canonical keys that checking each shipped proof builds: mp
# compares its two formulas by identity or equality first, so only those
# written with other bound names are keyed, and eq_sub's terms in the AOT
# proof. Keying both sides of every mp built 109, 746 and 173.
KEYS_BUILT = {"kdia": 0, "goedel_refutation": 2, "two_individuals": 12}


@pytest.mark.parametrize("stems", SHIPPED_PROOFS,
                         ids=[p for _, p in SHIPPED_PROOFS])
def test_checking_builds_few_keys(stems, monkeypatch):
    from finmodal import formulas
    problem, text = _shipped(*stems)
    layer_name, script = parse_proof(text, problem.sig)
    built = []
    ckey = formulas._ckey

    def counting(x, env, depth):
        if not env:  # canonical_key's call, not one under a binder
            built.append(x)
        return ckey(x, env, depth)

    monkeypatch.setattr(formulas, "_ckey", counting)
    verdict = check_proof(script, make_layer(layer_name),
                          tuple(problem.premises))
    assert isinstance(verdict, Accepted)
    assert len(built) <= KEYS_BUILT[stems[1]]


# The last eight `mp` steps of each shipped proof, as 0-based step indices.
LATE_MP_STEPS = {
    "kdia": (58, 62, 64, 67, 70, 71, 74, 75),
    "goedel_refutation": (595, 596, 601, 603, 605, 606, 609, 610),
    "two_individuals": (76, 80, 82, 85, 88, 89, 92, 93),
}


@pytest.mark.parametrize("stems", SHIPPED_PROOFS,
                         ids=[p for _, p in SHIPPED_PROOFS])
def test_swapped_mp_citations_rejected_at_that_step(stems):
    # `mp i j` becomes `mp j i`: line j would have to be an implication
    # whose antecedent is line i, which contains line j
    problem, text = _shipped(*stems)
    lines = text.splitlines()
    steps = [k for k, line in enumerate(lines)
             if line.split("#")[0].strip() and not line.startswith("layer")]
    mps = [n for n, k in enumerate(steps) if lines[k].startswith("mp ")]
    assert tuple(mps[-8:]) == LATE_MP_STEPS[stems[1]]
    for n in mps[-8:]:
        bad = list(lines)
        _, i, j = bad[steps[n]].split()
        bad[steps[n]] = f"mp {j} {i}"
        layer_name, script = parse_proof("\n".join(bad) + "\n", problem.sig)
        verdict = check_proof(script, make_layer(layer_name),
                              tuple(problem.premises))
        assert verdict == Rejected(n, "mp-mismatch")


class TestValidateLayer:
    def test_s5_layer_sound(self):
        report = validate_layer(make_layer("S5"), max_worlds=3)
        assert report.ok
        assert report.n_models == 4 + 16 + 64

    def test_bogus_schema_caught(self):
        bogus = Schema("bogus", "template", Implies(P_meta(), Box(P_meta())),
                       ("p",))
        base = make_layer("S5")
        layer = Layer("bad", base.logic, base.mode,
                      {**base.schemas, "bogus": bogus})
        report = validate_layer(layer, max_worlds=2)
        finding = next(f for f in report.schema_findings if f.schema == "bogus")
        assert finding.counterexample is not None

    @pytest.mark.parametrize("name", ["KB", "AOT"])
    def test_one_input_gives_equal_reports(self, name):
        # a report holds counts and counterexamples, no wall time
        first, second = (validate_layer(make_layer(name), max_worlds=2)
                         for _ in range(2))
        assert first == second
        assert repr(first) == repr(second)

    @pytest.mark.parametrize("name, max_worlds, counts", [
        ("K", 2, {"pl1": 3648, "pl2": 14208, "pl3": 3648, "ax_K": 3648}),
        ("S5", 3, {"pl1": 2352, "pl2": 15456, "pl3": 2352, "ax_K": 2352,
                   "ax_T": 408, "ax_5": 408}),
        ("KB", 2, {"pl1": 1792, "pl2": 6912, "pl3": 1792, "ax_K": 1792,
                   "ax_B": 480}),
        ("KB", 3, {"pl1": 202478, "pl2": 1530146, "pl3": 202478,
                   "ax_K": 202478, "ax_B": 28034}),
    ])
    def test_template_instance_counts(self, name, max_worlds, counts):
        # one instance per metavariable tuple of realized vectors per model
        report = validate_layer(make_layer(name), max_worlds=max_worlds)
        assert {f.schema: f.instances for f in report.schema_findings
                if f.schema in counts} == counts
        # every valuation of the two atoms on every frame of the class
        assert report.n_models == {("K", 2): 264, ("KB", 2): 136,
                                   ("KB", 3): 4232, ("S5", 3): 84}[
                                       name, max_worlds]

    def test_model_budget_checked_before_enumerating(self):
        # K at 4 worlds: 65 536 frames, 16.8 M models; at 3 worlds 33 032
        t0 = time.perf_counter()
        with pytest.raises(SearchBoundsError, match=str(MODEL_BUDGET)):
            validate_layer(make_layer("K"), max_worlds=4)
        assert time.perf_counter() - t0 < 0.1
        with pytest.raises(SearchBoundsError):
            validate_layer(make_layer("K"), max_worlds=10 ** 6)

    def test_bad_arguments_rejected_before_any_work(self):
        # no world count passes vacuously, and a repeated atom would make
        # the valuation and the atoms' values disagree
        layer = make_layer("S5")
        for kwargs, match in [({"max_worlds": 0}, "max_worlds"),
                              ({"max_worlds": -1}, "max_worlds"),
                              ({"atoms": ("p", "p")}, "distinct"),
                              ({"atoms": ("p", "q", "p")}, "distinct")]:
            with pytest.raises(ValueError, match=match):
                validate_layer(layer, **kwargs)
        # even where the model budget would be passed too
        with pytest.raises(ValueError):
            validate_layer(make_layer("K"), max_worlds=10 ** 6,
                           atoms=("p", "p"))

    @pytest.mark.parametrize("name, counts", [
        ("K", {"inst": 3776, "dist": 4224, "vac": 736, "eq_refl": 472}),
        ("KB", {"inst": 3776, "dist": 4224, "vac": 736, "eq_refl": 472}),
        ("S5", {"inst": 1312, "dist": 1472, "vac": 256, "eq_refl": 164}),
        ("AOT", {"inst": 1312, "dist": 1472, "vac": 256, "eq_sub": 0}),
    ])
    def test_builtin_instance_counts(self, name, counts):
        # one check per (instance, model, assignment), each test frame once
        report = validate_layer(make_layer(name), max_worlds=1)
        assert {f.schema: f.instances for f in report.schema_findings
                if f.schema in counts} == counts

    def test_bogus_schema_first_counterexample(self):
        # the first failing tuple in (model, tuple) order, and its first
        # false world; models go by world count, then frame, then valuation
        # with the last atom outermost
        bogus = Schema("bogus", "template", Implies(P_meta(), Box(P_meta())),
                       ("p",))
        cases = {
            "S5": (12, (P,), "|W|=2 R=[(0, 0), (0, 1), (1, 0), (1, 1)] "
                             "{'p': '0b1', 'q': '0b0'}"),
            # the first valuation over the third frame at two worlds: the 8
            # models at one world and the 32 over the first two frames come
            # before it
            "K": (138, (Not(Box(P)),), "|W|=2 R=[(0, 1)] "
                                       "{'p': '0b0', 'q': '0b0'}"),
        }
        for name, (instances, witnesses, model) in cases.items():
            base = make_layer(name)
            layer = Layer("bad", base.logic, base.mode,
                          {**base.schemas, "bogus": bogus})
            report = validate_layer(layer, max_worlds=2)
            finding = next(f for f in report.schema_findings
                           if f.schema == "bogus")
            assert finding.instances == instances
            assert finding.counterexample == (witnesses, model, 0)
            assert "rule" not in report.to_text()

    def test_three_world_template_first_counterexample(self):
        # Alt2, "at most two successors": it holds on every model up to two
        # worlds, so its first counterexample is at three
        alt2 = Schema("alt2", "template", Implies(
            Not(Box(P_meta())),
            Implies(Not(Box(Implies(P_meta(), Q_meta()))),
                    Box(Implies(Not(Implies(P_meta(), Not(Q_meta()))),
                                R_meta())))), ("p", "q", "r"))
        cases = {
            "KB": (272300, (Implies(Box(Not(P)), P), Not(Box(Not(P))), Q),
                   "|W|=3 R=[(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)] "
                   "{'p': '0b10', 'q': '0b0'}"),
            "K": (178705, (Implies(Box(P), P), Not(Box(P)), Q),
                  "|W|=3 R=[(0, 0), (0, 1), (0, 2)] "
                  "{'p': '0b10', 'q': '0b0'}"),
        }
        for name, (instances, witnesses, model) in cases.items():
            layer = Layer("alt2", make_layer(name).logic, Mode.CLASSICAL,
                          {"alt2": alt2})
            assert validate_layer(layer, max_worlds=2).ok
            report = validate_layer(layer, max_worlds=3)
            assert report.schema_findings == [
                SchemaFinding("alt2", instances, (witnesses, model, 0))]
            if name == "KB":
                assert report.schema_findings == _oracle_template_findings(
                    layer, 3, ("p", "q"), 3)

    def test_bogus_builtin_first_counterexample(self, monkeypatch):
        # builtin models go by world count, frame, domain size, then S's
        # value, then p's, and within a model by assignment, the first free
        # variable outermost; the count runs to the first failing pair
        from finmodal import abstraction
        x, y = Var("x", INDIVIDUAL), Var("y", INDIVIDUAL)
        Sx, Sy = (Exemplify(Const("S", REL1), (v,)) for v in (x, y))
        total2 = "R=[(0, 0), (0, 1), (1, 0), (1, 1)]"
        cases = [
            # K: every model at one world, and the 144 over the empty frame
            # at two, pass; the fifth over the total frame fails
            ("vac", Implies(Sx, Box(Sx)), {
                "K": (189, f"|W|=2 {total2} {{'S': '0b1', 'p': '0b0'}}", 0),
                "S5": (25, f"|W|=2 {total2} {{'S': '0b1', 'p': '0b0'}}", 0)}),
            # two individuals, S = 0b01, first failing assignment x=0, y=1
            ("inst", Implies(Sx, Sy), {
                "K": (14, "|W|=1 R=[] {'S': '0b1', 'p': '0b0'}", 0),
                "S5": (14, "|W|=1 R=[(0, 0)] {'S': '0b1', 'p': '0b0'}", 0)}),
            # fails only away from the actual world
            ("eq_refl", Implies(Actually(Sx), Sx), {
                "K": (45, "|W|=2 R=[] {'S': '0b1', 'p': '0b0'}", 1),
                "S5": (25, f"|W|=2 {total2} {{'S': '0b1', 'p': '0b0'}}", 1)}),
        ]
        real = abstraction.schema_instance
        for kind, bad, want in cases:
            monkeypatch.setattr(
                abstraction, "schema_instance",
                lambda s, subst, mode=Mode.CLASSICAL, kind=kind, bad=bad:
                bad if s.kind == kind else real(s, subst, mode))
            for name, (instances, model, world) in want.items():
                report = validate_layer(make_layer(name), max_worlds=1)
                failed = [f for f in report.schema_findings
                          if f.counterexample is not None]
                assert [(f.schema, f.instances, f.counterexample)
                        for f in failed] == [(kind, instances,
                                              (bad, model, world))]

    # every finding of the shipped layers, in report order: the templates
    # by max_worlds, then the builtins, which do not depend on it
    GOLDEN_TEMPLATES = {
        "K": {1: {"pl1": 32, "pl2": 64, "pl3": 32, "ax_K": 32},
              2: {"pl1": 3648, "pl2": 14208, "pl3": 3648, "ax_K": 3648},
              3: {"pl1": 1666430, "pl2": 12713062, "pl3": 1666430,
                  "ax_K": 1666430}},
        "KB": {1: {"pl1": 32, "pl2": 64, "pl3": 32, "ax_K": 32, "ax_B": 16},
               2: {"pl1": 1792, "pl2": 6912, "pl3": 1792, "ax_K": 1792,
                   "ax_B": 480},
               3: {"pl1": 202478, "pl2": 1530146, "pl3": 202478,
                   "ax_K": 202478, "ax_B": 28034}},
        "S5": {1: {"pl1": 16, "pl2": 32, "pl3": 16, "ax_K": 16, "ax_T": 8,
                   "ax_5": 8},
               2: {"pl1": 224, "pl2": 832, "pl3": 224, "ax_K": 224,
                   "ax_T": 64, "ax_5": 64},
               3: {"pl1": 2352, "pl2": 15456, "pl3": 2352, "ax_K": 2352,
                   "ax_T": 408, "ax_5": 408}},
    }
    GOLDEN_BUILTINS = {
        "K": {"inst": 3776, "dist": 4224, "vac": 736, "eq_refl": 472},
        "KB": {"inst": 3776, "dist": 4224, "vac": 736, "eq_refl": 472},
        "S5": {"inst": 1312, "dist": 1472, "vac": 256, "eq_refl": 164},
        "AOT": {"inst": 1312, "dist": 1472, "vac": 256, "eq_sub": 0},
    }

    @pytest.mark.parametrize("max_worlds", [1, 2, 3])
    @pytest.mark.parametrize("name", ["K", "KB", "S5", "AOT"])
    def test_golden_findings(self, name, max_worlds):
        templates = self.GOLDEN_TEMPLATES["S5" if name == "AOT" else name]
        want = {**templates[max_worlds], **self.GOLDEN_BUILTINS[name]}
        report = validate_layer(make_layer(name), max_worlds=max_worlds)
        assert [(f.schema, f.instances, f.counterexample)
                for f in report.schema_findings] == [
                    (schema, n, None) for schema, n in want.items()]

    def test_k_schemas_on_kb_frames_still_sound(self):
        base = make_layer("K")
        layer = Layer("K-on-KB", LogicTag.KB, Mode.CLASSICAL, base.schemas)
        report = validate_layer(layer, max_worlds=2)
        assert report.ok

    def test_soundness_cross_check_with_model_finder(self):
        # whatever the checker accepts has no bounded semantic countermodel
        verdict = check_proof(kdia_script(), make_layer("K"))
        cm = find_countermodel((), verdict.conclusion, SIG,
                               Bounds(max_worlds=3, max_individuals=1))
        assert cm is None


def P_meta():
    return Exemplify(Var("p", PROPOSITION), ())


def Q_meta():
    return Exemplify(Var("q", PROPOSITION), ())


def R_meta():
    return Exemplify(Var("r", PROPOSITION), ())


def test_aot_layer_validation_does_not_crash():
    report = validate_layer(make_layer("AOT"), max_worlds=2)
    assert report.ok  # eq_sub is deferred to the urelement-model suite


# ---------------------------------------------------------------------------
# validate_layer against a per-model loop

def _oracle_vectors(m, atoms, depth):
    """The world-vector closure with one witness formula per vector, built
    on the model itself."""
    full = m.all_worlds
    vecs = {}
    for a in atoms:
        vecs.setdefault(m.denot[a], Exemplify(Const(a, PROPOSITION), ()))
    frontier = dict(vecs)
    for _ in range(depth):
        new = {}
        items = list(vecs.items())
        for v, wf in list(frontier.items()):
            for nv, nf in ((full ^ v, Not(wf)), (m.box(v), Box(wf)),
                           (m.actually(v), Actually(wf))):
                if nv not in vecs:
                    vecs[nv] = nf
                    new[nv] = nf
        for v1, f1 in items:
            for v2, f2 in items:
                nv = (full ^ v1) | v2
                if nv not in vecs:
                    vecs[nv] = new[nv] = Implies(f1, f2)
        frontier = new
        if not new:
            break
    return vecs


def _oracle_template_findings(layer, max_worlds, atoms, depth):
    """Every template checked model by model, in validate_layer's model
    order, on a fresh space of the model's own realized vectors."""
    sig = Signature(Mode.CLASSICAL, layer.logic,
                    dict.fromkeys(atoms, PROPOSITION))
    schemas = [s for s in layer.schemas.values() if s.kind == "template"]
    counts = [0] * len(schemas)
    found = [None] * len(schemas)
    models = (KripkeInterpretation(sig, n, 1, R,
                                   dict(zip(reversed(atoms), v)))
              for n in range(1, max_worlds + 1)
              for R in frames_for(layer.logic, n)
              for v in itertools.product(range(1 << n), repeat=len(atoms)))
    for m in models:
        vecs = _oracle_vectors(m, atoms, depth)
        for i, s in enumerate(schemas):
            if found[i] is not None:
                continue
            space = ColumnSpace.product(m.n_worlds, m.frames,
                                        range(len(s.metavars)), sorted(vecs),
                                        m.actual)
            fails = space.all_worlds ^ compile_mask(s.template)(
                space, dict(zip(s.metavars, space.denot.values())))
            if not fails:
                counts[i] += space.n_columns
                continue
            c, w = divmod(lowest_bit(fails), m.n_worlds)
            counts[i] += c + 1
            vals = {k: bin(x) for k, x in sorted(m.denot.items())}
            found[i] = (tuple(vecs[x] for x in space.column(c)[1]),
                        f"|W|={m.n_worlds} R={sorted(m.access)} {vals}", w)
    return [SchemaFinding(s.name, n, ce)
            for s, n, ce in zip(schemas, counts, found)]


def _bogus_templates():
    metas = st.sampled_from([P_meta(), Exemplify(Var("q", PROPOSITION), ())])
    return st.recursive(metas, lambda sub: st.one_of(
        st.builds(Not, sub), st.builds(Box, sub), st.builds(Actually, sub),
        st.builds(Implies, sub, sub)), max_leaves=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(_bogus_templates(), min_size=1, max_size=3),
       st.sampled_from(["K", "KB", "S5"]), st.integers(1, 2),
       st.sampled_from([("p",), ("p", "q")]), st.integers(1, 3), st.data())
def test_validate_layer_matches_per_model_loop(templates, name, max_worlds,
                                               atoms, depth, data):
    # one check per (frame, realized set) gives every model's count and the
    # first counterexample, witnesses included, of checking each model
    schemas = {}
    for j, t in enumerate(templates):
        metavars = data.draw(st.permutations(sorted(free_names(t))))
        schemas[f"bogus{j}"] = Schema(f"bogus{j}", "template", t,
                                      tuple(metavars))
    layer = Layer("bogus", make_layer(name).logic, Mode.CLASSICAL, schemas)
    report = validate_layer(layer, max_worlds=max_worlds, atoms=atoms,
                            generator_depth=depth)
    assert report.schema_findings == _oracle_template_findings(
        layer, max_worlds, atoms, depth)


@pytest.mark.parametrize("name,template,atoms", [
    ("KB", Implies(P_meta(), Box(P_meta())), ("p", "q")),
    ("S5", Implies(Actually(P_meta()), Box(P_meta())), ("p",)),
], ids=["KB", "S5"])
def test_validate_layer_matches_per_model_loop_fixed(name, template, atoms):
    # fixed cases beside the property, whose draws at two worlds rarely
    # need the subset reading: here the lowest failing column of the whole
    # block, or the failures at world 0 alone, give another finding than
    # the first failing tuple of the model's own realized vectors
    layer = Layer("bogus", make_layer(name).logic, Mode.CLASSICAL,
                  {"bogus": Schema("bogus", "template", template, ("p",))})
    report = validate_layer(layer, max_worlds=2, atoms=atoms,
                            generator_depth=1)
    assert report.schema_findings == _oracle_template_findings(
        layer, 2, atoms, 1)


# ---------------------------------------------------------------------------
# validate_layer's builtin half against a per-space loop

def _oracle_builtin_findings(layer):
    """The builtin schemas checked one instance at a time, one compile_mask
    per instance, on one ColumnSpace per (test frame, domain size) in
    (world count, frame, domain size) order; in each, the lowest failing
    column, then its first failing assignment."""
    from finmodal import abstraction
    x, y = Var("x", INDIVIDUAL), Var("y", INDIVIDUAL)
    Sx, Sy = (Exemplify(Const("S", REL1), (v,)) for v in (x, y))
    p = Exemplify(Const("p", PROPOSITION), ())
    phis = [Sx, Implies(Sx, p), Box(Sx), Forall(y, Implies(Sy, Sx))]
    spaces = []
    for n_w in (1, 2):
        if layer.logic is LogicTag.S5TOTAL:
            frames = [total_access(n_w)]
        elif n_w == 1:
            frames = [frozenset(), total_access(1)]
        else:
            frames = [frozenset(), total_access(2), frozenset({(0, 1)})]
        for fr in frames:
            for n_d in (1, 2):
                names = [f"S{d}" for d in reversed(range(n_d))] + ["p"]
                ps = ColumnSpace.product(n_w, [fr], names, range(1 << n_w))
                S = sum(ps.denot[f"S{d}"] << (d * ps.width)
                        for d in range(n_d))
                spaces.append(ColumnSpace(n_w, ps.frames, ps.n_columns,
                                          {"S": S, "p": ps.denot["p"]},
                                          n_individuals=n_d))
    out = []
    for s in layer.schemas.values():
        if s.kind == "template":
            continue
        new = abstraction.schema_instance
        instances = {
            "inst": lambda: [new(s, {"alpha": x, "phi": phi, "tau": tau})
                             for phi in phis for tau in (x, y)],
            "dist": lambda: [new(s, {"alpha": x, "phi": phi, "psi": psi})
                             for phi in phis for psi in phis],
            "vac": lambda: [new(s, {"alpha": y, "phi": Sx}),
                            new(s, {"alpha": x, "phi": p})],
            "eq_refl": lambda: [new(s, {"tau": x})],
        }[s.kind]()
        count, counterexample = 0, None
        for inst in instances:
            fv = sorted(free_names(inst))
            holds = compile_mask(inst)
            for space in spaces:
                n_w = space.n_worlds
                assigns = [dict(zip(fv, ds)) for ds in itertools.product(
                    range(space.n_individuals), repeat=len(fv))]
                fails = [space.all_worlds ^ holds(space, a) for a in assigns]
                bad = [(lowest_bit(f) // n_w, j)
                       for j, f in enumerate(fails) if f]
                if not bad:
                    count += space.n_columns * len(assigns)
                    continue
                c, j = min(bad)
                count += c * len(assigns) + j + 1
                model = {k: bin(v) for k, v in
                         zip("Sp", divmod(c, 1 << n_w))}
                counterexample = (
                    inst, f"|W|={n_w} R={sorted(space.frames[0])} {model}",
                    lowest_bit(fails[j]) % n_w)
                break
            if counterexample:
                break
        out.append(SchemaFinding(s.name, count, counterexample))
    return out


def _bogus_first_order():
    x, y = Var("x", INDIVIDUAL), Var("y", INDIVIDUAL)
    atoms = st.sampled_from([Exemplify(Const("S", REL1), (x,)),
                             Exemplify(Const("S", REL1), (y,)), P])
    return st.recursive(atoms, lambda sub: st.one_of(
        st.builds(Not, sub), st.builds(Box, sub), st.builds(Actually, sub),
        st.builds(Implies, sub, sub),
        st.builds(Forall, st.sampled_from([x, y]), sub)), max_leaves=6)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["K", "KB", "S5"]),
       st.sets(st.sampled_from(["inst", "dist", "vac", "eq_refl"]),
               min_size=1),
       st.lists(_bogus_first_order(), min_size=1, max_size=4))
def test_builtins_match_per_space_loop(name, kinds, bogus):
    # each instance of a patched kind is one of the bogus formulas, picked
    # by its substitution; the counts and first counterexamples, models,
    # assignments and worlds included, are those of checking one space per
    # (test frame, domain size) in order
    from finmodal import abstraction
    real = abstraction.schema_instance

    def patched(s, subst, mode=Mode.CLASSICAL):
        if s.kind not in kinds:
            return real(s, subst, mode)
        key = repr(sorted((k, repr(v)) for k, v in subst.items()))
        return bogus[zlib.crc32(key.encode()) % len(bogus)]
    layer = make_layer(name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(abstraction, "schema_instance", patched)
        report = validate_layer(layer, max_worlds=1)
        want = _oracle_builtin_findings(layer)
    builtins = [f for f in report.schema_findings
                if layer.schemas[f.schema].kind != "template"]
    assert builtins == want


@pytest.mark.parametrize("name", ["K", "KB", "S5"])
def test_builtins_build_four_spaces(monkeypatch, name):
    # one space per (world count, domain size), each frame a block, and
    # each distinct node of the instances evaluated once per space and
    # values of its free variables
    from finmodal import abstraction, kripke
    built = []
    evaluations = collections.Counter()
    real = kripke._mask_node

    class Counted(ColumnSpace):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    def counted(f, sub):
        fn, names = real(f, sub), sorted(free_names(f))

        def run(m, a):
            evaluations[f, id(m), tuple(a[n] for n in names)] += 1
            return fn(m, a)
        return run
    instances = []

    def recorded(*args):
        instances.append(real_instance(*args))
        return instances[-1]
    real_instance = abstraction.schema_instance
    monkeypatch.setattr(abstraction, "ColumnSpace", Counted)
    monkeypatch.setattr(abstraction, "schema_instance", recorded)
    monkeypatch.setattr(kripke, "_mask_node", counted)
    layer = make_layer(name)
    findings = abstraction._validate_builtins(
        [s for s in layer.schemas.values() if s.kind != "template"], layer)
    assert [f.instances for f in findings] == list(
        TestValidateLayer.GOLDEN_BUILTINS[name].values())
    assert len(built) == 4
    # 27 instances with 321 formula nodes as trees, 93 of them distinct
    assert len(instances) == 27
    distinct = {n for i in instances for n in subnodes(i)
                if not isinstance(n, (Var, Const))}
    assert len(distinct) == 93
    assert {f for f, _, _ in evaluations} == distinct
    assert set(evaluations.values()) == {1}
