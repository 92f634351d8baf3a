import itertools

import pytest

import finmodal.ontoarg as oa
from finmodal.abstraction import Rejected
from finmodal.cli import run
from finmodal.formulas import (
    And, Iff, Implies, Not, PROPOSITION, REL1, SECOND_ORDER, Xor, subnodes,
)
from finmodal.kripke import (
    KripkeInterpretation, evaluate, full_relspace, is_rigid_value,
    total_access,
)
from finmodal.macros import expand_derived
from finmodal.modelfind import (
    Bounds, LeafTable, decide_sat, find_countermodel, frame_requirements,
)
from finmodal.ontoarg import (
    EssenceKind, PremiseSet, UltrafilterReport, VARIANT_NAMES, essence_holds,
    find_vagueness_witness, run_variant_suite, ultrafilter_report,
    variant,
)
from finmodal.parser import parse_formula
from finmodal.problemfile import load_problem
from finmodal.signature import LogicTag, Mode, Signature


B22 = Bounds(max_worlds=2, max_individuals=2)


def small_model(n_worlds=2, n_individuals=2, p_rows=None, q_mask=0):
    sig = Signature(Mode.CLASSICAL, LogicTag.S5TOTAL,
                    {"P": SECOND_ORDER, "q": PROPOSITION})
    relspace = full_relspace(n_individuals, n_worlds)
    full_w = (1 << n_worlds) - 1
    table = {v: 0 for v in relspace}
    for v in (p_rows or {}):
        table[v] = (p_rows or {})[v]
    return KripkeInterpretation(sig, n_worlds, n_individuals,
                                total_access(n_worlds),
                                {"P": table, "q": q_mask}, relspace)


class TestVariants:
    def test_names(self):
        assert set(VARIANT_NAMES) == {"goedel", "scott", "anderson", "fitting"}
        with pytest.raises(ValueError):
            variant("leibniz")

    def test_scott_essence_has_possession_conjunct(self):
        from finmodal.formulas import Exemplify, INDIVIDUAL, MacroFormula, Var
        ess = expand_derived(
            MacroFormula("ess_s", (Var("Y", REL1), Var("x", INDIVIDUAL))))
        # the expanded conjunction ~(Yx -> ~(...)) starts with possession
        assert isinstance(ess, Not)
        assert isinstance(ess.body.left, Exemplify)
        assert ess.body.left.rel == Var("Y", REL1)

    def test_goedel_polarity_uses_exclusive_or(self):
        f = dict(variant("goedel").premises)["A1"]
        assert any(isinstance(n, Xor) for n in subnodes(f))

    def test_anderson_polarity_single_direction(self):
        f = dict(variant("anderson").premises)["A1"]
        assert not any(isinstance(n, (Iff, Xor)) for n in subnodes(f))
        assert any(isinstance(n, Implies) for n in subnodes(f))

    @pytest.mark.parametrize("name", VARIANT_NAMES)
    def test_variant_is_read_from_its_problem_file(self, name, monkeypatch,
                                                   tmp_path):
        problem = load_problem(f"problems/{name}.problem")
        monkeypatch.chdir(tmp_path)
        ps = variant(name)
        assert [label for label, _ in ps.premises] == [
            f"A{i}" for i in range(1, len(problem.premises) + 1)]
        assert ps.formulas() == tuple(problem.premises)
        assert ps.sig == problem.sig
        assert ps.relvar_domain == problem.relvar_domain
        assert ps.bounds == problem.bounds

    def test_missing_problems_directory_is_usage_error(self, monkeypatch,
                                                       tmp_path, capsys):
        monkeypatch.setattr(oa, "PROBLEMS_DIR", tmp_path / "problems")
        code = run(["corpus", "goedel", "--outdir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: cannot read ")

    def test_fitting_is_rigidly_quantified_scott(self):
        fs = variant("fitting")
        ss = variant("scott")
        assert [t for _, t in fs.premises] == [t for _, t in ss.premises]
        assert fs.relvar_domain == "rigid"
        assert fs.notes


class TestEssence:
    def test_empty_property_is_an_essence_without_the_conjunct(self):
        m = small_model()
        empty = 0
        for x in range(2):
            for w in range(2):
                assert essence_holds(EssenceKind.GOEDEL, empty, x, m, w)
                assert not essence_holds(EssenceKind.SCOTT, empty, x, m, w)

    def test_kinds_agree_when_possession_holds(self):
        m = small_model()
        for y, x, w in itertools.product(m.relspace, range(2), range(2)):
            if (y >> (x * 2 + w)) & 1:  # Y x holds at w
                assert essence_holds(EssenceKind.GOEDEL, y, x, m, w) == \
                    essence_holds(EssenceKind.SCOTT, y, x, m, w)


class TestRigidity:
    def test_constant_extension(self):
        m = small_model()
        assert is_rigid_value(0b0000, m.n_individuals, m.n_worlds)
        assert is_rigid_value(0b1111, m.n_individuals, m.n_worlds)
        assert not is_rigid_value(0b0001, m.n_individuals, m.n_worlds)

    def test_rigid_count_is_two_to_the_individuals(self):
        m = small_model()
        assert sum(1 for v in m.relspace
                   if is_rigid_value(v, m.n_individuals, m.n_worlds)) == 4

    def test_rigid_family_closed_under_complement_and_meet(self):
        m = small_model()
        rigid = [v for v in m.relspace
                 if is_rigid_value(v, m.n_individuals, m.n_worlds)]
        full = len(m.relspace) - 1
        for a in rigid:
            assert (full ^ a) in rigid
            for b in rigid:
                assert (a & b) in rigid


class TestUltrafilters:
    def test_principal_ultrafilter(self):
        # individuals {d0, d1}: positives are the rigid {d0} and {d0, d1}
        rows = {0b0011: 0b11, 0b1111: 0b11}
        m = small_model(p_rows=rows)
        report = ultrafilter_report(m, "Pprime")
        assert report.is_ultrafilter

    def test_maximality_failure_witnessed(self):
        rows = {0b1111: 0b11}
        m = small_model(p_rows=rows)
        report = ultrafilter_report(m, "Pprime")
        assert not report.maximal
        assert "maximal" in report.witnesses

    def test_properness_failure(self):
        rows = {v: 0b11 for v in range(16)}
        m = small_model(p_rows=rows)
        report = ultrafilter_report(m, "P")
        assert not report.proper and not report.is_ultrafilter

    def test_upward_closure_failure_witnessed(self):
        # {d0} alone: its superset {d0, d1 at w0} is missing
        report = ultrafilter_report(small_model(p_rows={0b0011: 0b11}), "P")
        assert report.family == (0b0011,)
        assert not report.upward_closed and report.meet_closed
        assert report.witnesses["upward"] == (0b0011, 0b0111)

    def test_meet_closure_failure_witnessed(self):
        # every property holding of d0 or of d1 at w0: upward closed, but
        # the meet of {d0 at w0} and {d1 at w0} is empty
        rows = {v: 0b11 for v in range(16) if v & 0b0101}
        report = ultrafilter_report(small_model(p_rows=rows), "P")
        assert report.upward_closed and not report.meet_closed
        assert report.witnesses["meet"] == (0b0001, 0b0100)

    def test_model_without_positivity_raises(self):
        sig = Signature(Mode.CLASSICAL, LogicTag.S5TOTAL, {"q": PROPOSITION})
        m = KripkeInterpretation(sig, 2, 2, total_access(2), {"q": 0},
                                 full_relspace(2, 2))
        with pytest.raises(ValueError, match="^the model does not interpret "
                                             "the positivity constant$"):
            ultrafilter_report(m, "P")

    def test_unknown_selector_raises(self):
        with pytest.raises(ValueError, match="^unknown selector 'Q'$"):
            ultrafilter_report(small_model(), "Q")


class TestWorldConstant:
    def test_constant_model(self):
        assert oa._all_world_constant(small_model(p_rows={0b0011: 0b11}))

    @pytest.mark.parametrize("m", [
        small_model(p_rows={0b0011: 0b01}),   # positivity varies by world
        small_model(q_mask=0b01),             # so does the proposition
        KripkeInterpretation(                 # and the unary relation
            Signature(Mode.CLASSICAL, LogicTag.S5TOTAL, {"S": REL1}), 2, 2,
            total_access(2), {"S": 0b0001}, full_relspace(2, 2)),
    ], ids=["second-order", "proposition", "unary-relation"])
    def test_a_constant_that_varies_by_world(self, m):
        assert not oa._all_world_constant(m)


class TestSuites:
    def test_goedel_inconsistent_with_accepted_refutation(self):
        rep = run_variant_suite("goedel")
        assert not rep.sat.is_sat
        from finmodal.abstraction import Accepted
        assert isinstance(rep.refutation, Accepted)

    def test_scott_consistent_collapsed_world_constant(self):
        rep = run_variant_suite("scott")
        assert rep.sat.is_sat
        assert rep.collapse_countermodel is None
        checked, all_const = rep.world_constant_models
        assert checked >= 1 and all_const
        assert rep.frame_verdicts[LogicTag.KB][0]
        assert rep.frame_verdicts[LogicTag.S5TOTAL][0]
        assert rep.ultrafilters["P"].is_ultrafilter
        assert rep.ultrafilters["Pprime"].is_ultrafilter
        assert rep.ultrafilters["P"].family and \
            set(rep.ultrafilters["P"].family) == set(rep.ultrafilters["Pprime"].family)

    def test_anderson_collapse_free_with_split_ultrafilters(self):
        rep = run_variant_suite("anderson")
        assert rep.sat.is_sat
        assert rep.collapse_countermodel is not None
        assert rep.collapse_countermodel.n_worlds >= 2
        assert not rep.ultrafilters["P"].is_ultrafilter
        assert rep.ultrafilters["Pprime"].is_ultrafilter
        assert rep.vagueness_witness is not None

    def test_fitting_collapse_free_rigid_ultrafilter(self):
        rep = run_variant_suite("fitting")
        assert rep.sat.is_sat
        assert rep.collapse_countermodel is not None
        assert rep.collapse_countermodel.n_worlds >= 2
        assert "P" not in rep.ultrafilters
        assert rep.ultrafilters["Pprime"].is_ultrafilter
        assert rep.godlike_extension_ok

    def test_refutation_rejected_in_the_report(self):
        rep = run_variant_suite("goedel")
        rep.refutation = Rejected(3, "mp-mismatch")
        assert "refutation script: rejected (Rejected(step=3, " \
               "reason='mp-mismatch'))\n" in rep.to_text()

    def test_no_vagueness_witness_without_premise_models(self, monkeypatch,
                                                         tmp_path):
        _variant_with(monkeypatch, tmp_path, "anderson",
                      "premise P NE_a", "premise P NE_a\npremise q & ~q")
        assert find_vagueness_witness() is None

    def test_godlike_extension_that_misses_the_intersection(
            self, monkeypatch, tmp_path):
        # G declared as a relation constant that holds of nothing, with its
        # complement positive: the positive rigid properties all hold of d0
        _variant_with(monkeypatch, tmp_path, "fitting", "premise P G",
                      "const G : rel\npremise all x (~G x)\n"
                      "premise P (neg G)")
        rep = run_variant_suite("fitting")
        assert rep.godlike_extension_ok is False
        assert rep.to_text().endswith(
            "godlike extension matches the intersection of the positive "
            "rigid properties: no\n")

    def test_vagueness_witness_has_two_godlike_individuals(self):
        m = find_vagueness_witness()
        assert m is not None
        sig = variant("anderson").sig
        gx = expand_derived(parse_formula("G* x", sig))
        godlike = [d for d in range(m.n_individuals)
                   if evaluate(gx, m, {"x": d}, m.actual)]
        assert len(godlike) >= 2


def _variant_with(monkeypatch, tmp_path, name, old, new):
    """Read the variant name from a copy of its problem file in which the
    line old is replaced by the lines new."""
    text = (oa.PROBLEMS_DIR / f"{name}.problem").read_text()
    assert text.count(old + "\n") == 1
    (tmp_path / f"{name}.problem").write_text(text.replace(old, new))
    monkeypatch.setattr(oa, "PROBLEMS_DIR", tmp_path)


def _assert_same_model(got, want):
    if want is None:
        assert got is None
        return
    for field in ("n_worlds", "n_individuals", "access", "denot", "relspace",
                  "actual", "relvar_domain"):
        assert getattr(got, field) == getattr(want, field), field
    assert got.sig.logic is want.sig.logic


class TestSharedLeafTable:
    @pytest.mark.parametrize("name", VARIANT_NAMES)
    def test_suite_searches_match_fresh_calls(self, name):
        # the searches of run_variant_suite, in its order, over one table,
        # against each search run on its own
        ps = variant(name)
        premises, b, reading = ps.formulas(), ps.bounds, ps.relvar_domain
        tags = (LogicTag.K, LogicTag.KB, LogicTag.S5TOTAL)
        table = LeafTable(premises, reading)
        sat = decide_sat(premises, ps.sig, b, relvar_domain=reading,
                         table=table)
        verdicts = frame_requirements(premises, ps.main_theorem, ps.sig,
                                      tags, b, reading, table)
        collapse = find_countermodel(premises, ps.collapse, ps.sig, b,
                                     relvar_domain=reading, table=table)
        models = oa._satisfying_models(ps, b, table)
        if name in ("scott", "anderson"):
            # the K search stopped partway through its countermodel's node
            assert not verdicts[LogicTag.K][0]
            assert any(gen is not None for _, gen in table._nodes.values())

        want = decide_sat(premises, ps.sig, b, relvar_domain=reading)
        assert sat.examined == want.examined
        _assert_same_model(sat.model, want.model)
        for tag in tags:
            cm = find_countermodel(premises, ps.main_theorem,
                                   ps.sig.with_logic(tag), b,
                                   relvar_domain=reading)
            assert verdicts[tag][0] == (cm is None)
            _assert_same_model(verdicts[tag][1], cm)
        _assert_same_model(collapse, find_countermodel(
            premises, ps.collapse, ps.sig, b, relvar_domain=reading))
        want_models = oa._satisfying_models(ps, b)
        assert len(models) == len(want_models)
        for got, m in zip(models, want_models):
            _assert_same_model(got, m)


class TestEssenceEntailment:
    def test_scott_essence_entails_the_weaker_notion(self):
        # pointwise over every (Y, x, w) of a full two-by-two model
        m = small_model()
        for y, x, w in itertools.product(m.relspace, range(2), range(2)):
            if essence_holds(EssenceKind.SCOTT, y, x, m, w):
                assert essence_holds(EssenceKind.GOEDEL, y, x, m, w)
