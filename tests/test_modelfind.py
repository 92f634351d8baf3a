import itertools
import random

import pytest

from finmodal.formulas import (
    INDIVIDUAL, PROPOSITION, REL1, Box, Const, alpha_equivalent,
    beta_normalize,
)
from finmodal.kripke import compile_mask, compile_world, evaluate, frame_check
from finmodal.macros import expand_derived
from finmodal.modelfind import (
    MODEL_BUDGET, Bounds, LeafTable, SearchBoundsError, _expansion_error,
    _freeze, _run_search, _search_node, _size_nodes, count_models, decide_sat,
    enumerate_models, find_countermodel, frame_requirements,
    minimize_premises,
)
from finmodal.macros import primitive_form
from finmodal.parser import parse_formula
from finmodal.problemfile import load_problem
from finmodal.signature import LogicTag, Mode, Signature

from conftest import propositional_formulas, random_formula


def sig_of(consts, logic=LogicTag.S5TOTAL):
    return Signature(Mode.CLASSICAL, logic, consts)


class TestEnumerate:
    def test_single_bit_unary_constant(self):
        sig = sig_of({"S": REL1})
        models = list(enumerate_models(sig, Bounds(1, 1)))
        assert len(models) == 2  # one (d, w) bit
        assert count_models(sig, Bounds(1, 1)) == 2

    def test_two_world_proposition_count(self):
        sig = sig_of({"p": PROPOSITION})
        b = Bounds(max_worlds=2, max_individuals=1)
        models = [m for m in enumerate_models(sig, b) if m.n_worlds == 2]
        assert len(models) == 4  # 2^2 valuations, one total frame

    def test_counts_match_closed_form(self):
        for consts, logic in [
            ({"p": PROPOSITION}, LogicTag.K),
            ({"p": PROPOSITION, "S": REL1}, LogicTag.KB),
            ({"c": INDIVIDUAL}, LogicTag.S5TOTAL),
        ]:
            sig = sig_of(consts, logic)
            b = Bounds(max_worlds=2, max_individuals=2)
            assert len(list(enumerate_models(sig, b))) == count_models(sig, b)

    def test_binary_and_second_order_counts_match_enumeration(self):
        from finmodal.formulas import SECOND_ORDER, Relation
        sig = sig_of({"R": Relation(2), "P": SECOND_ORDER}, LogicTag.KB)
        for b in (Bounds(2, 1), Bounds(1, 2)):
            assert len(list(enumerate_models(sig, b))) == count_models(sig, b)

    def test_stream_restart_is_identical(self):
        sig = sig_of({"p": PROPOSITION}, LogicTag.K)
        b = Bounds(max_worlds=2, max_individuals=1)
        first = [(m.n_worlds, sorted(m.access), m.denot["p"])
                 for m in enumerate_models(sig, b)]
        second = [(m.n_worlds, sorted(m.access), m.denot["p"])
                  for m in enumerate_models(sig, b)]
        assert first == second

    def test_cap_exceeded(self):
        sig = sig_of({"P": __import__("finmodal.formulas",
                                      fromlist=["SECOND_ORDER"]).SECOND_ORDER})
        with pytest.raises(SearchBoundsError):
            count_models(sig, Bounds(max_worlds=3, max_individuals=2))


class TestDecideSat:
    def test_contradiction_unsat(self):
        sig = sig_of({"p": PROPOSITION})
        premises = [parse_formula("p", sig), parse_formula("~p", sig)]
        result = decide_sat(premises, sig, Bounds(2, 1))
        assert not result.is_sat
        assert result.examined == 0  # pruned before any complete model

    def test_first_model_is_canonical(self):
        sig = sig_of({"p": PROPOSITION})
        result = decide_sat([parse_formula("<>p & <>~p", sig)], sig,
                            Bounds(2, 1))
        assert result.is_sat
        assert result.model.n_worlds == 2
        assert result.model.denot["p"] == 0b01  # smallest world mask that fits

    def test_worker_counts_agree(self):
        sig = sig_of({"p": PROPOSITION, "q": PROPOSITION}, LogicTag.K)
        premises = [parse_formula("[](p -> q)", sig),
                    parse_formula("<>p", sig)]
        r1 = decide_sat(premises, sig, Bounds(3, 1), workers=1)
        r4 = decide_sat(premises, sig, Bounds(3, 1), workers=4)
        assert r1.is_sat == r4.is_sat
        assert r1.examined == r4.examined
        assert r1.model.access == r4.model.access
        assert r1.model.denot == r4.model.denot


class TestCountermodels:
    def test_p_implies_box_p(self):
        sig = sig_of({"p": PROPOSITION})
        cm = find_countermodel([], parse_formula("p -> []p", sig), sig,
                               Bounds(2, 1))
        assert cm is not None
        assert cm.n_worlds == 2
        assert not evaluate(parse_formula("p -> []p", sig), cm, {}, 0) \
            or not evaluate(parse_formula("p -> []p", sig), cm, {}, 1)

    def test_no_countermodel_for_tautology(self):
        sig = sig_of({"p": PROPOSITION})
        cm = find_countermodel([], parse_formula("p -> p", sig), sig,
                               Bounds(2, 1))
        assert cm is None


def _unfiltered_countermodel(premises, conjecture, sig, b,
                             relvar_domain="full", table=None):
    """find_countermodel's tree search over every size node, leaves tested
    with compile_mask on each complete interpretation: what it returns
    when no frame is skipped and no premise-free shortcut is taken."""
    conjecture_n = primitive_form(conjecture, _expansion_error)
    holds = compile_mask(conjecture_n)
    if table is None:
        table = LeafTable(premises, relvar_domain)
    nodes = list(_size_nodes(sig, b, (*table.premises_n, conjecture_n)))
    model, _ = _run_search(premises, sig, b,
                           lambda m: holds(m, {}) != m.all_worlds,
                           relvar_domain, table, nodes)
    return model


def _assert_same_model(got, want):
    if want is None:
        assert got is None
        return
    for field in ("sig", "n_worlds", "n_individuals", "access", "denot",
                  "relspace", "actual", "relvar_domain"):
        assert getattr(got, field) == getattr(want, field), field


class TestPackedCountermodels:
    """Without premises, over proposition constants, find_countermodel
    checks each frame's valuations at once; its model is the tree
    search's."""

    @pytest.mark.parametrize("stem", ["kdia", "s5"])
    def test_shipped_premise_free_problems(self, stem):
        problem = load_problem(f"problems/{stem}.problem")
        assert not problem.premises
        for conjecture in (problem.conjectures[0],
                           parse_formula("<>p -> []q", problem.sig)):
            _assert_same_model(
                find_countermodel((), conjecture, problem.sig,
                                  problem.bounds),
                _unfiltered_countermodel((), conjecture, problem.sig,
                                         problem.bounds))

    def test_random_conjectures(self):
        # random formulas substituted into schema shapes: valid instances
        # make the search exhaust every frame, invalid ones of the modal
        # shapes need two or three worlds to fail
        from hypothesis import given, settings, strategies as st
        from finmodal.abstraction import _template_schemas, instantiate_template
        from finmodal.formulas import (
            And, Actually, Box, Diamond, Exemplify, Iff, Implies, Or, Var,
            subnodes,
        )

        p, q, r = (Exemplify(Var(n, PROPOSITION), ()) for n in "pqr")
        shapes = [s.template for s in _template_schemas().values()] + [
            p, Implies(Diamond(p), Box(p)), Implies(Box(p), Box(Box(p))),
            Implies(Diamond(Box(p)), Box(Diamond(p))),
            Iff(Actually(p), Box(Actually(p))),
            Implies(And(And(Diamond(p), Diamond(q)), Diamond(r)),
                    Or(Or(Diamond(And(p, q)), Diamond(And(p, r))),
                       Diamond(And(q, r))))]

        @settings(max_examples=60, deadline=None)
        @given(st.sampled_from(shapes),
               st.lists(propositional_formulas(("p", "q", "r"), 2),
                        min_size=3, max_size=3),
               st.sampled_from([LogicTag.K, LogicTag.KB, LogicTag.S5TOTAL]),
               st.integers(1, 3), st.integers(1, 2),
               st.sets(st.sampled_from(("p", "q", "r"))),
               st.sampled_from(["full", "rigid"]))
        def check(shape, subs, logic, max_w, max_d, extra, relvar_domain):
            f = instantiate_template(shape, dict(zip("pqr", subs)))
            names = {n.rel.name for n in subnodes(f)
                     if isinstance(n, Exemplify)} | extra
            sig = sig_of({n: PROPOSITION for n in names}, logic)
            b = Bounds(max_worlds=max_w, max_individuals=max_d)
            if count_models(sig, b) > 70_000:
                # three constants over K-frames at three worlds: a valid
                # conjecture costs the tree search seconds
                b = Bounds(max_worlds=max_w - 1, max_individuals=max_d)
            _assert_same_model(
                find_countermodel((), f, sig, b, relvar_domain=relvar_domain),
                _unfiltered_countermodel((), f, sig, b, relvar_domain))

        check()


class TestMinimize:
    def test_three_premise_example(self):
        sig = sig_of({"p": PROPOSITION, "q": PROPOSITION, "r": PROPOSITION})
        premises = [parse_formula(s, sig) for s in ("p", "q", "p -> r")]
        conjecture = parse_formula("r", sig)
        minimal = minimize_premises(premises, conjecture, sig, Bounds(2, 1))
        assert minimal == [(0, 2)]

    def test_duplicate_premises_collapse(self):
        sig = sig_of({"p": PROPOSITION})
        premises = [parse_formula("p", sig), parse_formula("p", sig)]
        minimal = minimize_premises(premises, parse_formula("p", sig), sig,
                                    Bounds(2, 1))
        assert minimal == [(0,), (1,)]  # each alone suffices, never both

    def test_single_premise_sufficiency_matches_brute_force(self):
        # a three-premise set where one premise alone carries the conclusion
        sig = sig_of({"p": PROPOSITION, "q": PROPOSITION})
        premises = [parse_formula(s, sig)
                    for s in ("[](p & q)", "q -> p", "<>q")]
        conjecture = parse_formula("[]p", sig)
        b = Bounds(2, 1)
        minimal = minimize_premises(premises, conjecture, sig, b)

        # oracle: try all seven non-empty subsets directly
        sufficient = []
        for size in (0, 1, 2, 3):
            for subset in itertools.combinations(range(3), size):
                if find_countermodel([premises[i] for i in subset],
                                     conjecture, sig, b) is None:
                    sufficient.append(subset)
        expected = [s for s in sufficient
                    if not any(set(t) < set(s) for t in sufficient)]
        assert minimal == expected
        assert (0,) in minimal

    def test_failing_conjecture_rejected(self):
        sig = sig_of({"p": PROPOSITION, "q": PROPOSITION})
        with pytest.raises(ValueError):
            minimize_premises([parse_formula("p", sig)],
                              parse_formula("q", sig), sig, Bounds(2, 1))


class TestFrameRequirements:
    def test_five_axiom_over_the_three_logics(self):
        sig = sig_of({"p": PROPOSITION}, LogicTag.K)
        conjecture = parse_formula("<>p -> []<>p", sig)
        verdicts = frame_requirements(
            [], conjecture, sig, (LogicTag.K, LogicTag.KB, LogicTag.S5TOTAL),
            Bounds(2, 1))
        assert verdicts[LogicTag.K][0] is False
        assert verdicts[LogicTag.KB][0] is False
        assert verdicts[LogicTag.S5TOTAL][0] is True

    def test_tautology_holds_everywhere(self):
        sig = sig_of({"p": PROPOSITION}, LogicTag.K)
        verdicts = frame_requirements(
            [], parse_formula("p -> p", sig), sig,
            (LogicTag.K, LogicTag.KB, LogicTag.S5TOTAL), Bounds(2, 1))
        assert all(v[0] for v in verdicts.values())

    def test_kb_countermodels_have_symmetric_frames(self):
        sig = sig_of({"p": PROPOSITION}, LogicTag.KB)
        cm = find_countermodel([], parse_formula("p -> []p", sig), sig,
                               Bounds(2, 1))
        assert cm is not None
        assert frame_check(cm, LogicTag.KB)


class TestPrunedSearchAgainstPlainEnumeration:
    """The pruned searcher and the unpruned canonical enumerator must agree
    wherever the unpruned space is small enough to walk directly."""

    def _agree(self, premises, sig, bounds):
        from finmodal.kripke import Validity, validity
        pruned = decide_sat(premises, sig, bounds)
        plain = [m for m in enumerate_models(sig, bounds)
                 if all(validity(p, m, Validity.NECESSARY) for p in premises)]
        assert pruned.is_sat == bool(plain)
        if plain:
            first = plain[0]
            assert pruned.model.n_worlds == first.n_worlds
            assert pruned.model.access == first.access
            assert pruned.model.denot == first.denot
        return len(plain)

    def test_unemended_corpus_premises_at_one_individual(self):
        from finmodal.ontoarg import variant
        ps = variant("goedel")
        n = self._agree(ps.formulas(), ps.sig,
                        Bounds(max_worlds=2, max_individuals=1))
        assert n == 0

    def test_emended_corpus_premises_at_one_individual(self):
        from finmodal.ontoarg import variant
        ps = variant("scott")
        n = self._agree(ps.formulas(), ps.sig,
                        Bounds(max_worlds=2, max_individuals=1))
        assert n > 0

    def test_modal_premises_over_arbitrary_frames(self):
        sig = sig_of({"p": PROPOSITION, "q": PROPOSITION}, LogicTag.K)
        premises = [parse_formula("[](p -> q) & <>p & ~q", sig)]
        self._agree(premises, sig, Bounds(max_worlds=2, max_individuals=1))


class TestExhaustivenessProperty:
    def test_enumeration_count_matches_closed_form(self):
        from hypothesis import given, settings, strategies as st

        sorts = {"prop": PROPOSITION, "rel": REL1, "ind": INDIVIDUAL}

        @settings(max_examples=40, deadline=None)
        @given(
            st.lists(st.sampled_from(sorted(sorts)), min_size=1, max_size=2),
            st.sampled_from([LogicTag.K, LogicTag.KB, LogicTag.S5TOTAL]),
            st.integers(1, 2), st.integers(1, 2),
        )
        def check(kinds, logic, max_w, max_d):
            consts = {f"c{i}_{k}": sorts[k] for i, k in enumerate(kinds)}
            sig = sig_of(consts, logic)
            b = Bounds(max_worlds=max_w, max_individuals=max_d)
            assert sum(1 for _ in enumerate_models(sig, b)) == \
                count_models(sig, b)

        check()


def test_size_nodes_list_each_world_count_once(monkeypatch):
    from finmodal import modelfind
    from finmodal.kripke import frames_for
    listed = []

    def counting(logic, n_worlds):
        listed.append(n_worlds)
        return frames_for(logic, n_worlds)
    monkeypatch.setattr(modelfind, "frames_for", counting)
    sig = sig_of({"p": PROPOSITION}, LogicTag.KB)
    nodes = list(_size_nodes(sig, Bounds(3, 3), ()))
    assert listed == [1, 2, 3]
    assert [node[:3] for node in nodes] == [
        (n_w, n_d, R) for n_w in (1, 2, 3) for n_d in (1, 2, 3)
        for R in frames_for(LogicTag.KB, n_w)]


class TestPruning:
    @pytest.mark.parametrize("name, nodes, leaves, evaluations", [
        ("goedel", 36, 0, 9290), ("scott", 4, 6, 663),
        ("anderson", 4, 18, 20202), ("fitting", 4, 18, 384)])
    def test_corpus_search_at_two_worlds_two_individuals(
            self, name, nodes, leaves, evaluations, monkeypatch):
        # Leaves: the complete interpretations no premise instance rules
        # out, summed over the nodes of an exhaustive search. Evaluations:
        # (instance, world) evaluations, which depend on the bit each
        # instance waits on; the figures are those of the tree-walking
        # evaluator the compiled instances replaced.
        from finmodal import modelfind
        from finmodal.ontoarg import variant
        calls = [0]

        def counting(g):
            holds = compile_world(g)

            def counted(m, a, w):
                calls[0] += 1
                return holds(m, a, w)
            return counted

        monkeypatch.setattr(modelfind, "compile_world", counting)
        ps = variant(name)
        b = Bounds(2, 2)
        premises_n = [beta_normalize(expand_derived(p))
                      for p in ps.formulas()]
        size_nodes = list(_size_nodes(ps.sig, b, premises_n))
        assert len(size_nodes) == nodes
        assert sum(1 for node in size_nodes
                   for _ in _search_node(node, ps.sig, premises_n,
                                         ps.relvar_domain, {})) == leaves
        assert calls[0] == evaluations


class TestLeafTable:
    TAGS = (LogicTag.K, LogicTag.KB, LogicTag.S5TOTAL)

    @pytest.mark.parametrize("name", ["goedel", "scott", "anderson",
                                      "fitting"])
    def test_total_access_leaves_do_not_depend_on_the_logic_tag(self, name):
        # what lets one table serve the K, KB and S5 searches: on a node
        # all three classes reach, _search_node lists the same leaves
        from finmodal.ontoarg import variant
        ps = variant(name)
        premises_n = [beta_normalize(expand_derived(p))
                      for p in ps.formulas()]
        nodes = list(_size_nodes(ps.sig.with_logic(LogicTag.S5TOTAL),
                                 ps.bounds, premises_n))
        for node in nodes:
            listed = [[(ok, _freeze(m).denot) for m, ok in _search_node(
                node, ps.sig.with_logic(tag), premises_n, ps.relvar_domain,
                {})] for tag in self.TAGS]
            assert listed[0] == listed[1] == listed[2], node

    @pytest.mark.parametrize("tag", TAGS, ids=lambda t: t.name)
    @pytest.mark.parametrize("name", ["goedel", "scott", "anderson",
                                      "fitting", "unlisted row"])
    def test_shared_size_tables_keep_every_leaf(self, name, tag):
        # the frames of one size share each premise instance's result at a
        # search position when the result reads no frame; each node's
        # leaves must still be those of _search_node without a shared
        # table, whichever nodes of the size visit a position first. In
        # "unlisted row", P has rows for rigid values only, so the leaf
        # check, its tables complete, reads P of a non-rigid q as false,
        # where a try at q's position (the last) waits on the row
        from finmodal.formulas import SECOND_ORDER
        from finmodal.ontoarg import variant
        if name == "unlisted row":
            sig = sig_of({"P": SECOND_ORDER, "q": PROPOSITION}, tag)
            premises = [parse_formula("~(P [\\x q])", sig)]
            b, relvar_domain = Bounds(2, 1), "rigid"
        else:
            ps = variant(name)
            sig, premises = ps.sig.with_logic(tag), ps.formulas()
            b, relvar_domain = ps.bounds, ps.relvar_domain
        premises_n = [beta_normalize(expand_derived(p)) for p in premises]
        nodes = list(_size_nodes(sig, b, premises_n))

        def read(leaves):
            return [(ok, m.denot if ok else None) for m, ok in leaves]

        want = [read((_freeze(m), ok) for m, ok in _search_node(
            node, sig, premises_n, relvar_domain, {})) for node in nodes]
        table = LeafTable(premises, relvar_domain)
        assert [read(table.node_leaves(node, sig)) for node in nodes] == want
        # a new table, its largest size's nodes read in turn from the last,
        # one leaf at a time, so other nodes make each position first
        table = LeafTable(premises, relvar_domain)
        largest = [node for node in nodes if node[:2] == nodes[-1][:2]]
        open_ = [table.node_leaves(node, sig) for node in reversed(largest)]
        for _ in range(3):
            for leaves in open_:
                next(leaves, None)
        assert [read(table.node_leaves(node, sig)) for node in nodes] == want

    @pytest.mark.parametrize("name, leaves, unshared, shared", [
        ("goedel", 0, 9290, 3244), ("scott", 74, 21338, 16106),
        ("anderson", 110, 106045, 99849), ("fitting", 122, 4155, 2250)])
    def test_compiled_body_calls_through_the_table(
            self, name, leaves, unshared, shared, monkeypatch):
        # the (instance, world) evaluations of an exhaustive K search at two
        # worlds and two individuals, as TestPruning counts them, through
        # the production LeafTable path and through it with no size table
        # (each node searched on its own)
        from finmodal import modelfind
        from finmodal.ontoarg import variant
        calls = [0]

        def counting(g):
            holds = compile_world(g)

            def counted(m, a, w):
                calls[0] += 1
                return holds(m, a, w)
            return counted

        monkeypatch.setattr(modelfind, "compile_world", counting)
        ps = variant(name)
        args = (ps.formulas(), ps.sig.with_logic(LogicTag.K), Bounds(2, 2),
                ps.relvar_domain)
        assert sum(1 for _ in modelfind.leaves(*args)) == leaves
        assert calls[0] == shared
        calls[0] = 0
        monkeypatch.setattr(LeafTable, "_size", lambda self, node, sig: None)
        assert sum(1 for _ in modelfind.leaves(*args)) == leaves
        assert calls[0] == unshared

    def test_table_refuses_other_premises(self):
        sig = sig_of({"p": PROPOSITION, "q": PROPOSITION}, LogicTag.K)
        premises = [parse_formula("p -> []q", sig)]
        table = LeafTable(premises)
        decide_sat(premises, sig, Bounds(2, 1), table=table)
        with pytest.raises(ValueError):
            decide_sat([parse_formula("q", sig)], sig, Bounds(2, 1),
                       table=table)
        with pytest.raises(ValueError):
            decide_sat(premises, sig, Bounds(2, 1), relvar_domain="rigid",
                       table=table)

    def test_equal_instance_bodies_share_one_closure(self):
        sig = sig_of({"p": PROPOSITION}, LogicTag.K)
        premises = [parse_formula("[]p -> p", sig) for _ in range(2)]
        assert premises[0] is not premises[1]
        table = LeafTable(premises)
        decide_sat(premises, sig, Bounds(2, 1), table=table)
        assert list(table.bodies) == [premises[0]]

    def test_shared_table_matches_fresh_calls_on_random_premises(
            self, monkeypatch):
        # Also against searches with no size table, each node on its own:
        # a Box inside a lambda, or a lambda's value kept per interpretation
        # (one with no constant), reads the frame where a search position
        # is shared, and a relation quantifier splits into many instances.
        from hypothesis import given, settings, strategies as st
        from finmodal import modelfind
        from finmodal.formulas import Exemplify, Forall, Lambda, Var

        sig = sig_of({"p": PROPOSITION, "q": PROPOSITION, "S": REL1},
                     LogicTag.K)
        bare = sig_of({}, LogicTag.K)
        x, y = Var("x0", INDIVIDUAL), Var("y", INDIVIDUAL)
        X, Y = Var("Y0", REL1), Var("Y", REL1)
        kept = {"result": 0, "needs the frame": 0}

        def premise(rng):
            depth = rng.randint(0, 2)
            kind = rng.choice(["closed", "all x", "all X", "lambda"])
            if kind == "closed":
                return random_formula(rng, sig, depth)
            if kind == "all x":
                return Forall(x, random_formula(rng, sig, depth, [x]))
            if kind == "all X":
                return Forall(X, random_formula(rng, sig, depth, [X]))
            if rng.random() < 0.5:
                body = Box(random_formula(rng, sig, depth - 1 if depth else 0,
                                          [y]))
            else:
                body = Forall(Y, Box(random_formula(rng, bare, depth, [y, Y])))
            return Forall(x, Exemplify(Lambda((y,), body), (x,)))

        def results(position):
            below, shared = position
            yield from (shared or {}).values()
            for child in (below or {}).values():
                yield from results(child)

        def searches(premises, conjecture, b, table=None):
            sat = decide_sat(premises, sig, b, table=table)
            return sat, [find_countermodel(premises, conjecture,
                                           sig.with_logic(tag), b, table=table)
                         for tag in self.TAGS]

        @settings(max_examples=60, deadline=None)
        @given(st.integers(0, 2**30), st.integers(1, 3),
               st.sampled_from([Bounds(2, 1), Bounds(2, 2)]))
        def check(seed, n_premises, b):
            rng = random.Random(seed)
            premises = [premise(rng) for _ in range(n_premises)]
            conjecture = premise(rng)
            table = LeafTable(premises)
            got = searches(premises, conjecture, b, table)
            for size in table._sizes.values():
                for r in results(size[2]):
                    kept["needs the frame" if r is modelfind._NeedsFrame
                         else "result"] += 1
            with monkeypatch.context() as mp:
                mp.setattr(LeafTable, "_size", lambda self, node, sig: None)
                unshared = searches(premises, conjecture, b)
            for want in (searches(premises, conjecture, b), unshared):
                assert got[0].examined == want[0].examined
                _assert_same_model(got[0].model, want[0].model)
                for cm, want_cm in zip(got[1], want[1]):
                    _assert_same_model(cm, want_cm)

        check()
        assert kept["result"] and kept["needs the frame"], kept


class TestOneFramePerClass:
    """find_countermodel skips a frame that is a world permutation of an
    earlier one with the same sizes, unless a premise or the conjecture
    reads the actual world; the first countermodel stays the same."""

    @pytest.mark.parametrize("name, tag, searched, all_nodes", [
        ("goedel", LogicTag.K, 24, 36), ("goedel", LogicTag.KB, 16, 20),
        ("fitting", LogicTag.K, 24, 36), ("fitting", LogicTag.KB, 16, 20),
        ("anderson", LogicTag.K, 13, 16), ("scott", LogicTag.K, 13, 16)])
    def test_main_theorem_nodes_at_corpus_bounds(self, name, tag, searched,
                                                 all_nodes):
        # all_nodes: the nodes searched when every frame was tried; the
        # goedel and fitting searches find no countermodel and so try every
        # node, the anderson and scott ones stop at their first
        from finmodal.ontoarg import variant
        ps = variant(name)
        table = LeafTable(ps.formulas(), ps.relvar_domain)
        sig = ps.sig.with_logic(tag)
        args = (ps.formulas(), ps.main_theorem, sig, ps.bounds,
                ps.relvar_domain)
        cm = find_countermodel(*args, table=table)
        assert len(table._nodes) == searched
        unfiltered = LeafTable(ps.formulas(), ps.relvar_domain)
        _assert_same_model(cm, _unfiltered_countermodel(*args, unfiltered))
        assert len(unfiltered._nodes) == all_nodes

    @pytest.mark.parametrize("premise, searched", [
        ("[]p -> p", 2 + 10 + 104),
        ("@p -> p", 2 + 16 + 512),
        # Actually only inside a macro argument, seen once expanded
        ("ent [\\x @(S x)] S", 2 + 16 + 512)])
    def test_actually_searches_every_node(self, premise, searched):
        # a valid conjecture: the search tries every node it keeps, all
        # 2 + 16 + 512 K frames up to three worlds, or one per class
        sig = sig_of({"p": PROPOSITION, "S": REL1}, LogicTag.K)
        premises = [parse_formula(premise, sig)]
        table = LeafTable(premises)
        assert find_countermodel(premises, parse_formula("p -> p", sig), sig,
                                 Bounds(3, 1), table=table) is None
        assert len(table._nodes) == searched
        assert len(list(_size_nodes(sig, Bounds(3, 1), table.premises_n))) \
            == 2 + 16 + 512

    def test_four_worlds_without_constants(self):
        # The largest world count the budget admits: 2 + 16 + 512 + 65 536
        # K frames, no constants, so each node has one leaf. The filter
        # relabels each kept frame under all 24 permutations of four worlds
        # and looks every other frame up once. On a shared 2-vCPU virtual
        # machine (Python 3.11), best of 3: the filter alone takes 0.21 s
        # over the 66 066 nodes and this whole search 0.52 s; searching
        # every node took 2.51 s.
        from finmodal.formulas import Forall, PrimitiveEq, Var
        sig = sig_of({}, LogicTag.K)
        x = Var("x", INDIVIDUAL)
        premises = [Forall(x, PrimitiveEq(x, x))]
        table = LeafTable(premises)
        assert find_countermodel(premises, Box(premises[0]), sig,
                                 Bounds(4, 1), table=table) is None
        assert len(table._nodes) == 2 + 10 + 104 + 3044

    def test_same_model_as_the_unfiltered_search(self):
        from hypothesis import example, given, settings, strategies as st
        from finmodal.formulas import (
            Actually, Forall, Lambda, MacroFormula, Var, children, rebuild,
            subnodes,
        )

        consts = {"p": PROPOSITION, "q": PROPOSITION, "S": REL1}
        sig = sig_of(consts, LogicTag.K)
        x = Var("x0", INDIVIDUAL)

        def without_actually(f):
            if isinstance(f, Actually):
                return without_actually(f.body)
            kids = children(f)
            return rebuild(f, tuple(map(without_actually, kids))) \
                if kids else f

        def formula(seed, actually):
            """A random closed formula: with actually "none" it has no @,
            with "macro" its only @ sits in a macro argument, and with
            "any" it may have @ anywhere."""
            rng = random.Random(seed)
            depth = rng.randint(0, 2)
            if rng.random() < 0.5:
                f = random_formula(rng, sig, depth)
            else:
                f = Forall(x, random_formula(rng, sig, depth, [x]))
            if actually == "any":
                return f
            f = without_actually(f)
            if actually == "macro":
                # ent(y, z) is [](all x (y x -> z x))
                body = without_actually(random_formula(rng, sig, 1, [x]))
                f = MacroFormula("ent", (Lambda((x,), Actually(body)),
                                         Const("S", REL1)))
            return f

        formulas = st.builds(formula, st.integers(0, 2**30),
                             st.sampled_from(["none", "any", "macro"]))
        p = parse_formula("p", sig)

        # <>p and ~@p have no model on one world, nor on the first frame
        # of the class of {0->1, 1->1}, {0->0, 1->0}: the first
        # countermodel is on {0->1, 1->1}, a later frame of its class
        @example(LogicTag.K, (2, 1), "full",
                 [parse_formula("<>p", sig), parse_formula("~@p", sig)], p)
        @settings(max_examples=120, deadline=None)
        @given(st.sampled_from([LogicTag.K, LogicTag.KB, LogicTag.S5TOTAL]),
               st.sampled_from([(2, 1), (2, 2), (3, 1)]),
               st.sampled_from(["full", "rigid"]),
               st.lists(formulas, max_size=2), formulas)
        def check(logic, bounds, relvar_domain, premises, conjecture):
            names = {n.name for f in (*premises, conjecture)
                     for n in subnodes(f) if isinstance(n, Const)}
            tagged = sig_of({n: consts[n] for n in names}, logic)
            b = Bounds(*bounds)
            if count_models(tagged, b) > 40_000:
                # three constants over K frames at three worlds: a search
                # that finds no countermodel takes seconds
                b = Bounds(b.max_worlds - 1, b.max_individuals)
            args = (premises, conjecture, tagged, b, relvar_domain)
            try:
                want = _unfiltered_countermodel(*args)
            except SearchBoundsError:
                with pytest.raises(SearchBoundsError):
                    find_countermodel(*args)
                return
            _assert_same_model(find_countermodel(*args), want)

        check()


class TestBudget:
    def test_shipped_first_order_bounds_within_budget(self):
        sig = sig_of({"p": PROPOSITION, "q": PROPOSITION}, LogicTag.K)
        assert count_models(sig, Bounds(3, 1)) == 33032 <= MODEL_BUDGET
        assert count_models(sig, Bounds(4, 1)) > MODEL_BUDGET

    def test_over_budget_raises_before_any_frame(self):
        sig = sig_of({"p": PROPOSITION, "q": PROPOSITION}, LogicTag.K)
        conjecture = parse_formula("p -> p", sig)
        with pytest.raises(SearchBoundsError, match="search budget"):
            find_countermodel([], conjecture, sig, Bounds(100000, 1))
        with pytest.raises(SearchBoundsError, match="search budget"):
            next(enumerate_models(sig, Bounds(4, 1)))

    def test_conjecture_relation_quantifier_checked_before_search(
            self, monkeypatch):
        # the premises quantify over no relation, but the conjecture does:
        # the relation space is still needed, and at worlds=3
        # individuals=2 it passes the limit before any node is searched
        def unsearched(*args):
            raise AssertionError("a node was searched")
        monkeypatch.setattr("finmodal.modelfind._search_node", unsearched)
        sig = sig_of({"c": INDIVIDUAL, "S": REL1}, LogicTag.K)
        premise = parse_formula("S c", sig)
        conjecture = parse_formula("all X (X c -> X c)", sig)
        with pytest.raises(SearchBoundsError,
                           match="worlds=3 individuals=2 need a relation"):
            find_countermodel([premise], conjecture, sig, Bounds(3, 2))

    def test_second_order_tables_are_left_to_the_cap(self):
        # the corpus problems admit 1.7e10 to 2.7e11 interpretations, almost
        # all of them second-order table rows the premises prune
        from finmodal.ontoarg import variant
        ps = variant("goedel")
        assert count_models(ps.sig, Bounds(2, 2)) > MODEL_BUDGET
        assert not decide_sat(ps.formulas(), ps.sig, Bounds(2, 2)).is_sat


class TestInputEdges:
    """Inputs the shipped problems never give: each answers or raises."""

    def test_bounds_below_one(self):
        with pytest.raises(ValueError, match="bounds must be at least 1"):
            Bounds(0, 1)

    def test_open_premise_and_conjecture(self):
        from finmodal.kripke import EvalError
        sig = sig_of({"S": REL1}, LogicTag.K)
        open_ = parse_formula("S x", sig)
        with pytest.raises(EvalError, match="premises must be closed"):
            decide_sat([open_], sig, Bounds(1, 1))
        with pytest.raises(EvalError, match="conjecture must be closed"):
            find_countermodel([], open_, sig, Bounds(1, 1))

    def test_leading_quantifier_without_a_split_domain(self):
        # a proposition quantifier is not split into instances: the premise
        # is one instance, evaluated whole at each world
        sig = sig_of({"p": PROPOSITION}, LogicTag.K)
        premise = parse_formula("all r:prop (r -> []r)", sig)
        table = LeafTable([premise])
        result = decide_sat([premise], sig, Bounds(2, 1), table=table)
        assert (result.model.n_worlds, result.model.access) == (1, frozenset())
        assert result.examined == 0
        assert [len(size[1]) for size in table._sizes.values()] == [1]
        cm = find_countermodel([premise], parse_formula("p -> <>p", sig),
                               sig, Bounds(2, 1))
        assert (cm.n_worlds, cm.access, cm.denot) == (1, frozenset(), {"p": 1})

    def test_premise_free_conjecture_outside_the_packed_fragment(self):
        # a constant the signature lacks is left to the tree search, whose
        # evaluator names it
        from finmodal.formulas import Exemplify
        from finmodal.kripke import EvalError
        sig = sig_of({"p": PROPOSITION}, LogicTag.K)
        with pytest.raises(EvalError, match="uninterpreted constant 'zz'"):
            find_countermodel([], Exemplify(Const("zz", PROPOSITION), ()),
                              sig, Bounds(1, 1))
