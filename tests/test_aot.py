import functools
import importlib
import pkgutil
import random
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import finmodal
from finmodal import aot, macros
from finmodal.abstraction import Accepted, check_proof, make_layer
from finmodal.aot import (
    Abstract, AczelConfig, AotBudgetError, AotEvalError, Denotes,
    NON_DENOTING, NonDenoting, Ordinary, _encode_usage,
    build_aczel, denote, eval_aot, exists_term, identity_holds,
    minimal_model, minimal_model_report, world_theory_report,
)
from finmodal.formulas import (
    INDIVIDUAL, PROPOSITION, REL1, SECOND_ORDER,
    Actually, And, Box, Const, Diamond, Encode, Exemplify, Exists, Forall,
    Formula, Iff, Implies, Lambda, MacroFormula, Not, PrimitiveEq, Relation,
    SOAtom, Term, Var, beta_normalize, free_names, subnodes,
)
from finmodal.macros import expand_derived
from finmodal.parser import parse_formula, parse_term
from finmodal.printer import print_formula
from finmodal.ontoarg import run_variant_suite
from finmodal.problemfile import load_aot_config, load_problem, parse_proof

from conftest import fresh, random_formula


@pytest.fixture(scope="module")
def m():
    return minimal_model()


class TestBuild:
    def test_relation_space_is_exponential(self):
        for n_o, n_s, n_w in [(1, 1, 2), (1, 1, 1), (2, 1, 1), (1, 2, 1)]:
            model = build_aczel(AczelConfig(n_o, n_s, n_w))
            assert len(model.relspace1) == 1 << ((n_o + n_s) * n_w)
            assert len(model.propspace) == 1 << n_w

    def test_cap_enforced(self):
        with pytest.raises(AotEvalError):
            build_aczel(AczelConfig(2, 2, 2))

    def test_concreteness_never_special(self):
        with pytest.raises(AotEvalError):
            build_aczel(AczelConfig(1, 1, 2, e_bang=0b0100))

    def test_one_world_config_fails_contingency(self, m):
        flat = build_aczel(AczelConfig(1, 1, 1))
        contingency = parse_formula("<> exists x (E! x & ~ @ E! x)", flat.sig)
        assert not eval_aot(contingency, flat)
        assert eval_aot(parse_formula("<> exists x (E! x & ~ @ E! x)", m.sig), m)

    @pytest.mark.parametrize("config, message", [
        (AczelConfig(n_ordinary=0), "urelements and worlds must be non-empty"),
        (AczelConfig(actual=2), "actual world 2 is not in 0..1"),
        (AczelConfig(consts={"c": ("bogus", 0)}),
         "unknown constant spec ('bogus', 0)"),
        (AczelConfig(consts={"c": ("prop", 4)}),
         "c: proposition value 4 is not in 0..3"),
    ])
    def test_bad_config_raises(self, config, message):
        with pytest.raises(AotEvalError) as err:
            build_aczel(config)
        assert str(err.value) == message

    def test_proposition_constant(self):
        # value 2 holds at world 1 only, and world 0 is actual
        model = build_aczel(AczelConfig(consts={"c": ("prop", 2)}))
        assert model.denot["c"] == 2
        assert not eval_aot(parse_formula("c", model.sig), model)
        assert not eval_aot(parse_formula("[]c", model.sig), model)
        assert eval_aot(parse_formula("c", model.sig), model, w=1)

    def test_sigma_not_injective_by_pigeonhole(self, m):
        # far more abstract objects than special urelements
        assert (1 << len(m.relspace1)) > m.n_special
        a, b = Abstract(0), Abstract(1)
        assert a != b
        assert m.sigma_of(a.encoded) == m.sigma_of(b.encoded)


class TestEvaluation:
    def test_ordinary_objects_encode_nothing(self, m):
        f = parse_formula("all x (O! x -> [] ~ exists F (x[F]))", m.sig)
        assert eval_aot(f, m)

    def test_encoding_is_rigid(self, m):
        f = parse_formula("all x (all F (<> x[F] -> [] x[F]))", m.sig)
        assert eval_aot(f, m)
        for enc in (0, 5, 13):
            for v in (0, 3, 15):
                bits = {eval_aot(Encode(Var("x", INDIVIDUAL), Var("F", REL1)),
                                 m, {"x": Abstract(enc), "F": v}, w)
                        for w in range(m.n_worlds)}
                assert len(bits) == 1

    def test_comprehension_witness(self, m):
        f = parse_formula("exists x (A! x & all F (x[F] <-> F = E!))", m.sig)
        assert eval_aot(f, m)

    def test_proxy_factorization(self, m):
        # exemplification depends only on the urelement of the subject
        x, f = Var("x", INDIVIDUAL), Var("F", REL1)
        atom = Exemplify(f, (x,))
        for v in m.relspace1:
            for w in range(m.n_worlds):
                got = {eval_aot(atom, m, {"x": Abstract(e), "F": v}, w)
                       for e in (0, 1, 7, 65535)}
                assert len(got) == 1
                assert got.pop() == m.rel_bit(v, m.n_ordinary + 0, w)

    def test_sigma_class_criterion(self, m):
        # objects are exemplification-indistinguishable exactly when they
        # share an urelement
        f = parse_formula("[] all F (F x <-> F y)", m.sig)
        pairs = [
            (Ordinary(0), Ordinary(0), True),
            (Ordinary(0), Abstract(0), False),
            (Abstract(0), Abstract(9), True),
        ]
        for a, b, same in pairs:
            assert (m.urelement_of(a) == m.urelement_of(b)) == same
            assert eval_aot(f, m, {"x": a, "y": b}) == same

    def test_second_order_atom_is_not_evaluated(self, m):
        # Aczel models interpret no second-order constant
        f = SOAtom(Const("k1", SECOND_ORDER), Const("E!", REL1))
        with pytest.raises(AotEvalError, match="cannot evaluate SOAtom"):
            eval_aot(f, m)

    def test_budget_error_on_nested_sweeps(self, m):
        f = parse_formula(
            "exists x (exists y ((all F (x[F] <-> ~ y[F])) & x[E!]))", m.sig)
        with pytest.raises(AotBudgetError):
            eval_aot(f, m)

    def test_budget_error_names_the_nested_sweep(self, m):
        f = parse_formula(
            "exists x (exists y ((all F (x[F] <-> ~ y[F])) & x[E!]))", m.sig)
        inner = next(n for n in subnodes(beta_normalize(expand_derived(f)))
                     if isinstance(n, Forall) and n.var.name == "y")
        with pytest.raises(AotBudgetError) as err:
            eval_aot(f, m)
        assert str(err.value) == ("nested full sweeps over abstract objects: "
                                  + print_formula(inner))

    @pytest.mark.parametrize("operands", [16, 24])
    def test_iff_chain_past_the_expansion_budget_raises_at_once(self, m,
                                                                operands):
        # expand_derived shares the two sides of each <->, so the chain is
        # small, but it expands to 557 043 nodes as a tree at 16 operands,
        # which evaluation would walk; a second and third call find the
        # expansion stored, and still raise the same error
        chain = parse_formula(" <-> ".join(["~E! k1"] * operands), m.sig)
        term = Lambda((), chain)
        for call in (lambda: eval_aot(chain, m), lambda: denote(term, m),
                     lambda: exists_term(term, m)):
            messages = set()
            for _ in range(3):
                start = time.perf_counter()
                with pytest.raises(AotBudgetError, match="expands to") as err:
                    call()
                assert time.perf_counter() - start < 0.1
                messages.add(str(err.value))
            assert len(messages) == 1

    def test_iff_chain_within_the_expansion_budget_answers(self, m):
        chain = parse_formula(" <-> ".join(["~E! k1"] * 10), m.sig)
        assert eval_aot(chain, m)

    @pytest.mark.parametrize("op", ["<>", "[]"])
    @pytest.mark.parametrize("body", ["all x (%s E! x)", "exists x (%s E! x)",
                                      "%s E! k1"])
    def test_nested_modal_operators_collapse(self, m, op, body):
        # accessibility is total, so n nested operators mean one; each Box
        # is evaluated once per world-independent input, not once per world
        # of every enclosing operator
        want = eval_aot(parse_formula(body % op, m.sig), m)
        for n in range(2, 64):
            f = parse_formula(body % (op * n), m.sig)
            start = time.perf_counter()
            assert eval_aot(f, m) == want
            assert time.perf_counter() - start < 0.1


    @pytest.mark.parametrize("op", [Diamond, Box])
    @pytest.mark.parametrize("concrete", [True, False])
    def test_nested_modal_operators_under_a_column_sweep(self, m, op,
                                                         concrete):
        # x[F] with F bound below x needs a full sweep over abstract
        # objects; each Box's column is worked out once, not once per world
        # of every enclosing operator. Built, not parsed: 63 operators nest
        # deeper than the parser allows.
        x, f = Var("x", INDIVIDUAL), Var("F", REL1)
        atom = Exemplify(Const("E!", REL1), (x,))
        body = atom if concrete else Not(atom)
        answers = []
        for n in range(1, 64):
            body = op(body)
            g = Forall(x, Forall(f, Implies(Encode(x, f), body)))
            start = time.perf_counter()
            answers.append(eval_aot(g, m))
            assert time.perf_counter() - start < 0.1
        assert answers == [not concrete] * 63


class TestDenotation:
    def test_simple_lambda_denotes(self, m):
        d = denote(parse_term("[\\x E! x]", m.sig), m)
        assert isinstance(d, Denotes)
        assert d.value == m.denot["E!"]

    def test_paradoxical_lambda_fails(self, m):
        d = denote(parse_term("[\\x exists F (x[F] & ~ F x)]", m.sig), m)
        assert isinstance(d, NonDenoting)

    def test_encoding_lambda_with_fixed_relation_fails(self, m):
        # [\x x[E!]] separates abstract objects with the same proxy
        d = denote(parse_term("[\\x x[E!]]", m.sig), m)
        assert isinstance(d, NonDenoting)

    def test_unique_description(self, m):
        t = parse_term("(the x: A! x & all F (x[F] <-> F = E!))", m.sig)
        d = denote(t, m)
        assert isinstance(d, Denotes)
        assert d.value == Abstract(1 << m.denot["E!"])

    def test_non_unique_description(self, m):
        d = denote(parse_term("(the x: A! x)", m.sig), m)
        assert isinstance(d, NonDenoting)

    def test_atoms_with_non_denoting_terms_are_false(self, m):
        f = parse_formula("E! (the x: A! x)", m.sig)
        for w in range(m.n_worlds):
            assert not eval_aot(f, m, None, w)
        g = parse_formula("(the x: A! x)[E!]", m.sig)
        assert not eval_aot(g, m)

    def test_non_denoting_description_has_no_identity_witness(self):
        # a redex applied to a non-denoting description stays unreduced,
        # so the identity atoms on it are false, as exists_term says
        model = build_aczel(load_aot_config("problems/aotmin.model"))
        t = parse_term("(the x: A! x)", model.sig)
        assert not exists_term(t, model)
        for text in ("exists y (y = (the x: A! x))",
                     "(the x: A! x) = (the x: A! x)"):
            assert not eval_aot(parse_formula(text, model.sig), model), text

    def test_free_logic_instantiation_needs_existence(self, m):
        lam = parse_term("[\\x exists F (x[F] & ~ F x)]", m.sig)
        assert not exists_term(lam, m)
        beta = parse_formula("exists B (B = [\\x exists F (x[F] & ~ F x)])",
                             m.sig)
        assert not eval_aot(beta, m)

    def test_exists_term_agrees_with_denote_on_generated_terms(self, m):
        rng = random.Random(71)
        agree = 0
        for _ in range(200):
            t = _random_term(rng, m)
            d = denote(t, m)
            assert exists_term(t, m) == isinstance(d, Denotes)
            agree += 1
        assert agree == 200


def _random_term(rng, m):
    """Deterministic mix of lambdas and descriptions over the minimal sig."""
    kind = rng.choice(["const", "lam_simple", "lam_encode", "lam_paradox",
                       "desc", "prop_lam"])
    x = Var("x", INDIVIDUAL)
    F = Var("F", REL1)
    e = Const("E!", REL1)
    if kind == "const":
        return rng.choice([Const("k1", INDIVIDUAL), Const("k2", INDIVIDUAL), e])
    if kind == "lam_simple":
        body = rng.choice([
            Exemplify(e, (x,)),
            Not(Exemplify(e, (x,))),
            Box(Exemplify(e, (x,))),
        ])
        return Lambda((x,), body)
    if kind == "lam_encode":
        return Lambda((x,), Encode(x, e))
    if kind == "lam_paradox":
        return Lambda((x,), Exists(F, Not(Iff(Encode(x, F),
                                              Exemplify(F, (x,))))))
    if kind == "prop_lam":
        return Lambda((), Exemplify(e, (Const("k1", INDIVIDUAL),)))
    return Description(x := Var("x", INDIVIDUAL),
                       rng.choice([
                           Exemplify(MacroTermO(), (x,)),
                           Forall(F, Iff(Encode(x, F),
                                         MacroFormula("id", (F, e)))),
                       ]))


def MacroTermO():
    from finmodal.formulas import MacroTerm
    return MacroTerm("O!")


from finmodal.formulas import Description  # noqa: E402


class TestCallTables:
    """What one top-level call works out about its input: the tables it
    builds and drops, and the free names stored on the nodes."""

    def test_free_names_match_formulas(self, m):
        # the root is asked first, so each subnode answers from what the
        # root's walk stored on it; a fresh copy has nothing stored
        rng = random.Random(5)
        for _ in range(200):
            t = _random_term(rng, m)
            for root in (t, beta_normalize(expand_derived(t))):
                for n in subnodes(root):
                    assert free_names(n) == free_names(fresh(n)), n

    def test_encode_usage_is_worked_out_once(self, m):
        # stored on the binder, so two calls share it; a fresh copy works
        # out the same
        f = parse_formula("all x (all F (x[F] <-> F = E!))", m.sig)
        g = beta_normalize(expand_derived(f))
        first = _encode_usage(g)
        assert _encode_usage(g) is first
        assert first == _encode_usage(fresh(g))

    def test_no_module_global_keeps_nodes(self, m):
        # after AOT calls, a corpus suite, a proof check and a parse, no
        # module of finmodal holds a node in a global, apart from the bare
        # constants P_CONST and E_CONST outside aot
        rng = random.Random(9)
        for _ in range(20):
            t = _random_term(rng, m)
            denote(t, m)
            exists_term(t, m)
        eval_aot(parse_formula("exists x (A! x & all F (x[F] <-> F = E!))",
                               m.sig), m)
        run_variant_suite("scott")
        problem = load_problem("problems/s5.problem")
        layer, script = parse_proof(Path("proofs/kdia.proof").read_text(),
                                    problem.sig)
        assert isinstance(check_proof(script, make_layer(layer)), Accepted)
        bare = (macros.P_CONST, macros.E_CONST)
        for info in pkgutil.iter_modules(finmodal.__path__):
            module = importlib.import_module(f"finmodal.{info.name}")
            for name, value in vars(module).items():
                where = f"{info.name}.{name}"
                assert getattr(value, "cache_info", None) is None, where
                if module is not aot and any(value is c for c in bare):
                    continue
                assert not _holds_nodes(value), where
        for n_values, masks in aot._MEMBERSHIP_CACHE.items():
            assert isinstance(n_values, int)
            assert all(isinstance(mask, int) for mask in masks)


def _holds_nodes(value) -> bool:
    if isinstance(value, (Term, Formula)):
        return True
    if isinstance(value, dict):
        return any(_holds_nodes(k) or _holds_nodes(v)
                   for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return any(_holds_nodes(v) for v in value)
    return False


class TestIdentity:
    def test_reflexive_for_denoting_terms(self, m):
        for text in ("k1", "k2", "E!", "[\\x E! x]"):
            t = parse_term(text, m.sig)
            assert identity_holds(t, t, m)

    def test_fails_for_non_denoting_pairs(self, m):
        lam = parse_term("[\\x exists F (x[F] & ~ F x)]", m.sig)
        assert not identity_holds(lam, lam, m)

    def test_proxy_collision_without_identity(self, m):
        # distinct abstract objects behind one proxy: exemplification cannot
        # tell them apart, yet they are not identical
        a, b = Abstract(0), Abstract(3)
        x, y = Var("x", INDIVIDUAL), Var("y", INDIVIDUAL)
        indis = parse_formula("[] all F (F x <-> F y)", m.sig)
        assert eval_aot(indis, m, {"x": a, "y": b})
        assert not eval_aot(MacroFormula("id", (x, y)), m, {"x": a, "y": b})

    def test_object_identity_for_equal_encoded_sets(self, m):
        a, b = Abstract(6), Abstract(6)
        x, y = Var("x", INDIVIDUAL), Var("y", INDIVIDUAL)
        assert eval_aot(MacroFormula("id", (x, y)), m, {"x": a, "y": b})


class TestReports:
    def test_census_counts(self, m):
        rep = minimal_model_report(m)
        assert (rep.n_worlds, rep.n_propositions, rep.n_relations) == (2, 4, 16)
        assert len(rep.witnesses) == 16
        assert len({v for _, v in rep.witnesses}) == 16
        assert len(rep.pair_witnesses) == 120
        assert rep.historical_distinct

    def test_world_theory(self, m):
        rep = world_theory_report(m)
        assert len(rep.syntactic_worlds) == 2
        assert rep.bijective
        assert rep.fundamental_theorem_ok
        assert rep.encoding_propositions_constant

    def test_membership_sigma_rule(self):
        model = minimal_model(sigma=("membership", 0))
        # still a single special urelement, so the rule degenerates but
        # evaluation must stay consistent
        f = parse_formula("all x (O! x -> [] ~ exists F (x[F]))", model.sig)
        assert eval_aot(f, model)


class TestComprehension:
    def test_witness_encodes_exactly_the_condition(self, m):
        # for conditions over a declared relation list, the abstract object
        # encoding the satisfying set makes the biconditional true
        sig = m.sig
        conditions = [
            "all F (x[F] <-> F = E!)",
            "all F (x[F] <-> ~(F = E!))",
            "all F (x[F] <-> (F = E! | F = [\\y E! y -> E! y]))",
        ]
        for text in conditions:
            f = parse_formula(f"exists x (A! x & {text})", sig)
            assert eval_aot(f, m), text


class TestTwoSpecialUrelements:
    """A membership proxy rule with two special urelements: the proxy class
    of an abstract object tracks whether it encodes the designated value."""

    @pytest.fixture()
    def m2(self):
        return build_aczel(AczelConfig(n_ordinary=1, n_special=2, n_worlds=1,
                                       sigma=("membership", 0)))

    def test_sigma_splits_by_membership(self, m2):
        assert len(m2.relspace1) == 8
        a_out, a_in = Abstract(0), Abstract(1)
        assert m2.sigma_of(a_out.encoded) == 0
        assert m2.sigma_of(a_in.encoded) == 1
        assert m2.urelement_of(a_out) != m2.urelement_of(a_in)
        # still non-injective: 256 abstract objects, two proxies
        assert m2.sigma_of(Abstract(1).encoded) == m2.sigma_of(Abstract(3).encoded)

    def test_proxy_factorization_per_class(self, m2):
        x, f = Var("x", INDIVIDUAL), Var("F", REL1)
        atom = Exemplify(f, (x,))
        for v in m2.relspace1:
            same_class = {eval_aot(atom, m2, {"x": Abstract(e), "F": v}, 0)
                          for e in (1, 3, 5)}  # all encode value 0
            assert len(same_class) == 1

    def test_core_axioms_survive(self, m2):
        f = parse_formula("all x (O! x -> [] ~ exists F (x[F]))", m2.sig)
        assert eval_aot(f, m2)
        g = parse_formula("all x (all F (<> x[F] -> [] x[F]))", m2.sig)
        assert eval_aot(g, m2)

    def test_sigma_class_criterion_with_two_classes(self, m2):
        indis = parse_formula("[] all F (F x <-> F y)", m2.sig)
        pairs = [
            (Abstract(0), Abstract(2), True),   # both lack value 0
            (Abstract(1), Abstract(3), True),   # both encode value 0
            (Abstract(0), Abstract(1), False),  # split by the rule
        ]
        for a, b, same in pairs:
            assert (m2.urelement_of(a) == m2.urelement_of(b)) == same
            assert eval_aot(indis, m2, {"x": a, "y": b}) == same

    def test_matrix_tracked_by_sigma_now_denotes(self, m2):
        # encoding the designated value no longer separates objects behind
        # one proxy, so the lambda that fails under a constant rule denotes
        d = denote(parse_term("[\\x x[E!]]", m2.sig), m2)
        assert m2.denot["E!"] == 0  # with one world nothing is concrete
        assert isinstance(d, Denotes)
        # true exactly of the proxy class that encodes the value
        special_in = m2.n_ordinary + 1
        assert m2.rel_bit(d.value, special_in, 0)
        assert not m2.rel_bit(d.value, m2.n_ordinary + 0, 0)
        assert not m2.rel_bit(d.value, 0, 0)

    def test_bound_variable_named_like_a_constant(self):
        # in [\x k1 x & x[E!]] the bound variable k1 shares a constant's
        # name; the lambda is still open and follows k1's binding
        model = build_aczel(AczelConfig(
            n_ordinary=1, n_special=2, n_worlds=1, sigma=("membership", 0),
            consts={"k1": ("ordinary", 0), "k2": ("abstract", (0,))}))
        for name in ("V", "k1"):
            f = parse_formula(f"all {name}:rel (([\\x {name} x & x[E!]] k2)"
                              f" <-> ({name} k2 & k2[E!]))", model.sig)
            assert eval_aot(f, model), name

    def test_comprehension_with_two_classes(self, m2):
        f = parse_formula("exists x (A! x & all F (x[F] <-> F = E!))", m2.sig)
        assert eval_aot(f, m2)


# ---------------------------------------------------------------------------
# Each branch of the evaluator, reached through the public calls

_x, _y, _z = (Var(n, INDIVIDUAL) for n in "xyz")
_F = Var("F", REL1)
_R2 = Var("R", Relation(2))
_E = Const("E!", REL1)
_K1, _K2 = Const("k1", INDIVIDUAL), Const("k2", INDIVIDUAL)
_ZZ_REL, _ZZ_IND = Const("zz", REL1), Const("zz", INDIVIDUAL)


def _ex(rel, *args):
    return Exemplify(rel, args)


def _sweep(sig):
    # x[F] with F bound below x, so a quantifier on x sweeps every
    # abstract object; true of every ordinary object
    return parse_formula("all F (x[F] -> F x)", sig)


def _separating(sig):
    # a closed lambda that separates abstract objects behind one proxy
    return parse_term("[\\y y[E!]]", sig)


def _individuals(m):
    """Every object of m: each ordinary urelement, and each encoded set."""
    return [Ordinary(u) for u in range(m.n_ordinary)] + [
        Abstract(s) for s in range(1 << len(m.relspace1))]


def _encodes(x, r):
    return isinstance(x, Abstract) and bool(x.encoded >> r & 1)


def _concrete(m, x, w):
    return m.rel_bit(m.denot["E!"], m.urelement_of(x), w)


def _description(m, holds):
    """(the x: phi) on m, where holds(x) is phi's truth at the actual world:
    the one object that satisfies it, if there is one."""
    found = [x for x in _individuals(m) if holds(x)]
    return Denotes(found[0]) if len(found) == 1 else NON_DENOTING


def _lambda(m, holds):
    """[\\x phi] on m, where holds(x, w) is phi's truth at world w: the
    relation that holds of an urelement at w when phi holds of the objects
    whose urelement it is, if those objects agree everywhere."""
    truth = {}
    for x in _individuals(m):
        for w in range(m.n_worlds):
            key = (m.urelement_of(x), w)
            if truth.setdefault(key, holds(x, w)) != holds(x, w):
                return NON_DENOTING
    return Denotes(sum(1 << (u * m.n_worlds + w)
                       for (u, w), t in truth.items() if t))


_TWO_ORDINARY = build_aczel(AczelConfig(n_ordinary=2, n_worlds=1))
_FOUR_RELATIONS = build_aczel(AczelConfig(n_worlds=1, consts={
    f"r{v}": ("rel", v) for v in range(4)}))


def _denote_on(model, text):
    return lambda m: denote(parse_term(text, (model or m).sig), model or m)


# nine relation values for a binder's patterns, one past the quotient's
# budget, and a body that reads F before them
_NINE_RELATIONS = build_aczel(AczelConfig(consts={
    f"r{v}": ("rel", v) for v in range(9)}))
_NINE_BODY = "F x & " + " & ".join(f"x[r{v}]" for v in range(9))
_NINE_SHOWN = functools.reduce(lambda s, v: f"~({s} -> ~x[r{v}])", range(9),
                               "F x")


def _on_nine(form, a):
    text, m9 = form % _NINE_BODY, _NINE_RELATIONS
    if text.startswith("all"):
        return lambda m: eval_aot(parse_formula(text, m9.sig), m9, a)
    return lambda m: denote(parse_term(text, m9.sig), m9, a)


def _too_many(form):
    return (AotBudgetError, "too many reachable relation values to "
                            f"quotient: {form % _NINE_SHOWN}")


# id -> (call on the minimal model, its answer, (error class, message), or
# a function of the model that works out the answer)
EVALUATOR_BRANCHES = {
    # a lambda and descriptions whose matrix sweeps every encoded set
    "lambda-full-sweep": (
        _denote_on(None, r"[\x exists F (x[F] | ~x[F])]"),
        lambda m: _lambda(m, lambda x, w: any(
            _encodes(x, r) or not _encodes(x, r) for r in m.relspace1))),
    "description-full-sweep-many": (
        _denote_on(None, "(the x: exists F (x[F]))"),
        lambda m: _description(m, lambda x: any(
            _encodes(x, r) for r in m.relspace1))),
    "description-full-sweep-one-ordinary": (
        _denote_on(None, "(the x: O! x & ~exists F (x[F]))"),
        lambda m: _description(m, lambda x: any(
            _concrete(m, x, w) for w in range(m.n_worlds)) and not any(
            _encodes(x, r) for r in m.relspace1))),
    # descriptions with two ordinary satisfiers, and, on singleton pattern
    # classes, with one abstract satisfier or many
    "description-patterns-two-ordinary": (
        _denote_on(_TWO_ORDINARY, "(the x: E! x -> E! x)"),
        lambda m: _description(_TWO_ORDINARY, lambda x: True)),
    "description-patterns-one-abstract": (
        _denote_on(_FOUR_RELATIONS, "(the x: x[r0] & x[r1] & x[r2] & x[r3])"),
        lambda m: _description(_FOUR_RELATIONS, lambda x: all(
            _encodes(x, r) for r in range(4)))),
    "description-patterns-many-abstract": (
        _denote_on(_FOUR_RELATIONS, "(the x: x[r0] & (x[r1] | ~x[r1]) & "
                                    "(x[r2] | ~x[r2]) & (x[r3] | ~x[r3]))"),
        lambda m: _description(_FOUR_RELATIONS, lambda x: _encodes(x, 0))),
    # a quantifier works out its pattern values before its ordinary
    # individuals, a lambda or a description after them
    "quotient-budget-quantifier": (
        _on_nine("all x (%s)", {}), _too_many("all x (%s)")),
    "quotient-budget-lambda-after-ordinary": (
        _on_nine(r"[\x %s]", {}),
        (AotEvalError, "unhoused free variable 'F'")),
    "quotient-budget-description-after-ordinary": (
        _on_nine("(the x: %s)", {}),
        (AotEvalError, "unhoused free variable 'F'")),
    "quotient-budget-quantifier-housed": (
        _on_nine("all x (%s)", {"F": 0}), _too_many("all x (%s)")),
    "quotient-budget-lambda": (
        _on_nine(r"[\x %s]", {"F": 0}), _too_many(r"[\x %s]")),
    "quotient-budget-description": (
        _on_nine("(the x: %s)", {"F": 0}), _too_many("(the x: %s)")),
    "unhoused-exemplify-arg": (
        lambda m: eval_aot(_ex(_E, _x), m),
        (AotEvalError, "unhoused free variable 'x'")),
    "unhoused-exemplify-rel": (
        lambda m: eval_aot(_ex(_F, _K1), m),
        (AotEvalError, "unhoused free variable 'F'")),
    "unhoused-encode-obj": (
        lambda m: eval_aot(Encode(_x, _E), m),
        (AotEvalError, "unhoused free variable 'x'")),
    "unhoused-encode-rel": (
        lambda m: eval_aot(Encode(_K1, _F), m),
        (AotEvalError, "unhoused free variable 'F'")),
    "uninterpreted-exemplify-rel": (
        lambda m: eval_aot(_ex(_ZZ_REL, _K1), m),
        (AotEvalError, "uninterpreted constant 'zz'")),
    "uninterpreted-exemplify-arg": (
        lambda m: eval_aot(_ex(_E, _ZZ_IND), m),
        (AotEvalError, "uninterpreted constant 'zz'")),
    "uninterpreted-encode-obj": (
        lambda m: eval_aot(Encode(_ZZ_IND, _E), m),
        (AotEvalError, "uninterpreted constant 'zz'")),
    "uninterpreted-encode-rel": (
        lambda m: eval_aot(Encode(_K2, _ZZ_REL), m),
        (AotEvalError, "uninterpreted constant 'zz'")),
    "unhoused-denote": (
        lambda m: denote(_x, m),
        (AotEvalError, "unhoused free variable 'x'")),
    "uninterpreted-denote": (
        lambda m: denote(_ZZ_REL, m),
        (AotEvalError, "uninterpreted constant 'zz'")),
    "binary-lambda": (
        lambda m: denote(Lambda((_x, _y), _ex(_E, _x)), m),
        (AotEvalError, "lambda terms of arity >= 2 are not interpreted")),
    "formula-as-term": (
        lambda m: denote(_ex(_E, _K1), m),
        (AotEvalError, "cannot interpret Exemplify(rel=Const(name='E!', "
                       "sort=Sort(kind='rel', arity=1)), args=(Const("
                       "name='k1', sort=Sort(kind='ind', arity=0)),))")),
    "non-denoting-head": (
        lambda m: eval_aot(_ex(_separating(m.sig), _K1), m), False),
    "n-ary": (
        lambda m: eval_aot(_ex(_R2, _K1, _K1), m, {"R": 0}),
        (AotEvalError, "n-ary exemplification is not interpreted")),
    "primitive-eq": (
        lambda m: eval_aot(PrimitiveEq(_K1, _K1), m),
        (AotEvalError, "primitive equality has no place in these models")),
    "no-domain": (
        lambda m: eval_aot(Forall(_R2, _ex(_E, _K1)), m),
        (AotEvalError, "no quantification domain at sort rel 2")),
    "nested-too-deeply": (
        lambda m: eval_aot(Forall(_x, Forall(_y, Forall(_z, _ex(_E, _z)))),
                           m),
        (AotBudgetError,
         "individual quantifiers nested too deeply: all z (E! z)")),
    # an inner sweep met by _ev under an outer one
    "nested-sweep-in-body": (
        lambda m: eval_aot(Forall(_x, And(_sweep(m.sig), parse_formula(
            "all y (all G (y[G] -> y[G]))", m.sig))), m),
        (AotBudgetError, "nested full sweeps over abstract objects: "
                         "all y (all G (y[G] -> y[G]))")),
    # _vec on each kind of node, inside a sweep over x; each body holds of
    # every ordinary object, so that the sweep starts
    "sweep-non-denoting-encode-rel": (
        lambda m: eval_aot(Forall(_x, Implies(
            Encode(_x, _separating(m.sig)), _sweep(m.sig))), m), True),
    "sweep-complex-encode": (
        lambda m: eval_aot(Forall(_x, Not(Encode(
            _K2, Lambda((_y,), _ex(_E, _x))))), m),
        (AotBudgetError, "encoding atom too complex for the column sweep: "
                         "k2[[\\y E! x]]")),
    "sweep-relation-term": (
        lambda m: eval_aot(Forall(_x, Not(_ex(Lambda((_y,), And(
            Encode(_y, _E), _ex(_E, _x))), _K1))), m),
        (AotBudgetError, "quantified variable inside a relation term: "
                         "[\\y ~(y[E!] -> ~E! x)] k1")),
    "sweep-non-denoting-head": (
        lambda m: eval_aot(Forall(_x, Implies(
            _ex(_separating(m.sig), _x), _sweep(m.sig))), m), True),
    "sweep-n-ary": (
        lambda m: eval_aot(Forall(_x, Implies(
            Not(_sweep(m.sig)), _ex(_R2, _x, _K1))), m, {"R": 0}),
        (AotBudgetError, "column sweep over n-ary exemplification: R x k1")),
    "sweep-buried": (
        lambda m: eval_aot(Forall(_x, Not(_ex(_E, Description(
            _y, And(_ex(_E, _y), _ex(_E, _x)))))), m),
        (AotBudgetError, "quantified variable buried in a term: "
                         "E! (the y: ~(E! y -> ~E! x))")),
    "sweep-actually": (
        lambda m: eval_aot(Forall(_x, Implies(
            _sweep(m.sig), Actually(Not(_ex(_E, _x))))), m), True),
    "sweep-individual-quantifier": (
        lambda m: eval_aot(Forall(_x, Implies(_sweep(m.sig), Forall(
            _y, Implies(_ex(_E, _y), Not(_ex(_E, _x)))))), m), True),
    # inside a sweep, individual quantifiers charge the pattern budget as
    # outside one: two nest, the third raises
    "sweep-two-individual-quantifiers": (
        lambda m: eval_aot(parse_formula(
            "all x (~all F (x[F] -> F x) -> "
            "all y (all z (E! y -> E! z -> ~E! x)))", m.sig), m), True),
    "sweep-nested-too-deeply": (
        lambda m: eval_aot(parse_formula(
            "all x (~all F (x[F] -> F x) -> all y (all z (all u (all v "
            "(E! y -> E! z -> E! u -> E! v -> ~E! x)))))", m.sig), m),
        (AotBudgetError, "individual quantifiers nested too deeply: all u "
                         "(all v (E! y -> E! z -> E! u -> E! v -> ~E! x))")),
    "sweep-primitive-eq": (
        lambda m: eval_aot(Forall(_x, Implies(
            Not(_sweep(m.sig)), PrimitiveEq(_x, _K1))), m),
        (AotBudgetError, "column sweep cannot handle PrimitiveEq: x = k1")),
}


@pytest.mark.parametrize("case", EVALUATOR_BRANCHES)
def test_evaluator_branch(m, case):
    call, want = EVALUATOR_BRANCHES[case]
    if callable(want):
        assert call(m) == want(m)
        return
    if isinstance(want, bool):
        assert call(m) is want
        return
    cls, message = want
    with pytest.raises(cls) as err:
        call(m)
    assert type(err.value) is cls
    assert str(err.value) == message


def test_dispatch_tables(m):
    # _ev and _vec find each node's handler by its exact type; a kind with
    # no handler raises the evaluator's own error, not the table's KeyError
    assert set(aot._EV) == {Exemplify, Encode, PrimitiveEq, Not, Implies,
                            Box, Actually, Forall}
    assert set(aot._VEC) == set(aot._EV) - {PrimitiveEq}
    p = _ex(_E, _K1)
    for f in (SOAtom(Const("k1", SECOND_ORDER), _E), And(p, p), Diamond(p),
              Exists(_x, _ex(_E, _x)), MacroFormula("dn", (_K1,))):
        with pytest.raises(AotEvalError) as err:
            aot._ev(f, m, {}, 0, aot._EvalContext(m))
        assert type(err.value) is AotEvalError
        assert str(err.value) == f"cannot evaluate {f!r}"


# ---------------------------------------------------------------------------
# Rigid formulas: the same truth, or the same error, at every world

_MEMBERSHIP_ACTUAL_1 = build_aczel(AczelConfig(
    actual=1, sigma=("membership", 3), e_bang=1,
    consts={"k1": ("ordinary", 0), "k2": ("abstract", (1, 2))}))
_RIGID_MODELS = {"aotmin": minimal_model(),
                 "membership": _MEMBERSHIP_ACTUAL_1}


def _outcome(call):
    try:
        return call()
    except AotEvalError as e:
        return type(e), str(e)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_RIGID_MODELS)), st.integers(0, 2**30),
       st.integers(0, 4))
@example("aotmin", None, None)
def test_rigid_fact_matches_evaluation(which, seed, depth):
    m = _RIGID_MODELS[which]
    if seed is None:
        f, a = parse_formula("~E! k1", m.sig), {}
    else:
        rng = random.Random(seed)
        f = random_formula(rng, m.sig, depth, [_z, _F], allow_encode=True,
                           terms=rng.random() < 0.5)
        a = {"z": rng.choice([Ordinary(0), Abstract(rng.randrange(1 << 16))]),
             "F": rng.randrange(len(m.relspace1))}
    worlds = range(m.n_worlds)
    at = [_outcome(lambda: eval_aot(f, m, a, w)) for w in worlds]
    g = macros.primitive_form(f, aot._expansion_error)
    if aot._rigid(g):
        assert at[0] == at[1], print_formula(f)

    def every_world():
        return all(eval_aot(f, m, a, w=v) for v in worlds)
    assert _outcome(lambda: eval_aot(Box(f), m, a)) == _outcome(every_world)
