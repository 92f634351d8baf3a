import ast
import copy
import gc
import pickle
import random
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import finmodal
from finmodal.formulas import (
    INDIVIDUAL, PROPOSITION, REL1,
    And, Box, Const, Description, Diamond, Encode, Exemplify, Exists, Forall, Implies,
    Lambda, MacroFormula, MacroTerm, Not, PrimitiveEq, Sort, SortError, Var,
    _param_touches_encode, alpha_equivalent, beta_normalize, binder_vars,
    canonical_key, children, fresh_name, free_names, free_vars, rebuild,
    rename_binder, sort_of, subnodes, substitute, substitute_many, tree_size,
)
from finmodal.signature import LogicTag, Mode, Signature
from finmodal.macros import expand_derived
from finmodal.parser import parse_formula, parse_term
from finmodal.printer import print_formula

from conftest import fresh, random_formula


x, y, z = Var("x", INDIVIDUAL), Var("y", INDIVIDUAL), Var("z", INDIVIDUAL)
F = Const("S", REL1)
Yv = Var("Y", REL1)


def Fx(t):
    return Exemplify(F, (t,))


class TestSubstitute:
    def test_plain(self):
        assert substitute(Fx(x), x, y) == Fx(y)

    def test_capture_renames(self):
        # all y (Sy -> Sx) with x := y must rename the binder
        f = Forall(y, Implies(Fx(y), Fx(x)))
        g = substitute(f, x, y)
        assert g.var != y
        assert g.body == Implies(Exemplify(F, (g.var,)), Fx(y))

    def test_sort_mismatch(self):
        with pytest.raises(SortError):
            substitute(Fx(x), x, Const("S", REL1))

    def test_empty_property_into_essence(self):
        # instantiating the relation quantifier of the essence definition
        # with [\x ~(x = x)] yields the empty-essence instance
        empty = Lambda((y,), Not(PrimitiveEq(y, y)))
        template = expand_derived(MacroFormula("ess_g", (Yv, x)))
        inst = substitute(template, Yv, empty)
        direct = expand_derived(MacroFormula("ess_g", (empty, x)))
        assert alpha_equivalent(beta_normalize(inst), beta_normalize(direct))

    def test_capture_renames_past_a_taken_name(self):
        # all y (S y -> S x -> S y1) with x := y: y and y1 are both free
        # in the result, so the binder becomes y2
        y1 = Var("y1", INDIVIDUAL)
        f = Forall(y, Implies(Fx(y), Implies(Fx(x), Fx(y1))))
        g = substitute(f, x, y)
        assert g.var == Var("y2", INDIVIDUAL)
        assert g.body == Implies(Fx(g.var), Implies(Fx(y), Fx(y1)))

    def test_description_binder_renamed_in_a_redex(self):
        # [\x S (the y: S y & S x)] y: reducing puts y under the
        # description, whose binder is renamed
        f = Exemplify(Lambda((x,), Fx(Description(y, And(Fx(y), Fx(x))))),
                      (y,))
        y1 = Var("y1", INDIVIDUAL)
        assert beta_normalize(f) == Fx(Description(y1, And(Fx(y1), Fx(y))))

    def test_binder_without_the_variable_is_not_renamed(self):
        # x is not free under all y, so the binder keeps its name even
        # though the payload is y, and the quantifier is not copied
        inner = Forall(y, Fx(y))
        g = substitute(And(Fx(x), inner), x, y)
        assert g == And(Fx(y), inner) and g.right is inner

    def test_no_binder_renamed_to_the_substituted_variable(self):
        # x1 is not free in all x (S x), so substituting x for it changes
        # nothing; renaming the binder to x1, the first fresh name past
        # the payload's x, and then substituting x for x1 would give
        # all x1 (S x)
        x1 = Var("x1", INDIVIDUAL)
        f = Forall(x, Fx(x))
        assert substitute(f, x1, x) is f
        assert beta_normalize(Exemplify(Lambda((x1,), f), (x,))) is f

    def test_sort_mismatch_in_many(self):
        with pytest.raises(SortError, match="bad sort in substitution for x"):
            substitute_many(Fx(x), {x: F})

    def test_rename_needs_a_binder(self):
        with pytest.raises(TypeError, match="is not a binder"):
            rename_binder(Fx(x), x, y)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**30), st.integers(0, 4), st.integers(0, 3))
    def test_shares_what_it_leaves_unchanged(self, seed, depth, pick):
        # against substitution that rebuilds every node: the results are
        # alpha-equivalent, every subtree where no variable of var's name
        # is free (nor, below a renamed binder, of its old name) comes
        # back as the same object, and var for itself changes nothing.
        # The payloads' free names are the names the formula binds, so
        # binders must be renamed.
        sig = Signature(Mode.AOT, LogicTag.S5TOTAL, {
            "p": PROPOSITION, "S": REL1, "c": INDIVIDUAL})
        rng = random.Random(seed)
        scope = [Var("x0", INDIVIDUAL), Var("Y1", REL1)]
        f = random_formula(rng, sig, depth, scope, allow_encode=True,
                           terms=True)
        x2, x3 = Var("x2", INDIVIDUAL), Var("x3", INDIVIDUAL)
        Y2, Y3 = Var("Y2", REL1), Var("Y3", REL1)
        var = (*scope, x2, Y3)[pick]
        if var.sort == INDIVIDUAL:
            payload = rng.choice([
                x2, x3, Const("c", INDIVIDUAL),
                Description(Var("x4", INDIVIDUAL), Exemplify(Y2, (x2,)))])
        else:
            payload = rng.choice([
                Y2, F, Lambda((Var("x5", INDIVIDUAL),), Exemplify(Y3, (x3,)))])
        g = substitute(f, var, payload)
        assert alpha_equivalent(g, _rebuilding_subst(f, {var: payload}))

        def shared(a, b, names):
            if names.isdisjoint(free_names(a)):
                assert b is a
                return
            names = names | {u.name for u, w in zip(binder_vars(a),
                                                     binder_vars(b)) if u != w}
            for c, d in zip(children(a), children(b)):
                shared(c, d, names)

        shared(f, g, {var.name})
        assert substitute(f, var, var) is f
        assert substitute(f, var, Var(var.name, var.sort)) is f


def _rebuilding_subst(x, mapping):
    """Capture-avoiding substitution that rebuilds every node below it and
    renames a binder whenever the payload holds its name free, to a name
    none of the substituted variables has."""
    if not mapping:
        return x
    if isinstance(x, Var):
        return mapping.get(x, x)
    if isinstance(x, Const):
        return x
    bvs = binder_vars(x)
    if not bvs:
        return rebuild(x, tuple(_rebuilding_subst(c, mapping)
                                for c in children(x)))
    live = {v: t for v, t in mapping.items() if v not in bvs}
    if not live:
        return x
    payload_names = set()
    for t in live.values():
        payload_names |= free_names(t)
    for bv in bvs:
        if bv.name in payload_names:
            taken = (payload_names | free_names(x)
                     | {v.name for v in (*bvs, *live)})
            nv = Var(fresh_name(bv.name, taken), bv.sort)
            body = _rebuilding_subst(x.body, {bv: nv})
            x = (Lambda(tuple(nv if p == bv else p for p in x.params), body)
                 if isinstance(x, Lambda) else type(x)(nv, body))
    return rebuild(x, tuple(_rebuilding_subst(c, live) for c in children(x)))


class TestConstructors:
    """Each constructor and generic walk rejects what is not well formed."""

    @pytest.mark.parametrize("kind, arity, message", [
        ("set", 0, "unknown sort kind 'set'"),
        ("rel", -1, "negative arity"),
    ])
    def test_bad_sort(self, kind, arity, message):
        with pytest.raises(SortError, match=message):
            Sort(kind, arity)

    def test_binders_take_distinct_individual_variables(self):
        with pytest.raises(SortError, match="binds a variable twice"):
            Lambda((x, x), Fx(x))
        with pytest.raises(SortError, match="lambda binds a non-individual"):
            Lambda((Yv,), Exemplify(Yv, (x,)))
        with pytest.raises(SortError, match="description binds a non-indiv"):
            Description(Yv, Exemplify(Yv, (x,)))

    def test_sort_of_rejects_what_is_no_term(self):
        with pytest.raises(SortError, match="unknown term macro 'Q!'"):
            sort_of(MacroTerm("Q!"))
        with pytest.raises(SortError, match="not a term"):
            sort_of(Fx(x))

    def test_walks_reject_what_is_no_node(self):
        with pytest.raises(TypeError, match="not an AST node: 3"):
            children(3)
        with pytest.raises(TypeError, match="cannot rebuild Const"):
            rebuild(F, ())


class TestAlphaEquivalence:
    def test_renamed_binder(self):
        assert alpha_equivalent(Forall(x, Fx(x)), Forall(y, Fx(y)))

    def test_different_head(self):
        G = Var("G", REL1)
        assert not alpha_equivalent(Forall(x, Fx(x)),
                                    Forall(x, Exemplify(G, (x,))))

    def test_equivalence_relation(self, classical_sig):
        rng = random.Random(7)
        sample = [random_formula(rng, classical_sig, 3) for _ in range(40)]
        for f in sample:
            assert alpha_equivalent(f, f)
        for f in sample:
            for g in sample:
                assert alpha_equivalent(f, g) == alpha_equivalent(g, f)

    def test_matches_debruijn_oracle(self, classical_sig):
        # independent oracle: full de Bruijn conversion as nested tuples
        def debruijn(node, env):
            if isinstance(node, Var):
                if node.name in env:
                    return ("b", env[node.name])
                return ("f", node.name, str(node.sort))
            if isinstance(node, Const):
                return ("c", node.name)
            bvs = binder_vars(node)
            env2 = dict(env)
            for i, v in enumerate(bvs):
                env2 = {k: d + 1 for k, d in env2.items()}
                env2[v.name] = 0
            tag = type(node).__name__
            return (tag, tuple(debruijn(c, env2 if bvs else env)
                               for c in children(node)))

        rng = random.Random(11)
        pairs = [(random_formula(rng, classical_sig, 3),
                  random_formula(rng, classical_sig, 3)) for _ in range(60)]
        for f, g in pairs:
            assert alpha_equivalent(f, g) == (debruijn(f, {}) == debruijn(g, {}))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**30), st.integers(0, 4),
           st.sampled_from(["other", "fresh", "renamed", "shared"]))
    def test_agrees_with_keys(self, seed, depth, how):
        # identity and equality decide before the keys, and must never
        # disagree with them: g is another formula, a fresh copy of f, f
        # with one binder renamed, or f with one subnode replaced by a
        # fresh or renamed copy and every other node shared
        from finmodal.signature import LogicTag, Mode, Signature
        sig = Signature(Mode.CLASSICAL, LogicTag.K, {
            "p": PROPOSITION, "q": PROPOSITION, "S": REL1, "c": INDIVIDUAL})
        rng = random.Random(seed)
        f = random_formula(rng, sig, depth, terms=True)
        if how == "other":
            g = random_formula(rng, sig, depth, terms=True)
        elif how == "fresh":
            g = fresh(f)
        elif how == "renamed":
            g = _rename_a_binder(f, rng)
        else:
            target = rng.choice(list(subnodes(f)))
            twin = (_rename_a_binder(target, rng) if rng.random() < 0.5
                    else fresh(target))
            g = _replace(f, target, twin)
        assert alpha_equivalent(f, g) == (canonical_key(f) == canonical_key(g))
        assert alpha_equivalent(g, f) == alpha_equivalent(f, g)


def test_only_formulas_compares_keys():
    # alpha-equivalence is decided in one place, alpha_equivalent: no other
    # module compares a canonical_key(...) result with == or !=; using a
    # key as a dict key, as aot does, is not a comparison
    def is_key_call(node):
        f = node.func if isinstance(node, ast.Call) else None
        return (isinstance(f, ast.Name) and f.id == "canonical_key") or \
            (isinstance(f, ast.Attribute) and f.attr == "canonical_key")

    found = []
    for path in sorted(Path(finmodal.__file__).parent.glob("*.py")):
        if path.name == "formulas.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare) \
                    and any(isinstance(op, (ast.Eq, ast.NotEq))
                            for op in node.ops) \
                    and any(map(is_key_call, [node.left, *node.comparators])):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _rename_a_binder(x, rng):
    """x with one of its binders, if it has any, binding a new name."""
    binders = [n for n in subnodes(x) if binder_vars(n)]
    if not binders:
        return x
    b = rng.choice(binders)
    old = rng.choice(binder_vars(b))
    return _replace(x, b, rename_binder(b, old, Var("fresh_name", old.sort)))


def _replace(x, old, new):
    """x with the subnode old, compared by identity, replaced by new; every
    node not above old is shared with x."""
    if x is old:
        return new
    kids = children(x)
    new_kids = tuple(_replace(c, old, new) for c in kids)
    if all(a is b for a, b in zip(new_kids, kids)):
        return x
    return rebuild(x, new_kids)


class TestBeta:
    def test_basic_redex(self, classical_sig):
        f = parse_formula("[\\y ~(y = y)] x", classical_sig)
        assert print_formula(beta_normalize(f)) == "~(x = x)"

    def test_unsafe_redex_kept(self, aot_sig):
        f = parse_formula("[\\z z[S]] k",
                          aot_sig.__class__(aot_sig.mode, aot_sig.logic,
                                            {**aot_sig.consts, "S": REL1}))
        g = beta_normalize(f)
        assert isinstance(g, Exemplify) and isinstance(g.rel, Lambda)

    def test_normalizes_nested(self):
        inner = Lambda((y,), Fx(y))
        f = Exemplify(inner, (x,))
        assert beta_normalize(Not(f)) == Not(Fx(x))

    def test_redex_on_a_description_kept(self):
        # the description may fail to denote, which falsifies the application
        desc = Description(z, Fx(z))
        f = Exemplify(Lambda((y,), Not(Fx(y))), (desc,))
        assert beta_normalize(Not(f)) == Not(f)

    def test_vacuous_redex_returns_its_body(self):
        # (\x.B) x reduces to B itself, with what B stores
        body = Box(Fx(x))
        beta_normalize(body)
        assert beta_normalize(Exemplify(Lambda((x,), body), (x,))) is body

    def test_encoding_under_a_rebinding_lambda_is_safe(self):
        # [\y k[\y S y]] c: the encoding atom holds y only bound by its
        # own lambda, so the parameter touches no encoding and the redex
        # is reduced
        k, c = Const("k", INDIVIDUAL), Const("c", INDIVIDUAL)
        body = Encode(k, Lambda((y,), Fx(y)))
        assert beta_normalize(Exemplify(Lambda((y,), body), (c,))) is body

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**30), st.integers(0, 4), st.booleans())
    def test_param_touches_encode_matches_a_full_walk(self, seed, depth,
                                                      rebind):
        # on a lambda over x0 whose body has encoding atoms, and, with
        # rebind, one binder of the body renamed to x0 (of its own sort),
        # so that x0 is shadowed below it
        sig = Signature(Mode.AOT, LogicTag.S5TOTAL, {
            "p": PROPOSITION, "S": REL1, "c": INDIVIDUAL})
        rng = random.Random(seed)
        param = Var("x0", INDIVIDUAL)
        body = random_formula(rng, sig, depth, [param], allow_encode=True,
                              terms=True)
        binders = [n for n in subnodes(body) if binder_vars(n)]
        if rebind and binders:
            b = rng.choice(binders)
            old = rng.choice(binder_vars(b))
            body = _replace(body, b, rename_binder(
                b, old, Var(param.name, old.sort)))
        assert _param_touches_encode(body, param) == \
            _touches_encode_full_walk(body, param)


def _touches_encode_full_walk(x, param, shadowed=frozenset()):
    """Whether param is free in an Encode atom of x, where no binder
    between x and the atom binds its name, by a walk over every node."""
    if isinstance(x, Var):
        return False
    if isinstance(x, Encode) and param.name not in shadowed \
            and param in free_vars(x):
        return True
    shadowed = shadowed | {v.name for v in binder_vars(x)}
    return any(_touches_encode_full_walk(c, param, shadowed)
               for c in children(x))


class TestExpandDerived:
    def test_diamond(self, classical_sig):
        f = parse_formula("<>p", classical_sig)
        assert print_formula(expand_derived(f)) == "~[]~p"

    def test_abstractness_applied_not_reduced(self, aot_sig):
        f = parse_formula("A! k", aot_sig)
        g = expand_derived(f)
        assert isinstance(g, Exemplify)
        assert isinstance(g.rel, Lambda)
        assert print_formula(g) == "[\\x ~~[]~E! x] k"

    def test_term_existence_individual(self, aot_sig):
        f = expand_derived(MacroFormula("dn", (Const("k", INDIVIDUAL),)))
        want = expand_derived(
            Exists(Var("F", REL1),
                   Exemplify(Var("F", REL1), (Const("k", INDIVIDUAL),))))
        assert alpha_equivalent(f, want)

    def test_idempotent_and_primitive(self, classical_sig):
        rng = random.Random(3)
        derived = (Diamond, Exists, And, MacroFormula, MacroTerm)
        for _ in range(80):
            f = random_formula(rng, classical_sig, 4)
            g = expand_derived(f)
            assert expand_derived(g) == g
            from finmodal.formulas import Or, Iff, Xor
            for n in subnodes(g):
                assert not isinstance(n, (Diamond, Exists, And, Or, Iff, Xor,
                                          MacroFormula, MacroTerm))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**30), st.integers(0, 4))
    def test_expanded_formula_is_returned_as_it_is(self, seed, depth):
        from finmodal.formulas import SECOND_ORDER
        from finmodal.signature import LogicTag, Mode, Signature
        sig = Signature(Mode.CLASSICAL, LogicTag.K, {
            "p": PROPOSITION, "S": REL1, "c": INDIVIDUAL, "P": SECOND_ORDER})
        f = random_formula(random.Random(seed), sig, depth)
        # a macro term brings lambdas and second-order atoms in
        g = expand_derived(And(f, parse_formula("P NE_a", sig)))
        assert expand_derived(g) is g

    def test_entailment(self, classical_sig):
        f = parse_formula("ent S S", classical_sig)
        g = expand_derived(f)
        assert isinstance(g, Box) and isinstance(g.body, Forall)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**30), st.integers(0, 4))
    def test_parse_print_parse(self, seed, depth):
        from finmodal.signature import LogicTag, Mode, Signature
        sig = Signature(Mode.CLASSICAL, LogicTag.K, {
            "p": PROPOSITION, "S": REL1, "c": INDIVIDUAL})
        rng = random.Random(seed)
        f = random_formula(rng, sig, depth)
        text = print_formula(f)
        g = parse_formula(text, sig)
        assert alpha_equivalent(f, g), text

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**30), st.integers(0, 3))
    def test_aot_round_trip_with_encoding(self, seed, depth):
        from finmodal.signature import LogicTag, Mode, Signature
        sig = Signature(Mode.AOT, LogicTag.S5TOTAL, {
            "p": PROPOSITION, "S": REL1, "c": INDIVIDUAL})
        rng = random.Random(seed)
        f = random_formula(rng, sig, depth, allow_encode=True)
        g = parse_formula(print_formula(f), sig)
        assert alpha_equivalent(f, g)

    @pytest.mark.parametrize("body", ["p -> p", "p", "~~p"])
    def test_zero_place_lambda_round_trip(self, classical_sig, body):
        # a 0-place lambda's body prints in parentheses, so that a name
        # at its start does not read as a parameter
        f = PrimitiveEq(Lambda((), parse_formula(body, classical_sig)),
                        Const("q", PROPOSITION))
        text = print_formula(f)
        assert text == f"[\\ ({body})] = q"
        assert parse_formula(text, classical_sig) == f

    def test_nested_description_round_trip(self, aot_sig):
        sig = aot_sig
        text = "S (the x: exists F (x[F] & F = E!))"
        sig2 = sig.__class__(sig.mode, sig.logic, {**sig.consts, "S": REL1})
        f = parse_formula(text, sig2)
        g = parse_formula(print_formula(f), sig2)
        h = parse_formula(print_formula(g), sig2)
        assert alpha_equivalent(g, h)


class TestStoredFacts:
    FACTS = (free_vars, free_names, canonical_key, tree_size, expand_derived,
             beta_normalize, hash)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**30), st.integers(0, 4), st.booleans())
    def test_match_a_fresh_copy(self, seed, depth, encode):
        # every subnode is asked every fact first, in a random order, so
        # the root's answers are built from what its subnodes stored
        from finmodal.signature import LogicTag, Mode, Signature
        sig = Signature(Mode.CLASSICAL, LogicTag.K, {
            "p": PROPOSITION, "S": REL1, "c": INDIVIDUAL})
        rng = random.Random(seed)
        root = random_formula(rng, sig, depth, allow_encode=encode,
                              terms=True)
        asks = [(fact, n) for n in subnodes(root) for fact in self.FACTS]
        rng.shuffle(asks)
        for fact, n in asks:
            fact(n)
        copy = fresh(root)
        for fact in self.FACTS:
            assert fact(root) == fact(copy), fact.__name__
        assert tree_size(root) == sum(1 for _ in subnodes(root))
        for fact in (expand_derived, beta_normalize):
            normal = fact(root)
            assert fact(normal) is normal, fact.__name__

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**30), st.integers(0, 4))
    def test_a_second_call_returns_the_stored_form(self, seed, depth):
        # the root is neither primitive nor normal, so each fact returns a
        # new node, which the root stores
        from finmodal.signature import LogicTag, Mode, Signature
        sig = Signature(Mode.CLASSICAL, LogicTag.K, {
            "p": PROPOSITION, "S": REL1, "c": INDIVIDUAL})
        f = random_formula(random.Random(seed), sig, depth, terms=True)
        root = And(f, parse_formula("[\\x <>S x] c", sig))
        for fact in (expand_derived, beta_normalize):
            first = fact(root)
            assert first is not root
            assert fact(root) is first, fact.__name__
            assert first == fact(fresh(root)), fact.__name__

    def test_the_expansion_budget_is_checked_on_every_call(self,
                                                           classical_sig):
        # the chain's expansion is stored by the first call, and each later
        # call still measures it and raises the same error
        from finmodal.modelfind import SearchBoundsError, find_countermodel
        chain = parse_formula(" <-> ".join(["p"] * 16), classical_sig)
        messages = set()
        for _ in range(3):
            with pytest.raises(SearchBoundsError, match="expands to") as err:
                find_countermodel((), chain, classical_sig)
            messages.add(str(err.value))
        assert len(messages) == 1
        assert expand_derived(chain) is expand_derived(chain)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**30), st.integers(0, 4))
    def test_stored_hash_is_the_dataclass_hash_and_stays_home(self, seed,
                                                              depth):
        # the stored hash is the one the fields give, so set and dict
        # orders are unchanged; pickle and copy carry the fields alone
        from finmodal.signature import LogicTag, Mode, Signature
        sig = Signature(Mode.CLASSICAL, LogicTag.K, {
            "p": PROPOSITION, "S": REL1, "c": INDIVIDUAL})
        root = random_formula(random.Random(seed), sig, depth, terms=True)
        for n in subnodes(root):
            assert hash(n) == hash(tuple(getattr(n, f.name)
                                         for f in fields(n)))
            assert n._hash == hash(n)
        for other in (pickle.loads(pickle.dumps(root)), copy.copy(root),
                      copy.deepcopy(root)):
            assert getattr(other, "_hash", None) is None
            assert other == root and hash(other) == hash(root)

    def test_storing_makes_no_reference_cycle(self, aot_sig):
        # a stored form never points back to its node, so a normalized
        # formula is freed by reference counting alone once dropped
        rng = random.Random(11)
        for _ in range(60):
            f = And(random_formula(rng, aot_sig, 4, allow_encode=True,
                                   terms=True),
                    parse_formula("[\\x <>E! x] k", aot_sig))
            gc.collect()
            gc.disable()
            try:
                beta_normalize(expand_derived(f))
                del f
                assert gc.collect() == 0
            finally:
                gc.enable()
