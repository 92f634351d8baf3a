import dataclasses
import itertools
import random
import re

import pytest

from finmodal import translate
from finmodal.formulas import (
    INDIVIDUAL, PROPOSITION, REL1, Box, Const, Exemplify, Not, free_vars,
)
from finmodal.kripke import KripkeInterpretation, evaluate, total_access
from finmodal.parser import parse_formula
from finmodal.signature import LogicTag, Mode, Signature
from finmodal.translate import (
    MForallInd, MForallWorld, MImplies, MNot, MetaTerm, TranslationError,
    exhaustive_agreement, export_first_order, meta_evaluate,
    standard_translation,
)

from conftest import random_formula

SIG = Signature(Mode.CLASSICAL, LogicTag.K,
                {"p": PROPOSITION, "q": PROPOSITION})
FSIG = Signature(Mode.CLASSICAL, LogicTag.K, {
    "p": PROPOSITION, "q": PROPOSITION, "S": REL1, "c": INDIVIDUAL,
})


T_GOLDEN = "all x (Proposition(x) -> (all y (Point(y) -> True(x,y)) -> True(x,W)))"


class TestExport:
    def test_t_schema_golden(self):
        out = export_first_order(parse_formula("[]p -> p", SIG))
        assert out == T_GOLDEN

    def test_modality_free(self):
        out = export_first_order(parse_formula("p -> p", SIG))
        assert out == "all x (Proposition(x) -> (True(x,W) -> True(x,W)))"

    def test_unsupported_construct(self):
        with pytest.raises(TranslationError):
            export_first_order(parse_formula("@p", SIG))

    def test_k_schema_reimport_satisfiable(self):
        # oracle: a reader and finite evaluator for the exported sorted
        # first-order syntax, with Points a finite set, Propositions the
        # full function space, and True as application
        out = export_first_order(
            parse_formula("[](p -> q) -> ([]p -> []q)", SIG))
        sentence = _parse_fo(out)
        assert any(_fo_holds(sentence, n_points) for n_points in (1, 2))


def _parse_fo(text):
    tokens = re.findall(r"all|->|[()]|-|[A-Za-z]+\([^()]*\)|[A-Za-z]+", text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def eat(tok=None):
        t = tokens[pos[0]]
        if tok is not None and t != tok:
            raise ValueError(f"expected {tok}, got {t}")
        pos[0] += 1
        return t

    def formula():
        left = unit()
        if peek() == "->":
            eat("->")
            return ("imp", left, formula())
        return left

    def unit():
        t = peek()
        if t == "all":
            eat("all")
            var = eat()
            eat("(")
            body = formula()
            eat(")")
            return ("all", var, body)
        if t == "(":
            eat("(")
            f = formula()
            eat(")")
            return f
        if t == "-":
            eat("-")
            eat("(")
            f = formula()
            eat(")")
            return ("not", f)
        atom = eat()
        m = re.match(r"([A-Za-z]+)\(([^()]*)\)", atom)
        if not m:
            raise ValueError(atom)
        return ("atom", m.group(1), tuple(a.strip() for a in m.group(2).split(",")))

    f = formula()
    if pos[0] != len(tokens):
        raise ValueError("trailing tokens")
    return f


def _fo_holds(sentence, n_points):
    props = list(range(1 << n_points))
    points = list(range(n_points))

    def ev(node, env):
        kind = node[0]
        if kind == "imp":
            return (not ev(node[1], env)) or ev(node[2], env)
        if kind == "not":
            return not ev(node[1], env)
        if kind == "all":
            _, var, body = node
            # the exported syntax guards each quantifier by sort, so the
            # variable may range over everything
            for value in props if var.startswith("x") else points:
                if not ev(body, {**env, var: value}):
                    return False
            return True
        _, pred, args = node
        if pred == "Proposition":
            return isinstance(env.get(args[0]), int) and env[args[0]] in props
        if pred == "Point":
            return env.get(args[0]) in points
        if pred == "True":
            x = env[args[0]]
            y = 0 if args[1] == "W" else env[args[1]]
            return bool((x >> y) & 1)
        raise ValueError(pred)

    return ev(sentence, {})


class TestStandardTranslation:
    def test_box_forall_shape(self):
        f = parse_formula("[] all x (S x)", FSIG)
        mt = standard_translation(f)
        assert "R w v1" in str(mt)
        assert "forall i1" in str(mt)

    def test_agreement_with_eval_on_random_models(self):
        rng = random.Random(31)
        for _ in range(120):
            f = random_formula(rng, FSIG, rng.randint(0, 5),
                               quantifiers=True, allow_encode=False)
            if free_vars(f):
                continue
            try:
                mt = standard_translation(f)
            except TranslationError:
                continue  # relation quantifiers are out of scope
            n_w = rng.randint(1, 3)
            n_d = rng.randint(1, 2)
            R = frozenset((w, v) for w in range(n_w) for v in range(n_w)
                          if rng.random() < 0.5)
            m = KripkeInterpretation(
                FSIG, n_w, n_d, R,
                {"p": rng.randrange(1 << n_w), "q": rng.randrange(1 << n_w),
                 "S": rng.randrange(1 << (n_d * n_w)), "c": rng.randrange(n_d)})
            for w in range(n_w):
                assert evaluate(f, m, {}, w) == meta_evaluate(mt, m, w)

    def test_exhaustive_agreement_small(self):
        rep = exhaustive_agreement(max_depth=2, max_worlds=2)
        assert rep.ok
        assert rep.n_formulas == 182
        assert rep.n_models == 8 + 256

    @pytest.mark.parametrize("atoms, n_models", [
        (("p",), 68), (("a", "b"), 264), (("p", "q", "r"), 1040)])
    def test_exhaustive_agreement_any_atoms(self, atoms, n_models):
        # one valuation column per atom, the first atom outermost
        rep = exhaustive_agreement(max_depth=2, max_worlds=2, atoms=atoms)
        assert rep.ok
        assert rep.n_models == n_models

    def test_exhaustive_agreement_reports_first_mismatches(self, monkeypatch):
        # a translation whose first Box has lost its accessibility guard
        def unguard(n):
            if isinstance(n, MForallWorld):
                return MForallWorld(n.var, n.body.right), True
            if isinstance(n, (MNot, MForallInd)):
                body, done = unguard(n.body)
                return dataclasses.replace(n, body=body), done
            if isinstance(n, MImplies):
                left, done = unguard(n.left)
                if done:
                    return MImplies(left, n.right), True
                right, done = unguard(n.right)
                return MImplies(n.left, right), done
            return n, False

        def unguarded(f):
            mt = standard_translation(f)
            return MetaTerm(mt.world, unguard(mt.body)[0])

        monkeypatch.setattr(translate, "standard_translation", unguarded)
        rep = exhaustive_agreement(max_depth=2, max_worlds=2)
        p, q = (Exemplify(Const(a, PROPOSITION), ()) for a in ("p", "q"))
        # (formula, worlds, (frame, p, q), world), at most six of them
        assert rep.mismatches == [
            (Box(p), 1, (frozenset(), 0, 0), 0),
            (Box(p), 2, (frozenset(), 0, 0), 0),
            (Box(q), 1, (frozenset(), 0, 0), 0),
            (Box(q), 2, (frozenset(), 0, 0), 0),
            (Box(Not(p)), 1, (frozenset(), 1, 0), 0),
            (Box(Not(p)), 2, (frozenset(), 1, 0), 0),
        ]

    def test_diamond_goes_through_expansion(self):
        f = parse_formula("<>q", SIG)
        mt = standard_translation(f)
        m = KripkeInterpretation(SIG, 2, 1, frozenset({(0, 1)}),
                                 {"p": 0, "q": 0b10})
        assert meta_evaluate(mt, m, 0) is True
        assert meta_evaluate(mt, m, 1) is False
        assert evaluate(f, m, {}, 0) is True
