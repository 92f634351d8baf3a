import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_formula
from finmodal.cli import run
from finmodal.formulas import (
    INDIVIDUAL, MACRO_FORMULA_SIGS, MACRO_TERM_SIGS, PROPOSITION, REL1,
    SECOND_ORDER, Box, Const, Description, Encode, Exemplify, Exists, Forall,
    Formula, Implies, Lambda, MacroFormula, MacroTerm, Not, PrimitiveEq,
    Relation, SOAtom, SortError, Var, alpha_equivalent, binder_vars,
    children, sort_of, subnodes,
)
from finmodal.parser import (
    MAX_DEPTH, ParseError, _Parser, lex, parse_formula, parse_term,
)
from finmodal.printer import print_formula
from finmodal.signature import LogicTag, Mode, ModeViolation, Signature


@pytest.fixture
def sig():
    return Signature(Mode.CLASSICAL, LogicTag.K,
                     {"p": PROPOSITION, "q": PROPOSITION, "P": SECOND_ORDER})


@pytest.fixture
def asig():
    return Signature(Mode.AOT, LogicTag.S5TOTAL, {"q": PROPOSITION})


def test_box_implication(sig):
    f = parse_formula("[]p -> p", sig)
    p = Exemplify(Const("p", PROPOSITION), ())
    assert f == Implies(Box(p), p)


def test_aot_axiom_with_tight_tokens(asig):
    # bang-suffixed names bind the bang: O!x lexes as O! then x
    f = parse_formula("O!x -> [] ~ exists F (x[F])", asig)
    assert isinstance(f, Implies)
    assert isinstance(f.left, Exemplify)
    assert f.left.rel == MacroTerm("O!")
    inner = f.right.body.body  # under box, under not
    assert isinstance(inner, Exists)
    assert isinstance(inner.body, Encode)


def test_encoding_in_classical_mode_rejected(sig):
    with pytest.raises(ModeViolation):
        parse_formula("x[F]", sig)


def test_lex_error_carries_position(sig):
    with pytest.raises(ParseError) as e:
        parse_formula("p -> $", sig)
    assert "position 5" in str(e.value)


def test_sort_error_names_symbol(sig):
    with pytest.raises(Exception) as e:
        parse_formula("p p", sig)  # a proposition applied to an argument
    assert "p" in str(e.value) or "arity" in str(e.value)


def test_star_names(sig):
    t = parse_term("G*", sig)
    assert t == MacroTerm("G*")


def test_second_order_application(sig):
    f = parse_formula("P (neg Y)", sig)
    from finmodal.formulas import SOAtom
    assert isinstance(f, SOAtom)
    assert f.arg == MacroTerm("neg", (Var("Y", REL1),))


def test_binder_annotations(sig):
    f = parse_formula("all v:prop (v -> v)", sig)
    assert f.var.sort == PROPOSITION
    g = parse_formula(print_formula(f), sig)
    assert alpha_equivalent(f, g)


@pytest.mark.parametrize("text, sort", [
    ("all X:ind (S X)", INDIVIDUAL), ("all x:rel (x c)", REL1),
    ("all x:rel 2 (x c c)", Relation(2))])
def test_sort_annotation(text, sort):
    f = parse_formula(text, CLASSICAL)
    assert f.var.sort == sort
    assert print_formula(f) == text


def test_unknown_sort_annotation():
    with pytest.raises(ParseError, match="unknown sort 'set'") as raised:
        parse_formula("all x:set (S x)", CLASSICAL)
    assert raised.value.pos == 6


@pytest.mark.parametrize("text, params", [
    ("[\\x \\y R x y] a b", ("x", "y")),
    ("all x ([\\y \\z \\w T w z y] x b a)", ("y", "z", "w"))])
def test_multi_parameter_lambda_round_trip(text, params):
    # every parameter after the first is read by lambda_term's loop
    msig = Signature(Mode.CLASSICAL, LogicTag.K, {
        "R": Relation(2), "T": Relation(3), "a": INDIVIDUAL,
        "b": INDIVIDUAL})
    f = parse_formula(text, msig)
    lam = next(n for n in subnodes(f) if isinstance(n, Lambda))
    assert tuple(v.name for v in lam.params) == params
    assert all(v.sort == INDIVIDUAL for v in lam.params)
    assert sort_of(lam) == Relation(len(params))
    assert print_formula(f) == text
    assert parse_formula(print_formula(f), msig) == f


def test_print_box(sig):
    assert print_formula(parse_formula("[] p", sig)) == "[]p"


def test_trailing_input_rejected(sig):
    with pytest.raises(ParseError):
        parse_formula("p q extra", sig)


def test_description_parses_in_aot_only(sig, asig):
    text = "exists F (F (the x: x[F]))"
    parse_formula(text, asig)
    with pytest.raises(ModeViolation):
        parse_formula("exists F (F (the x: q))", sig)


# -- sort and mode checks, made as the parser builds each node

CLASSICAL = Signature(Mode.CLASSICAL, LogicTag.K, {
    "p": PROPOSITION, "S": REL1, "c": INDIVIDUAL, "P": SECOND_ORDER})
AOT = Signature(Mode.AOT, LogicTag.S5TOTAL, {
    "p": PROPOSITION, "k": INDIVIDUAL, "S": REL1})

# Every check that parsed text can fail: (formula, signature, class,
# message, the ill-sorted term in the formula, if it has one).
SORT_CHECKS = [
    ("S p", CLASSICAL, SortError,
     "exemplification argument is not an individual", None),
    ("P c", CLASSICAL, SortError,
     "second-order atom argument is not a unary relation", None),
    ("c[S]", CLASSICAL, ModeViolation,
     "encoding atoms require an AOT signature", None),
    ("k[p]", AOT, SortError, "only monadic encoding is supported", None),
    ("c = S", CLASSICAL, SortError,
     "equality between terms of different sorts", None),
    ("k = S", AOT, SortError, "identity between terms of different sorts",
     None),
    ("id c c", CLASSICAL, ModeViolation,
     "defined identity belongs to AOT signatures", None),
    ("ent c S", CLASSICAL, SortError, "macro ent: argument sort mismatch",
     None),
    ("S (the x: S x)", CLASSICAL, ModeViolation,
     "definite descriptions require an AOT signature", "(the x: S x)"),
    ("P (neg c)", CLASSICAL, SortError, "macro neg: argument sort mismatch",
     "neg c"),
]
SORT_CHECK_IDS = [row[0] for row in SORT_CHECKS]


def _declarations(sig):
    words = {INDIVIDUAL: "ind", PROPOSITION: "prop", REL1: "rel",
             SECOND_ORDER: "so"}
    return [f"sig {sig.mode.value}", f"logic {sig.logic.value}"] + [
        f"const {name} : {words[sort]}" for name, sort in sig.consts.items()
        if name != "E!"]


@pytest.mark.parametrize("text,sig,error,message,term", SORT_CHECKS,
                         ids=SORT_CHECK_IDS)
def test_each_sort_check(text, sig, error, message, term):
    with pytest.raises(SortError) as e:
        parse_formula(text, sig)
    assert (type(e.value), str(e.value)) == (error, message)
    if term is not None:
        with pytest.raises(SortError) as e:
            parse_term(term, sig)
        assert (type(e.value), str(e.value)) == (error, message)


@pytest.mark.parametrize("text,sig,error,message,term", SORT_CHECKS,
                         ids=SORT_CHECK_IDS)
def test_each_sort_check_on_a_file_line(tmp_path, capsys, text, sig, error,
                                        message, term):
    lines = _declarations(sig)
    problem = tmp_path / "sig.problem"
    problem.write_text("\n".join(lines) + "\n")
    bad_problem = tmp_path / "bad.problem"
    bad_problem.write_text("\n".join(lines + [f"premise {text}"]) + "\n")
    bad_proof = tmp_path / "bad.proof"
    bad_proof.write_text(f"layer K\nhyp {text}\nqed 1\n")
    for argv, no in ((["check", str(bad_problem)], len(lines) + 1),
                     (["prove", str(problem), str(bad_proof)], 2)):
        assert run(argv) == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err.splitlines() == [f"error: line {no}: {message}"]


def test_a_parse_error_wins_over_a_sort_error():
    # the sort error comes first in the text, the parse error last
    with pytest.raises(ParseError, match="trailing input"):
        parse_formula("S p & p )", CLASSICAL)
    with pytest.raises(ParseError, match="expected"):
        parse_term("neg (the x: S x", CLASSICAL)
    deep = "S p & " + "~" * (MAX_DEPTH + 1) + "p"
    with pytest.raises(ParseError, match="nested deeper"):
        parse_formula(deep, CLASSICAL)


def test_the_first_sort_error_in_the_text_is_raised():
    with pytest.raises(SortError,
                       match="exemplification argument is not an individual"):
        parse_formula("S p & P c", CLASSICAL)
    with pytest.raises(SortError, match="second-order atom argument"):
        parse_formula("P c & S p", CLASSICAL)


# -- the same checks as a second walk over the finished tree: the oracle

def oracle_errors(f, sig):
    """The sort checker the parser had before it checked each node as it
    built it, changed only to collect every error instead of raising the
    first: (class, message) for each, in the order its walk meets them."""
    errors = []

    def fail(error, message):
        errors.append((error, message))

    def push(env, vs):
        env = dict(env)
        for v in vs:
            env[v.name] = v.sort
        return env

    def check_term(t, env):
        if isinstance(t, Var):
            if t.name in env and env[t.name] != t.sort:
                fail(SortError, f"variable {t.name} used at two sorts")
            return t.sort
        if isinstance(t, Const):
            declared = sig.consts.get(t.name)
            if declared is None:
                fail(SortError, f"undeclared constant {t.name!r}")
            elif declared != t.sort:
                fail(SortError,
                     f"constant {t.name} declared {declared}, used {t.sort}")
            return t.sort
        if isinstance(t, Description):
            if sig.mode is not Mode.AOT:
                fail(ModeViolation,
                     "definite descriptions require an AOT signature")
            check(t.body, push(env, (t.var,)))
            return INDIVIDUAL
        if isinstance(t, MacroTerm):
            if t.name not in MACRO_TERM_SIGS:
                fail(SortError, f"unknown term macro {t.name!r}")
                return None
            arg_sorts, result = MACRO_TERM_SIGS[t.name]
            if len(t.args) != len(arg_sorts):
                fail(SortError,
                     f"macro {t.name} expects {len(arg_sorts)} arguments")
            for a, s in zip(t.args, arg_sorts):
                if check_term(a, env) != s:
                    fail(SortError, f"macro {t.name}: argument sort mismatch")
            return result
        if isinstance(t, Lambda):
            check(t.body, push(env, t.params))
            return sort_of(t)
        fail(SortError, f"not a term: {t!r}")
        return None

    def check(f, env):
        if isinstance(f, Exemplify):
            rs = check_term(f.rel, env)
            if rs is None or rs.kind != "rel":
                fail(SortError, "exemplification head is not a relation term")
                return
            if rs.arity != len(f.args):
                fail(SortError, f"relation of arity {rs.arity} applied to "
                                f"{len(f.args)} arguments")
            for a in f.args:
                if check_term(a, env) != INDIVIDUAL:
                    fail(SortError,
                         "exemplification argument is not an individual")
            return
        if isinstance(f, Encode):
            if sig.mode is not Mode.AOT:
                fail(ModeViolation, "encoding atoms require an AOT signature")
            if check_term(f.obj, env) != INDIVIDUAL:
                fail(SortError, "encoding subject is not an individual")
            if check_term(f.rel, env) != REL1:
                fail(SortError, "only monadic encoding is supported")
            return
        if isinstance(f, SOAtom):
            if check_term(f.op, env) != SECOND_ORDER:
                fail(SortError, "second-order atom head is not a "
                                "second-order constant")
            if check_term(f.arg, env) != REL1:
                fail(SortError,
                     "second-order atom argument is not a unary relation")
            return
        if isinstance(f, PrimitiveEq):
            if sig.mode is Mode.AOT:
                fail(ModeViolation,
                     "primitive equality is not available in AOT mode")
            if check_term(f.left, env) != check_term(f.right, env):
                fail(SortError, "equality between terms of different sorts")
            return
        if isinstance(f, MacroFormula):
            if f.name not in MACRO_FORMULA_SIGS:
                fail(SortError, f"unknown formula macro {f.name!r}")
                return
            arg_sorts = MACRO_FORMULA_SIGS[f.name]
            if len(f.args) != len(arg_sorts):
                fail(SortError,
                     f"macro {f.name} expects {len(arg_sorts)} arguments")
            got = [check_term(a, env) for a in f.args]
            for g, want in zip(got, arg_sorts):
                if want is not None and g != want:
                    fail(SortError, f"macro {f.name}: argument sort mismatch")
            if f.name == "id":
                if got[0] != got[1]:
                    fail(SortError,
                         "identity between terms of different sorts")
                if sig.mode is not Mode.AOT:
                    fail(ModeViolation,
                         "defined identity belongs to AOT signatures")
            return
        bvs = binder_vars(f)
        if bvs:
            env = push(env, bvs)
        for c in children(f):
            if isinstance(c, Formula):
                check(c, env)
            else:
                check_term(c, env)

    check(f, {})
    return errors


# Constants of both signatures the differential property parses under:
# random formulas use p, k and S; mutants also reach R, P and the rest.
DIFF_CONSTS = {"p": PROPOSITION, "k": INDIVIDUAL, "S": REL1,
               "R": Relation(2), "P": SECOND_ORDER}
DIFF_SIGS = (Signature(Mode.AOT, LogicTag.S5TOTAL, DIFF_CONSTS),
             Signature(Mode.CLASSICAL, LogicTag.K, DIFF_CONSTS))
MUTANT_NAMES = ("p", "k", "S", "R", "P", "E!", "c", "x0", "x1", "Y0", "F",
                "neg", "O!", "G", "id", "dn", "ent", "ess_g")


def _outcome(text, sig, memo=None):
    """The parsed formula, or the error parsing it raises."""
    try:
        return parse_formula(text, sig, memo), None
    except ParseError as e:
        return None, (ParseError, str(e), e.pos)
    except SortError as e:
        return None, (type(e), str(e))


def _one_name_mutant(text, rng):
    names = [t for t in lex(text) if t.kind == "name"]
    if not names:
        return text
    t = rng.choice(names)
    return text[:t.pos] + rng.choice(MUTANT_NAMES) + text[t.pos + len(t.text):]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**30), st.integers(0, 3), st.booleans())
def test_checks_as_built_match_a_second_walk(seed, depth, first_order):
    rng = random.Random(seed)
    f = random_formula(rng, DIFF_SIGS[0], depth, allow_encode=True,
                       terms=True, first_order=first_order)
    text = print_formula(f)
    for text in (text, _one_name_mutant(text, rng),
                 _one_name_mutant(_one_name_mutant(text, rng), rng)):
        for sig in DIFF_SIGS:
            got = _outcome(text, sig)
            with patch.object(_Parser, "check", lambda *args: None):
                bare, parse_error = _outcome(text, sig)
            if parse_error is not None:
                assert got == (None, parse_error), text
                continue
            errors = oracle_errors(bare, sig)
            if not errors:
                assert got == (bare, None), text
            elif len(errors) == 1:
                assert got == (None, errors[0]), text
            else:
                assert got[0] is None and got[1] in errors, text


# -- one memo shared by several texts

def test_a_text_parsed_alone_makes_no_memo():
    # no group key is built, nor the brackets it spans found
    with patch.object(_Parser, "bindings", side_effect=AssertionError), \
            patch("finmodal.parser._closing_brackets",
                  side_effect=AssertionError):
        parse_formula("all Y ((P Y) -> [](P Y)) & [\\x S x] c", CLASSICAL)
        parse_term("neg (neg S)", CLASSICAL)


def test_a_whole_text_parsed_twice_under_one_memo_is_one_node():
    # neither text holds a bracketed group
    memo = {}
    for parse, text in ((parse_formula, "p & S c"), (parse_term, "neg S")):
        node = parse(text, CLASSICAL, memo)
        assert parse(text, CLASSICAL, memo) is node
        assert parse(text, CLASSICAL) is not node


@pytest.mark.parametrize("text", ["p & S p", "p & (S c", "p & S c )"])
def test_a_text_that_raised_is_not_kept(text):
    memo = {}
    raised = _outcome(text, CLASSICAL, memo)
    assert raised[0] is None and ("formula", text) not in memo
    assert _outcome(text, CLASSICAL, memo) == raised


def test_equal_groups_share_one_node_under_one_memo():
    text = "all x (S x) -> ~(p & S c) & all x (S x) & (p & S c)"
    memo = {}
    f = parse_formula(text, CLASSICAL, memo)
    assert f == parse_formula(text, CLASSICAL)
    g = parse_formula("~(p & S c)", CLASSICAL, memo)
    assert f.left is f.right.left.right
    assert f.right.left.left.body is f.right.right is g.body
    again = parse_formula(text, CLASSICAL, memo)
    assert again.left is f.left and again.right.right is f.right.right
    assert parse_formula(text, CLASSICAL, {}).left is not f.left


# A lexing error after the point where the parse alone would stop, and
# after or inside a group the memo holds
@pytest.mark.parametrize("text", [
    "p ) $", "(p & S c) ) $", "(p & S c) -> (p & S c) ! p",
    "~(p & S c) & ~(p $ S c)", "all x (S x) all x (S x) <",
])
def test_lex_error_comes_first_under_a_memo(text):
    memo = {}
    parse_formula("~(p & S c) & all x (S x)", CLASSICAL, memo)
    with pytest.raises(ParseError) as lexed:
        lex(text)
    with pytest.raises(ParseError) as parsed:
        parse_formula(text, CLASSICAL, memo)
    assert (str(parsed.value), parsed.value.pos) == \
        (str(lexed.value), lexed.value.pos)


def test_a_binder_bound_twice_waits_for_the_lex_error():
    # the lambda's SortError is kept until the text has parsed, and lex,
    # run to the end, finds the bad character first
    for memo in (None, {}):
        with pytest.raises(ParseError, match="'\\$'"):
            parse_formula("[\\x\\x S x] c ) $", CLASSICAL, memo)


BOUND_TWICE = (
    ("[\\x\\x S x] c )", ParseError, "trailing input ')' (at position 13)"),
    ("[\\x\\x S x] c", SortError, "lambda binds a variable twice"),
)


def test_a_binder_bound_twice_yields_to_a_later_parse_error():
    # the lambda, built on its one distinct binder, takes one argument, and
    # a ParseError anywhere in the text comes before the SortError; each
    # text raises the same alone, under a fresh memo and under one memo
    # shared with the other
    shared = {}
    for memo in (None, {}, shared, shared):
        for text, cls, message in BOUND_TWICE:
            with pytest.raises(cls) as err:
                parse_formula(text, CLASSICAL, memo)
            assert type(err.value) is cls
            assert str(err.value) == message


TEXT_CHARS = "()[]\\~&|-<>@:=,! pqxcSPY#\n"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet=TEXT_CHARS, max_size=30), max_size=3))
def test_a_shared_memo_changes_no_outcome_on_any_text(texts):
    for sig in DIFF_SIGS:
        memo = {}
        for text in texts + [" & ".join(texts)]:
            assert _outcome(text, sig, memo) == _outcome(text, sig)


def _bracket_mutant(text, rng):
    """text with one bracket dropped, or one character replaced."""
    brackets = [i for i, c in enumerate(text) if c in "()[]"]
    if brackets and rng.random() < 0.5:
        i = rng.choice(brackets)
        return text[:i] + text[i + 1:]
    i = rng.randrange(len(text))
    return text[:i] + rng.choice("()[]~&:xS ") + text[i + 1:]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**30), st.integers(1, 4))
def test_a_shared_memo_changes_no_outcome(seed, depth):
    """Random formulas, their subformulas and mutants, parsed in turn with
    one memo per signature, each as it parses alone."""
    rng = random.Random(seed)
    texts = []
    for _ in range(3):
        f = random_formula(rng, DIFF_SIGS[0], depth, allow_encode=True,
                           terms=True, first_order=rng.random() < 0.3)
        text = print_formula(f)
        texts += [text, _one_name_mutant(text, rng),
                  _bracket_mutant(text, rng), "~" * rng.randint(40, 64) + text]
        sub = rng.choice([g for g in subnodes(f) if isinstance(g, Formula)])
        texts.append(print_formula(sub))
    rng.shuffle(texts)
    for sig in DIFF_SIGS:
        memo = {}
        for text in texts:
            assert _outcome(text, sig, memo) == _outcome(text, sig), text
