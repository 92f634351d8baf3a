import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from finmodal import problemfile
from finmodal.abstraction import (
    Accepted, ProofScript, check_proof, make_layer,
)
from finmodal.formulas import (
    INDIVIDUAL, REL1, Actually, And, Box, Const, Diamond, Exemplify, Exists,
    Forall, Formula, Iff, Implies, Lambda, Not, Or, Var, Xor, children,
    subnodes,
)
from finmodal.kripke import frame_check
from finmodal.modelfind import enumerate_models
from finmodal.parser import _Parser, parse_formula, parse_term
from finmodal.printer import print_formula
from finmodal.problemfile import (
    ProblemFileError, _parse_subst, load_problem, load_proof, parse_problem,
    parse_proof, parse_aot_config, render_proof,
)
from finmodal.proofs import (
    ScriptBuilder, derive_kdia, goedel_refutation_script, kdia_script,
    two_individuals_script,
)
from finmodal.signature import LogicTag, Mode

from conftest import random_formula


def test_minimal_file_gets_default_bounds():
    problem = parse_problem("const p : prop\npremise p\n")
    assert problem.bounds.max_worlds == 3
    assert problem.bounds.max_individuals == 2
    assert len(problem.premises) == 1
    assert problem.expectation is None


def test_kb_logic_sets_symmetric_frames():
    problem = parse_problem(
        "logic KB\nconst p : prop\nbounds worlds=2 individuals=1\npremise p\n")
    assert problem.sig.logic == LogicTag.KB
    for m in enumerate_models(problem.sig, problem.bounds):
        assert frame_check(m, LogicTag.KB)


def test_parse_error_carries_line_number():
    with pytest.raises(ProblemFileError) as e:
        parse_problem("const p : prop\npremise p &&\n")
    assert "line 2" in str(e.value)


def test_unknown_directive():
    with pytest.raises(ProblemFileError):
        parse_problem("frobnicate 3\n")


def test_proof_round_trip_kdia():
    problem = load_problem("problems/s5.problem")
    text = render_proof("K", kdia_script())
    layer_name, script = parse_proof(text, problem.sig)
    assert layer_name == "K"
    verdict = check_proof(script, make_layer("K"), tuple(problem.premises))
    assert isinstance(verdict, Accepted)
    assert render_proof("K", script) == text


def test_proof_round_trip_aot():
    problem = load_problem("problems/two_individuals.problem")
    text = render_proof("AOT", two_individuals_script())
    layer_name, script = parse_proof(text, problem.sig)
    verdict = check_proof(script, make_layer(layer_name),
                          tuple(problem.premises))
    assert isinstance(verdict, Accepted)


def test_shipped_refutation_script_loads():
    problem = load_problem("problems/goedel.problem")
    layer_name, script = load_proof("proofs/goedel_refutation.proof",
                                    problem.sig)
    verdict = check_proof(script, make_layer(layer_name),
                          tuple(problem.premises))
    assert isinstance(verdict, Accepted)


def test_aot_config_parsing():
    config = parse_aot_config(
        "ordinary 1\nspecial 1\nworlds 2\nconcrete u0 w1\n"
        "const k1 ordinary 0\nconst k2 abstract 2 5\nsigma membership 3\n")
    assert config.n_ordinary == 1
    assert config.e_bang == 0b10
    assert config.consts["k2"] == ("abstract", (2, 5))
    assert config.sigma == ("membership", 3)
    # any number of abstract values, and repeated concrete lines
    config = parse_aot_config("const k abstract\nconcrete u0 w1\n"
                              "concrete u0 w1\nconst p prop 0b11\n")
    assert config.consts == {"k": ("abstract", ()), "p": ("prop", 3)}
    assert config.e_bang == 0b10


@pytest.mark.parametrize("text,error", [
    ("sigma membership", "expected 'sigma membership <value>'"),
    ("sigma", "expected 'sigma constant' or 'sigma membership <value>'"),
    ("sigma constant 3", "expected 'sigma constant'"),
    ("const k1 ordinary", "expected 'const <name> ordinary <urelement>'"),
    ("const k1", "expected 'const <name> <kind> ...'"),
    ("const k2 abstract 1 x", "expected 'const <name> abstract <value> ...'"),
    ("const p prop 0b12", "expected 'const <name> prop <value>'"),
    ("concrete u0", "expected 'concrete u<i> w<j>'"),
    ("concrete uu0 ww1", "expected 'concrete u<i> w<j>'"),
    ("ordinary", "expected 'ordinary <n>'"),
    ("ordinary 1 junk", "expected 'ordinary <n>'"),
    ("worlds 2 3", "expected 'worlds <n>'"),
    ("actual -1", "expected 'actual <n>'"),
    ("worlds 2\nworlds 2", "'worlds' is given twice"),
    ("sigma constant\nsigma membership 3", "'sigma' is given twice"),
    ("const k ordinary 0\nconst k abstract", "constant 'k' is declared twice"),
])
def test_malformed_model_line_names_its_form(text, error):
    lines = text.count("\n") + 1
    with pytest.raises(ProblemFileError) as e:
        parse_aot_config("ordinary 1\n" + text + "\n")
    assert str(e.value) == f"line {lines + 1}: {error}"


# ---------------------------------------------------------------------------
# One parse per distinct text and bracketed group within a parse_proof call

SHIPPED_PROOFS = [("s5", "kdia"), ("goedel", "goedel_refutation"),
                  ("two_individuals", "two_individuals")]


def _step_roots(step):
    if step.rule == "ax":
        return tuple(step.args[1].values())
    if step.rule == "hyp":
        return step.args
    if step.rule == "gen":
        return step.args[1:]
    return ()


def _step_nodes(step):
    return [n for root in _step_roots(step) for n in subnodes(root)]


def _outcome(parse, text, sig):
    try:
        return parse(text, sig)
    except ProblemFileError as e:
        return str(e)


def _parsed_alone(text, sig):
    """parse_proof with each of its texts parsed by a parser of its own."""
    with patch.object(problemfile, "parse_formula",
                      lambda text, sig, memo: parse_formula(text, sig)), \
            patch.object(problemfile, "parse_term",
                         lambda text, sig, memo: parse_term(text, sig)):
        return parse_proof(text, sig)


_PREFIX = (Not, Box, Diamond, Actually)
_CONNECTIVES = (And, Or, Implies, Iff, Xor)


def _bracketed(steps):
    """Each node of the steps, once, that printed text always brackets: a
    quantifier, a lambda, or a connective right under a prefix operator."""
    seen = set()
    stack = [root for step in steps for root in _step_roots(step)]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        if isinstance(n, (Forall, Exists, Lambda)):
            yield n
        elif isinstance(n, _PREFIX) and isinstance(n.body, _CONNECTIVES):
            yield n.body
        stack.extend(children(n))


def _assert_each_step_parses_alone(text, sig):
    """Each step parse_proof gives equals its line parsed in a parse_proof
    call of its own. The steps, or the error, equal those that parsing
    each text alone gives, and equal groups the printer brackets are one
    node."""
    shared = _outcome(parse_proof, text, sig)
    if not isinstance(shared, str):
        layer_name, script = shared
        lines = [raw for raw in text.splitlines()
                 if raw.strip() and raw.split()[0] != "layer"]
        assert len(lines) == len(script.steps)
        for raw, step in zip(lines, script.steps):
            (alone,) = parse_proof(f"layer {layer_name}\n{raw}\n",
                                   sig)[1].steps
            assert alone == step, raw
    assert shared == _outcome(_parsed_alone, text, sig)
    if isinstance(shared, str):
        return
    first: dict = {}
    for n in _bracketed(shared[1].steps):
        assert first.setdefault(n, n) is n, print_formula(n) \
            if isinstance(n, Formula) else n


@pytest.mark.parametrize("problem,proof", SHIPPED_PROOFS,
                         ids=[p for _, p in SHIPPED_PROOFS])
def test_each_shipped_step_equals_its_text_parsed_alone(problem, proof):
    sig = load_problem(f"problems/{problem}.problem").sig
    with open(f"proofs/{proof}.proof") as fh:
        _assert_each_step_parses_alone(fh.read(), sig)


def test_each_rendered_kdia_step_equals_its_text_parsed_alone():
    sig = parse_problem("logic K\nconst p : prop\nconst q : prop\n"
                        "const r : prop\n").sig
    rng = random.Random(3)
    for _ in range(8):
        builder = ScriptBuilder(make_layer("K"))
        derive_kdia(builder, random_formula(rng, sig, 2, quantifiers=False),
                    random_formula(rng, sig, 2, quantifiers=False))
        _assert_each_step_parses_alone(
            render_proof("K", builder.script()), sig)


def test_equal_texts_share_one_node_within_a_call_only():
    sig = parse_problem("const p : prop\nconst q : prop\n").sig
    text = ("layer K\nhyp p -> q\nhyp p -> q\n"
            "ax pl1 {p: p -> q, q: q}\nhyp q\ngen 1 x\ngen 2 x\n")
    first = parse_proof(text, sig)[1].steps
    hyp1, hyp2, ax, hyp3, gen1, gen2 = first
    (f1,), (f2,), (_, subst), (f3,) = hyp1.args, hyp2.args, ax.args, hyp3.args
    assert f1 is f2 is subst["p"]
    assert subst["q"] is f3
    assert gen1.args[1] is gen2.args[1]
    second = parse_proof(text, sig)[1].steps
    assert second == first
    seen = {id(n) for step in first for n in _step_nodes(step)}
    assert not any(id(n) in seen for step in second for n in _step_nodes(step))


@pytest.mark.parametrize("bad", ["hyp p &&", "ax pl1 {p: p &&, q: q}"])
def test_a_bad_text_repeated_reports_its_first_line(bad):
    sig = parse_problem("const p : prop\nconst q : prop\n").sig
    lines = ["layer K", "hyp p", bad, "hyp q", "hyp q", "hyp p", bad]
    with pytest.raises(ProblemFileError) as e:
        parse_proof("\n".join(lines) + "\n", sig)
    assert e.value.line == 3


@pytest.mark.parametrize("line,message", [
    ("ax pl1 {p: p, q: q} q", "unexpected 'q' after the substitution"),
    ("mp 1 2 3", "expected 'mp <i> <j>'"),
    ("mp -1 2", "expected 'mp <i> <j>'"),
    ("nec x", "expected 'nec <i>'"),
    ("gen x 1", "expected 'gen <i> <variable>'"),
    ("qed", "expected 'qed <i>'"),
])
def test_malformed_proof_line(line, message):
    sig = parse_problem("const p : prop\nconst q : prop\n").sig
    with pytest.raises(ProblemFileError) as e:
        parse_proof(f"layer K\nhyp p\n{line}\n", sig)
    assert str(e.value) == f"line 3: {message}"


# id -> (proof file, what parsing it and rendering the script back gives:
# the rendered text, or the error)
PROOF_FILES = {
    "every-rule": (
        "layer K\n\nhyp p\n  # a comment\ngen 1 x\npremise 2\nmp 1 3\n"
        "expand 4\nnec 5\nax pl1 {q: q, p: p}\nqed 2\n",
        "layer K\nhyp p\ngen 1 x\npremise 2\nmp 1 3\nexpand 4\nnec 5\n"
        "ax pl1 {p: p, q: q}\nqed 2\n"),
    "second-layer": ("layer K\nlayer K\n", "line 2: 'layer' is given twice"),
    "unknown-layer": ("layer T\n", "line 1: unknown layer 'T'"),
    "missing-layer": ("hyp p\n", "line 1: missing 'layer' line"),
    "unknown-step": ("layer K\nlemma 1\n", "line 2: unknown step 'lemma'"),
    "no-substitution": ("layer K\nax pl1 p: p, q: q}\n",
                        "line 2: expected 'ax <schema> {...}'"),
    "unclosed-substitution": ("layer K\nax pl1 {p: p, q: q\n",
                              "line 2: the substitution has no closing '}'"),
    "after-substitution": ("layer K\nax pl1 {p: p} q\n",
                           "line 2: unexpected 'q' after the substitution"),
    "repeated-metavariable": ("layer K\nax pl1 {p: p, p: q}\n",
                              "line 2: metavariable 'p' is given twice"),
    "gen-constant": ("layer K\nhyp p\ngen 1 c\n",
                     "line 3: gen needs a variable"),
    "mp-count": ("layer K\nmp 1\n", "line 2: expected 'mp <i> <j>'"),
    "mp-word": ("layer K\nmp 1 j\n", "line 2: expected 'mp <i> <j>'"),
    "nec-count": ("layer K\nnec\n", "line 2: expected 'nec <i>'"),
    "nec-word": ("layer K\nnec 1.0\n", "line 2: expected 'nec <i>'"),
    "gen-count": ("layer K\ngen 1\n",
                  "line 2: expected 'gen <i> <variable>'"),
    "gen-word": ("layer K\ngen x x\n",
                 "line 2: expected 'gen <i> <variable>'"),
    "expand-count": ("layer K\nexpand 1 2\n", "line 2: expected 'expand <i>'"),
    "expand-word": ("layer K\nexpand -1\n", "line 2: expected 'expand <i>'"),
    "premise-count": ("layer K\npremise\n", "line 2: expected 'premise <k>'"),
    "premise-word": ("layer K\npremise one\n",
                     "line 2: expected 'premise <k>'"),
    "qed-count": ("layer K\nqed 1 1\n", "line 2: expected 'qed <i>'"),
    "qed-word": ("layer K\nqed i\n", "line 2: expected 'qed <i>'"),
}


@pytest.mark.parametrize("case", PROOF_FILES)
def test_proof_file_parses_and_renders(case):
    text, want = PROOF_FILES[case]
    sig = parse_problem("const p : prop\nconst q : prop\nconst c : ind\n").sig
    try:
        got = render_proof(*parse_proof(text, sig))
    except ProblemFileError as e:
        got = str(e)
    assert got == want


@pytest.mark.parametrize("stem", ["kdia", "goedel_refutation",
                                  "two_individuals"])
def test_builder_scripts_render_as_shipped(stem):
    script = {
        "kdia": kdia_script,
        "goedel_refutation": lambda: goedel_refutation_script(
            load_problem("problems/goedel.problem").premises),
        "two_individuals": two_individuals_script,
    }[stem]()
    layer_name = "AOT" if stem == "two_individuals" else "K"
    with open(f"proofs/{stem}.proof") as fh:
        assert render_proof(layer_name, script) == fh.read()


def test_a_step_of_no_rule_cannot_be_rendered():
    with pytest.raises(ValueError) as e:
        render_proof("K", ProofScript(("junk",)))
    assert str(e.value) == "cannot render 'junk'"


KDIA_SIG = parse_problem("logic K\nconst p : prop\nconst q : prop\n"
                         "const r : prop\n").sig
HYP_SIGS = (
    parse_problem("sig aot\nconst p : prop\nconst k : ind\n"
                  "const S : rel 1\n").sig,
    parse_problem("const p : prop\nconst k : ind\nconst S : rel 1\n").sig,
)


def _hyp_script(rng, sig):
    """hyp lines of random formulas, each twice, and of two random
    subformulas of each, in random order."""
    aot = sig is HYP_SIGS[0]
    lines = ["layer K"]
    for _ in range(4):
        f = random_formula(rng, sig, rng.randint(1, 4), allow_encode=aot,
                           terms=aot, first_order=not aot and rng.random() < .5)
        parts = [g for g in subnodes(f) if isinstance(g, Formula)]
        for g in (f, rng.choice(parts), rng.choice(parts), f):
            lines.append(f"hyp {print_formula(g)}")
    rng.shuffle(lines[1:])
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**30))
def test_shared_parse_matches_each_text_alone(seed):
    rng = random.Random(seed)
    builder = ScriptBuilder(make_layer("K"))
    derive_kdia(builder, random_formula(rng, KDIA_SIG, rng.randint(1, 3),
                                        quantifiers=False),
                random_formula(rng, KDIA_SIG, rng.randint(1, 3),
                               quantifiers=False))
    _assert_each_step_parses_alone(render_proof("K", builder.script()),
                                   KDIA_SIG)
    for sig in HYP_SIGS:
        _assert_each_step_parses_alone(_hyp_script(rng, sig), sig)


def test_goedel_parse_skips_repeated_groups():
    """Most tokens of the refutation sit in a bracketed group whose text an
    earlier line has; the parser consumes them once."""
    sig = load_problem("problems/goedel.problem").sig
    with open("proofs/goedel_refutation.proof") as fh:
        text = fh.read()
    consumed = {}
    next_token = _Parser.next

    def counting(self):
        consumed[parse] = consumed.get(parse, 0) + 1
        return next_token(self)

    with patch.object(_Parser, "next", counting):
        for parse in (parse_proof, _parsed_alone):
            parse(text, sig)
    assert consumed[_parsed_alone] > 3000
    assert consumed[parse_proof] <= 1100


# A group 20 levels high (21 for the lambda) on line 2, then under k prefix
# operators on line 3: it crosses MAX_DEPTH from k = 45 on (k = 44)
DEEP_GROUPS = {
    "parens": "(" * 20 + "p" + ")" * 20,
    "and-chain": "(" + " & ".join(["p"] * 20) + ")",
    "imp-chain": "(" + " -> ".join(["p"] * 20) + ")",
    "quantifier": "all x (" * 20 + "p" + ")" * 20,
    "lambda": "[\\x " + "~" * 20 + "p] c",
    "argument": "P " + "(neg " * 20 + "Y" + ")" * 20,
}


@pytest.mark.parametrize("group", DEEP_GROUPS.values(), ids=DEEP_GROUPS)
def test_a_kept_group_pushed_past_max_depth_fails_as_alone(group):
    sig = parse_problem("const p : prop\nconst c : ind\nconst P : so\n").sig
    outcomes = []
    for k in range(40, 50):
        text = f"layer K\nhyp {group}\nhyp {'~' * k}{group}\n"
        outcomes.append(_outcome(parse_proof, text, sig))
        assert outcomes[-1] == _outcome(_parsed_alone, text, sig), k
    assert not isinstance(outcomes[0], str)
    assert outcomes[-1].startswith("line 3: formula nested deeper than 64")


def test_a_kept_group_past_max_depth_fails_where_alone():
    sig = parse_problem("const p : prop\n").sig
    group = DEEP_GROUPS["parens"]
    with pytest.raises(ProblemFileError) as e:
        parse_proof(f"layer K\nhyp {group}\nhyp {'~' * 45}{group}\n", sig)
    assert str(e.value) == ("line 3: formula nested deeper than 64 levels "
                            "(at position 65)")


@pytest.mark.parametrize("first", ["bound", "constant"])
def test_one_group_text_under_different_bindings(first):
    sig = parse_problem("const F : rel 1\n").sig
    bound, constant = "hyp all F:rel ((F x) -> (F x))", "hyp (F x) -> (F x)"
    lines = [bound, constant] if first == "bound" else [constant, bound]
    text = "layer K\n" + "\n".join(lines + lines) + "\n"
    _assert_each_step_parses_alone(text, sig)
    steps = parse_proof(text, sig)[1].steps
    x = Var("x", INDIVIDUAL)
    by_line = dict(zip(lines, steps))
    assert by_line[bound].args[0].body.left == Exemplify(Var("F", REL1), (x,))
    assert by_line[constant].args[0].left == Exemplify(Const("F", REL1), (x,))


@pytest.mark.parametrize("lines,message", [
    (["hyp p", "hyp ~(P q)", "hyp (P q) -> p"],
     "line 3: second-order atom argument is not a unary relation"),
    (["hyp p", "hyp (P q) -> (P q)"],
     "line 3: second-order atom argument is not a unary relation"),
    (["hyp ~(p -> q)", "hyp (p -> q) -> ~(P q) & (p -> q)"],
     "line 3: second-order atom argument is not a unary relation"),
    (["hyp ~(P (neg q))", "hyp ~(P (neg q))"],
     "line 2: macro neg: argument sort mismatch"),
])
def test_a_group_with_a_sort_error_fails_on_its_first_line(lines, message):
    sig = parse_problem("const p : prop\nconst q : prop\nconst P : so\n").sig
    text = "layer K\n" + "\n".join(lines) + "\n"
    assert _outcome(parse_proof, text, sig) == message
    assert _outcome(_parsed_alone, text, sig) == message


# ---------------------------------------------------------------------------
# Splitting an ax line's substitution

def _split_reference(text):
    """The substitution items, split one character at a time."""
    depth = 0
    item = ""
    items = []
    for ch in text:
        if ch == "," and depth == 0:
            items.append(item)
            item = ""
            continue
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        item += ch
    if item.strip():
        items.append(item)
    return items


# `(text, {name: (kind, value)})`: a `)` or `]` too many keeps every later
# comma inside its item, a `(` or `[` too few keeps them all
@pytest.mark.parametrize("text,items", [
    ("p: p), q: q", {"p": ("formula", "p), q: q")}),
    ("p: (p, q: q", {"p": ("formula", "(p, q: q")}),
    ("p: p], q: (q, r)", {"p": ("formula", "p], q: (q"),
                          "r)": ("formula", "")}),
    (r"alpha: x, phi: [\x p] , tau: (neg Y)",
     {"alpha": ("term", "x"), "phi": ("formula", r"[\x p]"),
      "tau": ("term", "(neg Y)")}),
    ("p: ((p)), q: q", {"p": ("formula", "((p))"), "q": ("formula", "q")}),
    (", p: p", {"": ("formula", ""), "p": ("formula", "p")}),
    ("p: p,, q: q", {"p": ("formula", "p"), "": ("formula", ""),
                     "q": ("formula", "q")}),
    ("p: p, ", {"p": ("formula", "p")}),
])
def test_substitution_items(text, items):
    assert _parse_subst(text, lambda kind, value: (kind, value)) == items


@pytest.mark.parametrize("subst,message", [
    ("{p: p), q: q}", "line 2: trailing input ')' (at position 1)"),
    ("{p: (p, q: q}", "line 2: expected ')', found ',' (at position 2)"),
])
def test_unbalanced_substitution(subst, message):
    sig = parse_problem("const p : prop\nconst q : prop\n").sig
    with pytest.raises(ProblemFileError) as e:
        parse_proof(f"layer K\nax pl1 {subst}\n", sig)
    assert str(e.value) == message


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="()[],: pq", max_size=24))
def test_substitution_split_matches_a_character_walk(text):
    items = [item.partition(":") for item in _split_reference(text)]
    names = [name.strip() for name, _, _ in items]
    if len(set(names)) < len(names):
        with pytest.raises(ValueError, match="is given twice"):
            _parse_subst(text, lambda kind, value: value)
    else:
        assert _parse_subst(text, lambda kind, value: value) == {
            name: value.strip() for name, (_, _, value) in zip(names, items)}
