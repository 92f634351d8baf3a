import random

import pytest

from finmodal.abstraction import (
    Accepted, AxStep, GenStep, HypStep, check_proof, make_layer,
)
from finmodal.formulas import subnodes
from finmodal.kripke import frame_check
from finmodal.modelfind import enumerate_models
from finmodal.problemfile import (
    ProblemFileError, load_problem, load_proof, parse_problem, parse_proof,
    parse_aot_config, render_proof,
)
from finmodal.proofs import (
    ScriptBuilder, derive_kdia, kdia_script, two_individuals_script,
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


# ---------------------------------------------------------------------------
# One parse per distinct text within a parse_proof call

SHIPPED_PROOFS = [("s5", "kdia"), ("goedel", "goedel_refutation"),
                  ("two_individuals", "two_individuals")]


def _assert_each_step_parses_alone(text, sig):
    layer_name, script = parse_proof(text, sig)
    lines = [raw for raw in text.splitlines()
             if raw.strip() and raw.split()[0] != "layer"]
    assert len(lines) == len(script.steps)
    for raw, step in zip(lines, script.steps):
        (alone,) = parse_proof(f"layer {layer_name}\n{raw}\n", sig)[1].steps
        assert alone == step, raw


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


def _step_nodes(step):
    if isinstance(step, AxStep):
        roots = step.subst.values()
    elif isinstance(step, HypStep):
        roots = (step.formula,)
    elif isinstance(step, GenStep):
        roots = (step.var,)
    else:
        roots = ()
    return [n for root in roots for n in subnodes(root)]


def test_equal_texts_share_one_node_within_a_call_only():
    sig = parse_problem("const p : prop\nconst q : prop\n").sig
    text = ("layer K\nhyp p -> q\nhyp p -> q\n"
            "ax pl1 {p: p -> q, q: q}\nhyp q\ngen 1 x\ngen 2 x\n")
    first = parse_proof(text, sig)[1].steps
    hyp1, hyp2, ax, hyp3, gen1, gen2 = first
    assert hyp1.formula is hyp2.formula is ax.subst["p"]
    assert ax.subst["q"] is hyp3.formula
    assert gen1.var is gen2.var
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


# the command-line tests cover an unclosed or repeating substitution, a
# second layer line and `mp 1`
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
