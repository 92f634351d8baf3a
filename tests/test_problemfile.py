import pytest

from finmodal.abstraction import Accepted, check_proof, make_layer
from finmodal.kripke import frame_check
from finmodal.modelfind import enumerate_models
from finmodal.problemfile import (
    ProblemFileError, load_problem, load_proof, parse_problem, parse_proof,
    parse_aot_config, render_proof,
)
from finmodal.proofs import kdia_script, two_individuals_script
from finmodal.signature import LogicTag, Mode


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
