import io
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import finmodal
from finmodal.cli import run
from finmodal.parser import MAX_DEPTH


def run_cli(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_prove_kdia(capsys):
    code, out = run_cli(["prove", "problems/s5.problem", "proofs/kdia.proof"],
                        capsys)
    assert code == 0
    assert "accepted" in out
    assert "semantic countermodel: none" in out


def test_sat_unemended_premises(capsys):
    code, out = run_cli(["sat", "problems/goedel.problem"], capsys)
    assert code == 0  # the file declares the unsat expectation
    assert "verdict: unsat" in out


def test_sat_collapse_countermodel(capsys):
    code, out = run_cli(["sat", "problems/anderson.problem"], capsys)
    assert code == 0
    assert "verdict: countermodel" in out


def test_scott_collapse_valid(capsys):
    code, out = run_cli(["sat", "problems/scott.problem"], capsys)
    assert code == 0
    assert "verdict: valid" in out


def test_malformed_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.problem"
    bad.write_text("premise p &&&\n")
    code, _ = run_cli(["check", "--format=tsv", str(bad)], capsys)
    assert code == 2


def test_missing_file(capsys):
    code, _ = run_cli(["sat", "no-such-file.problem"], capsys)
    assert code == 2


def test_tsv_format(capsys):
    code, out = run_cli(["check", "--format=tsv", "problems/s5.problem"],
                        capsys)
    assert code == 0
    assert "premises\t0" in out
    assert "conjectures\t1" in out


def test_aot_census_flags(capsys):
    code, out = run_cli(["aot", "problems/aotmin.model", "--census",
                         "--worlds"], capsys)
    assert code == 0
    assert out.encode() == Path("golden/aot/aotmin.census.txt").read_bytes()


def test_aot_minimal_shortcut(capsys):
    code, out = run_cli(["aot", "minimal"], capsys)
    assert code == 0
    assert "urelements: 2" in out


def test_reports_are_stable_across_runs(capsys):
    _, first = run_cli(["sat", "problems/fitting.problem"], capsys)
    _, second = run_cli(["sat", "problems/fitting.problem"], capsys)
    assert first == second


@pytest.mark.parametrize("name", ["goedel", "scott", "anderson", "fitting"])
def test_corpus_single_variant(name, tmp_path, capsys):
    code, out = run_cli(["corpus", name, "--outdir", str(tmp_path)],
                        capsys)
    assert code == 0
    report = (tmp_path / f"{name}.report.txt").read_text()
    golden = open(f"golden/corpus/{name}.report.txt").read()
    assert report == golden


def test_budget_exceeded_exit_code(tmp_path, capsys):
    # a second-order constant over bounds whose relation space passes the
    # limit; the second problem is satisfiable, but only past it; the third
    # has 2^16386 interpretations at two individuals, a count too long to
    # print
    five = ("exists a (exists b (exists c (exists d (exists e (~a = b & "
            "~a = c & ~a = d & ~a = e & ~b = c & ~b = d & ~b = e & ~c = d & "
            "~c = e & ~d = e)))))")
    for text in ("const P : so\nbounds worlds=3 individuals=2\n"
                 "premise all Y (P Y -> P Y)\n",
                 "const P : so\nbounds worlds=1 individuals=5\n"
                 f"premise P [\\x x = x]\npremise {five}\n",
                 "const R : rel 14\nbounds worlds=1 individuals=2\n"):
        big = tmp_path / "big.problem"
        big.write_text(text)
        code = run(["sat", str(big)])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err) == 1 and err[0].startswith("budget exceeded: ")
    # 2^(2^100000) interpretations: the budget check must not build the count
    big.write_text("const R : rel 100000\nbounds worlds=1 individuals=2\n")
    proc = run_module(["sat", str(big)], timeout=60)
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("budget exceeded: ")


def run_module(argv, timeout=60):
    """`python -m finmodal argv` in a fresh interpreter. Its address space
    is capped at 2 GiB, so a runaway computation fails with a MemoryError
    rather than taking the machine's memory."""
    src = str(Path(finmodal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "finmodal", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=timeout, preexec_fn=_cap_address_space)


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("command", ["sat", "check"])
def test_bound_below_one_is_usage_error(tmp_path, command):
    # a value below 1, and keys that name no bound
    for bounds in ("worlds=0 individuals=1", "nesting=2", "relspace=64"):
        bad = tmp_path / "w0.problem"
        bad.write_text("sig classical\nlogic K\nconst p : prop\n"
                       f"bounds {bounds}\nconjecture p -> p\n")
        proc = run_module([command, str(bad)])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: line 4:")


def test_empty_sort_is_usage_error(tmp_path):
    # an empty sort, a negative arity, and words after the sort
    bad = tmp_path / "bad.problem"
    for decl, command in [("const p :", "check"), ("const p : rel -1", "check"),
                          ("const p : rel -1", "sat"),
                          ("const p : prop extra", "check"),
                          ("const R : rel 0 1", "sat")]:
        name = decl.split()[1]
        bad.write_text(f"sig classical\nlogic K\n{decl}\n"
                       f"conjecture {name} -> {name}\n")
        proc = run_module([command, str(bad)])
        assert proc.returncode == 2, decl
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            "error: line 3: expected 'const <name> : <sort>'"], decl


@pytest.mark.parametrize("text", [
    "worlds 1\nordinary 1\nspecial 2\nsigma membership 99\n",
    "ordinary 1\nconst k ordinary 5\n",
    "worlds 2\nactual 7\n",
    "const k abstract 99\n",
    "const p prop 0x99\n",
    "concrete u0 w5\n",
], ids=["sigma", "ordinary", "actual", "abstract", "prop", "concrete"])
def test_out_of_range_model_value_is_usage_error(tmp_path, text):
    path = tmp_path / "bad.model"
    path.write_text(text)
    proc = run_module(["aot", str(path), "--census"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("argv", [["aot", "minimal"], ["corpus", "scott"]])
def test_format_only_where_a_report_prints(argv, tmp_path, monkeypatch,
                                           capsys):
    monkeypatch.chdir(tmp_path)
    code = run([*argv, "--format", "tsv"])
    capsys.readouterr()
    assert code == 2
    assert not list(tmp_path.iterdir())


def test_first_order_bounds_over_budget_exit_before_search(tmp_path, capsys):
    # kdia at five worlds: 3.4e10 interpretations, 2^25 frames at five
    # worlds alone
    text = Path("problems/kdia.problem").read_text()
    big = tmp_path / "kdia5.problem"
    big.write_text(text.replace("bounds worlds=3", "bounds worlds=5"))
    start = time.perf_counter()
    code = run(["sat", str(big)])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "more than the search budget" in capsys.readouterr().err
    proc = run_module(["sat", str(big)], timeout=20)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("budget exceeded: ")


def test_kdia_at_four_worlds_exits_before_listing_a_frame(tmp_path, capsys,
                                                         monkeypatch):
    # 2^16 frames at four worlds, 1.7e7 interpretations: the budget check
    # raises before any frame class is listed
    def unlisted(logic, n_worlds):
        raise AssertionError(f"frames listed at {n_worlds} worlds")
    monkeypatch.setattr("finmodal.modelfind.frames_for", unlisted)
    text = Path("problems/kdia.problem").read_text()
    big = tmp_path / "kdia4.problem"
    big.write_text(text.replace("bounds worlds=3", "bounds worlds=4"))
    assert run(["sat", str(big)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["budget exceeded: more than the search budget of "
                   "1000000 interpretations within worlds<=4 individuals<=1"]


@pytest.mark.parametrize("operands, code, out", [
    (10, 0, "verdict: valid"),  # 5 623 nodes expanded
    (16, 3, ""),  # 360 439 nodes: each <-> doubles both sides
])
def test_iff_chain_expansion_budget(tmp_path, capsys, operands, code, out):
    chain = " <-> ".join(["p"] * operands)
    problem = tmp_path / "chain.problem"
    problem.write_text("sig classical\nlogic K\nconst p : prop\n"
                       "bounds worlds=1 individuals=1\n"
                       f"conjecture {chain}\nexpect valid\n")
    start = time.perf_counter()
    assert run(["sat", str(problem)]) == code
    assert time.perf_counter() - start < 1.0
    got = capsys.readouterr()
    assert got.out.strip() == out
    if code == 3:
        lines = got.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("budget exceeded: ")


def _one_line_usage_error(proc):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    return lines[0]


def test_short_model_line_is_usage_error(tmp_path):
    bad = tmp_path / "short.model"
    bad.write_text("worlds 2\nsigma membership\n")
    line = _one_line_usage_error(run_module(["aot", str(bad), "--census"]))
    assert line == "error: line 2: expected 'sigma membership <value>'"


def test_directory_is_usage_error():
    line = _one_line_usage_error(run_module(["check", "problems"]))
    assert line.startswith("error: cannot read problems: ")


@pytest.mark.parametrize("argv", [
    ["sat", "problems/kdia.problem"],
    ["prove", "problems/s5.problem", "proofs/kdia.proof"],
    ["corpus", "scott"],
    ["check", "problems/s5.problem"],
    ["aot", "minimal"]], ids=["sat", "prove", "corpus", "check", "aot"])
def test_workers_is_unrecognized(argv):
    # the search runs in one thread, so no subcommand takes --workers
    line = _one_line_usage_error(run_module([*argv, "--workers", "2"]))
    assert "unrecognized arguments" in line


@pytest.mark.parametrize("command, lines, error", [
    ("check", "conjecture p -> F x",
     "line 4: conjecture has free variables: F, x"),
    ("sat", "conjecture p -> F x",
     "line 4: conjecture has free variables: F, x"),
    ("sat", "expect valid\nconjecture p -> F x",
     "line 5: conjecture has free variables: F, x"),
    ("sat", "premise all x (F x) | F y",
     "line 4: premise has free variables: F, y"),
], ids=["check", "sat", "sat-expect-valid", "premise"])
def test_free_variables_are_usage_error(tmp_path, command, lines, error):
    bad = tmp_path / "free.problem"
    bad.write_text(f"sig classical\nlogic K\nconst p : prop\n{lines}\n")
    line = _one_line_usage_error(run_module([command, str(bad)]))
    assert line == f"error: {error}"


def _nested(shape, n):
    """A formula n levels deep, of one shape."""
    if shape in ("&", "->"):
        return f" {shape} ".join(["p"] * (n + 1))
    if shape == "()":
        return "(" * n + "p" + ")" * n
    return shape * n + "p"


@pytest.mark.parametrize("shape", ["~", "[]", "<>", "&", "->", "()"])
def test_nesting_limit(tmp_path, shape):
    deep = tmp_path / "deep.problem"

    def sat(n):
        deep.write_text("sig classical\nlogic K\nconst p : prop\n"
                        "bounds worlds=2 individuals=1\n"
                        f"premise {_nested(shape, n)}\n")
        return run_module(["sat", str(deep)])

    proc = sat(MAX_DEPTH)
    assert proc.returncode == 0
    assert proc.stdout.startswith("verdict: sat")
    for n in (MAX_DEPTH + 1, 5000):
        line = _one_line_usage_error(sat(n))
        assert line.startswith("error: line 5: formula nested deeper than "
                               f"{MAX_DEPTH} levels")


def test_repeated_const_is_usage_error(tmp_path):
    bad = tmp_path / "twice.problem"
    bad.write_text("sig classical\nlogic K\nconst p : prop\n"
                   "const p : rel 1\nconjecture p -> p\n")
    line = _one_line_usage_error(run_module(["check", str(bad)]))
    assert line == "error: line 4: constant 'p' is declared twice"


def test_unknown_layer_is_usage_error(tmp_path):
    bad = tmp_path / "q.proof"
    bad.write_text("layer Q\npremise 1\n")
    proc = run_module(["prove", "problems/s5.problem", str(bad)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["error: line 1: unknown layer 'Q'"]


@pytest.mark.parametrize("command,suffix,text", [
    ("prove", ".proof", b"layer K\nhyp \xff\n"),
    ("check", ".problem", b"const p : prop\n\xfe\n"),
    ("aot", ".model", b"ordinary 1\n\xc3\n"),
], ids=["proof", "problem", "model"])
def test_non_utf8_file_is_usage_error(tmp_path, command, suffix, text):
    bad = tmp_path / f"bad{suffix}"
    bad.write_bytes(text)
    argv = ([command, "problems/s5.problem", str(bad)] if command == "prove"
            else [command, str(bad)])
    proc = run_module(argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: line 2: byte 0x")
    assert lines[0].endswith("is not UTF-8")


@pytest.mark.parametrize("line,error", [
    ("ax pl1 {p: p, q: q", "the substitution has no closing '}'"),
    ("ax pl1 {p: p, p: q, q: q}", "metavariable 'p' is given twice"),
    ("layer KB", "'layer' is given twice"),
    ("mp 1", "expected 'mp <i> <j>'"),
], ids=["unclosed", "repeated-metavariable", "second-layer", "mp-arity"])
def test_malformed_proof_line_is_usage_error(tmp_path, line, error):
    bad = tmp_path / "bad.proof"
    bad.write_text(f"layer K\n{line}\nqed 1\n")
    line = _one_line_usage_error(
        run_module(["prove", "problems/s5.problem", str(bad)]))
    assert line == f"error: line 2: {error}"


@pytest.mark.parametrize("bounds", [
    "bounds worlds=2 worlds=3\n",
    "bounds worlds=2 individuals=1\nbounds worlds=3\n",
], ids=["one-line", "two-lines"])
def test_repeated_bound_key_is_usage_error(tmp_path, bounds):
    bad = tmp_path / "twice.problem"
    bad.write_text("sig classical\nlogic K\nconst p : prop\n"
                   f"{bounds}conjecture p -> p\n")
    line = _one_line_usage_error(run_module(["check", str(bad)]))
    no = 3 + bounds.count("\n")
    assert line == f"error: line {no}: bound 'worlds' is given twice"


def test_description_in_a_classical_proof_term_is_usage_error(tmp_path,
                                                               capsys):
    problem = tmp_path / "p.problem"
    problem.write_text("sig classical\nlogic K\nconst P : rel\n")
    proof = tmp_path / "inst.proof"
    proof.write_text("layer K\n"
                     "ax inst {alpha: x, phi: P x, tau: (the y: P y)}\n")
    assert run(["prove", str(problem), str(proof)]) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.splitlines() == [
        "error: line 2: definite descriptions require an AOT signature"]


def test_prove_checks_the_expansion_budget_before_comparing(tmp_path,
                                                            capsys):
    # the conjecture's <-> chain sits under a binder, where comparing its
    # expansion with the conclusion would walk it as a tree
    chain = " <-> ".join(["S x"] * 20)
    problem = tmp_path / "chain.problem"
    problem.write_text("sig classical\nlogic K\nconst S : rel\n"
                       f"const p : prop\nconjecture all x ({chain})\n")
    proof = tmp_path / "trivial.proof"
    proof.write_text("layer K\nhyp p\nqed 1\n")
    start = time.perf_counter()
    assert run(["prove", str(problem), str(proof)]) == 3
    assert time.perf_counter() - start < 1.0
    got = capsys.readouterr()
    assert got.out == ""
    lines = got.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        "budget exceeded: a premise or conjecture expands to ")
    assert lines[0].endswith("nodes, past the budget of 10000")


# Mutants of long lines of the goedel refutation, whose groups earlier
# lines already hold: (line, "drop", which `)` to drop) or (line, "set",
# (offset, character)), and the one stderr line `prove` gives for each
@pytest.mark.parametrize("line_no,how,where,error", [
    (127, "drop", 0, "expected ')', found ',' (at position 81)"),
    (140, "drop", -1, "expected ')', found '' (at position 157)"),
    (121, "set", (60, "$"), "unexpected character '$' (at position 36)"),
    (127, "set", (37, "q"), "exemplification argument is not an individual"),
    (127, "set", (123, "q"),
     "exemplification argument is not an individual"),
    (152, "set", (70, "&"), "expected 'name', found '&' (at position 59)"),
], ids=["drop-first", "drop-last", "lex", "sort-first-value",
        "sort-second-value", "parse"])
def test_goedel_line_mutant_is_usage_error(tmp_path, line_no, how, where,
                                           error):
    lines = Path("proofs/goedel_refutation.proof").read_text().splitlines()
    line = lines[line_no - 1]
    if how == "drop":
        at = [i for i, c in enumerate(line) if c == ")"][where]
        line = line[:at] + line[at + 1:]
    else:
        at, c = where
        line = line[:at] + c + line[at + 1:]
    lines[line_no - 1] = line
    bad = tmp_path / "mutant.proof"
    bad.write_text("\n".join(lines) + "\n")
    out = _one_line_usage_error(
        run_module(["prove", "problems/goedel.problem", str(bad)]))
    assert out == f"error: line {line_no}: {error}"


@pytest.mark.parametrize("step", [
    "ax vac {alpha: [\\x p], phi: q}",
    "ax vac {alpha: p, phi: q}",
    "ax dist {alpha: [\\x p], phi: q, psi: q}",
    "ax dist {alpha: p, phi: q, psi: q}",
], ids=["vac-lambda", "vac-constant", "dist-lambda", "dist-constant"])
def test_quantifier_schema_needs_a_variable(tmp_path, step):
    bad = tmp_path / "bad.proof"
    bad.write_text(f"layer K\n{step}\n")
    proc = run_module(["prove", "problems/kdia.problem", str(bad)])
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == [
        "verdict: rejected at step 1: SchemaError: alpha must be a variable"]


def _files(tmp_path, problem, proof=None):
    """The paths of a problem file and, when given, a proof file."""
    paths = [tmp_path / "t.problem"]
    paths[0].write_text(problem)
    if proof is not None:
        paths.append(tmp_path / "t.proof")
        paths[1].write_text(proof)
    return [str(p) for p in paths]


PROP_K = "sig classical\nlogic K\nconst p : prop\nconst q : prop\n"


@pytest.mark.parametrize("problem, proof, code, out", [
    # generalization on a variable free in the open hypothesis
    ("sig classical\nlogic K\nconst S : rel\n", "layer K\nhyp S x\ngen 1 x\n",
     1, ["verdict: rejected at step 2: "
         "gen-variable free in an open hypothesis"]),
    # a sound derivation of another formula than the conjecture
    (PROP_K + "conjecture p -> p\n", "layer K\nax pl1 {p: p, q: q}\n",
     1, ["verdict: accepted", "conclusion: p -> q -> p",
         "matches conjecture: no", "semantic countermodel: none"]),
    # an S5 axiom proves the conjecture, which fails on K frames
    (PROP_K + "conjecture []p -> p\n", "layer S5\nax ax_T {p: p}\n",
     1, ["verdict: accepted", "conclusion: []p -> p",
         "matches conjecture: yes", "semantic countermodel: FOUND"]),
], ids=["gen", "mismatch", "countermodel"])
def test_prove_exit_one(tmp_path, capsys, problem, proof, code, out):
    assert run(["prove", *_files(tmp_path, problem, proof)]) == code
    captured = capsys.readouterr()
    assert captured.out.splitlines() == out
    assert captured.err == ""


def test_first_order_countermodel_report(tmp_path, capsys):
    # an individual constant, a unary relation and a binary one, each on
    # its own line
    problem = ("sig classical\nlogic K\nconst c : ind\nconst S : rel\n"
               "const T : rel 2\nbounds worlds=1 individuals=1\n"
               "premise T c c\nconjecture S c\nexpect countermodel\n")
    assert run(["sat", *_files(tmp_path, problem)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "verdict: countermodel",
        "countermodel:",
        "  worlds: 1 (actual w0)",
        "  individuals: 1",
        "  R: 0",
        "  relation space: 2 relations",
        "  S: d0:0",
        "  T(0, 0): 1",
        "  c: d0",
    ]


@pytest.mark.parametrize("problem, code, out, err", [
    (PROP_K + "premise [\\ ~~p] = q\nconjecture p <-> q\nexpect valid\n",
     0, ["verdict: valid"], []),
    (PROP_K + "expect valid\n", 2, [],
     ["error: expectation needs a conjecture"]),
    # a relation quantifier in the conjecture needs the relation space,
    # as one in a premise does: past its limit, exit 3 before searching
    ("sig classical\nlogic K\nconst c : ind\nconst S : rel\n"
     "bounds worlds=3 individuals=2\npremise S c\n"
     "conjecture all X (X c -> X c)\nexpect valid\n", 3, [],
     ["budget exceeded: worlds=3 individuals=2 need a relation space past "
      "the limit of 4 bits"]),
], ids=["zero-place-lambda", "no-conjecture", "conjecture-relspace"])
def test_sat_exit_codes(tmp_path, capsys, problem, code, out, err):
    assert run(["sat", *_files(tmp_path, problem)]) == code
    captured = capsys.readouterr()
    assert captured.out.splitlines() == out
    assert captured.err.splitlines() == err
