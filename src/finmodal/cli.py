"""Batch front door: check, prove, sat, corpus, and aot subcommands.

Exit codes: 0 verdict as conjectured, 1 verdict contradicts the declared
expectation, 2 usage or parse error, 3 search budget exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys

from .abstraction import Accepted, check_proof, make_layer
from .aot import (
    AotBudgetError, AotEvalError, build_aczel, minimal_model,
    minimal_model_report, world_theory_report,
)
from .formulas import alpha_equivalent
from .kripke import EvalError
from .macros import primitive_form
from .modelfind import (
    SearchBoundsError, _expansion_error, decide_sat, find_countermodel,
)
from .ontoarg import VARIANT_NAMES, run_variant_suite
from .parser import ParseError
from .printer import print_formula
from .problemfile import (
    ProblemFileError, load_aot_config, load_problem, load_proof,
)
from .reportfmt import render_model
from .signature import Mode

USAGE_ERROR = 2
BUDGET_ERROR = 3


class _Report:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.pairs: list = []

    def add(self, key: str, value: str):
        self.pairs.append((key, value))

    def emit(self):
        if self.fmt == "tsv":
            for k, v in self.pairs:
                print(f"{k}\t{v}")
        else:
            for k, v in self.pairs:
                if "\n" in v:
                    print(f"{k}:")
                    for line in v.splitlines():
                        print(f"  {line}")
                else:
                    print(f"{k}: {v}")


def _expect_code(verdict: str, expectation) -> int:
    if expectation is None:
        return 0
    return 0 if verdict == expectation else 1


def cmd_check(args) -> int:
    rep = _Report(args.format)
    problem = load_problem(args.problem)
    rep.add("mode", problem.sig.mode.value)
    rep.add("logic", problem.sig.logic.value)
    rep.add("constants", ", ".join(
        f"{n}:{problem.sig.consts[n]}" for n in sorted(problem.sig.consts)))
    rep.add("premises", str(len(problem.premises)))
    rep.add("conjectures", str(len(problem.conjectures)))
    rep.add("bounds", f"worlds<={problem.bounds.max_worlds} "
                      f"individuals<={problem.bounds.max_individuals}")
    rep.emit()
    return 0


def cmd_prove(args) -> int:
    rep = _Report(args.format)
    problem = load_problem(args.problem)
    layer_name, script = load_proof(args.script, problem.sig)
    layer = make_layer(layer_name)
    verdict = check_proof(script, layer, tuple(problem.premises))
    if not isinstance(verdict, Accepted):
        rep.add("verdict", f"rejected at step {verdict.step + 1}: {verdict.reason}")
        rep.emit()
        return 1
    rep.add("verdict", "accepted")
    rep.add("conclusion", print_formula(verdict.conclusion))
    code = 0
    if problem.conjectures:
        # within the search's expansion budget, as the search checks it
        want = primitive_form(problem.conjectures[0], _expansion_error)
        got = primitive_form(verdict.conclusion, _expansion_error)
        matches = alpha_equivalent(want, got)
        rep.add("matches conjecture", "yes" if matches else "no")
        if not matches:
            code = 1
        if problem.sig.mode is Mode.CLASSICAL:
            cm = find_countermodel(problem.premises, problem.conjectures[0],
                                   problem.sig, problem.bounds,
                                   relvar_domain=problem.relvar_domain)
            rep.add("semantic countermodel", "none" if cm is None else "FOUND")
            if cm is not None:
                code = 1
    rep.emit()
    return code


def cmd_sat(args) -> int:
    rep = _Report(args.format)
    problem = load_problem(args.problem)
    expectation = problem.expectation
    code = 0
    if expectation in (None, "sat", "unsat"):
        result = decide_sat(problem.premises, problem.sig, problem.bounds,
                            relvar_domain=problem.relvar_domain)
        verdict = "sat" if result.is_sat else "unsat"
        rep.add("verdict", verdict)
        rep.add("interpretations examined", str(result.examined))
        if result.is_sat:
            rep.add("model", render_model(result.model))
        code = _expect_code(verdict, expectation)
    else:
        if not problem.conjectures:
            print("error: expectation needs a conjecture", file=sys.stderr)
            return USAGE_ERROR
        cm = find_countermodel(problem.premises, problem.conjectures[0],
                               problem.sig, problem.bounds,
                               relvar_domain=problem.relvar_domain)
        verdict = "valid" if cm is None else "countermodel"
        rep.add("verdict", verdict)
        if cm is not None:
            rep.add("countermodel", render_model(cm))
        code = _expect_code(verdict, expectation)
    rep.emit()
    return code


def cmd_corpus(args) -> int:
    names = VARIANT_NAMES if args.variant == "all" else (args.variant,)
    os.makedirs(args.outdir, exist_ok=True)
    for name in names:
        report = run_variant_suite(name)
        path = os.path.join(args.outdir, f"{name}.report.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.to_text())
        print(f"wrote {path}")
    return 0


def cmd_aot(args) -> int:
    if args.config == "minimal":
        model = minimal_model()
    else:
        model = build_aczel(load_aot_config(args.config))
    wrote = False
    if args.census:
        print(minimal_model_report(model).to_text(), end="")
        wrote = True
    if args.worlds:
        print(world_theory_report(model).to_text(), end="")
        wrote = True
    if not wrote:
        print(f"urelements: {model.n_urelements} ({model.n_ordinary} ordinary, "
              f"{model.n_special} special)")
        print(f"worlds: {model.n_worlds}")
        print(f"relations: {len(model.relspace1)}")
        print(f"propositions: {len(model.propspace)}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line, without the usage text."""

    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="finmodal",
        description="finite-semantics workbench for second-order "
                    "quantified modal logic")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "tsv"), default="text")

    p = sub.add_parser("check", help="load and type-check a problem file")
    p.add_argument("problem")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("prove", help="check a proof script against a problem")
    p.add_argument("problem")
    p.add_argument("script")
    common(p)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("sat", help="exhaustive model / countermodel search")
    p.add_argument("problem")
    common(p)
    p.set_defaults(func=cmd_sat)

    p = sub.add_parser("corpus", help="run the argument-variant suites")
    p.add_argument("variant", choices=VARIANT_NAMES + ("all",))
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("aot", help="reports over an object-theory model")
    p.add_argument("config", help="config file path or 'minimal'")
    p.add_argument("--census", action="store_true")
    p.add_argument("--worlds", action="store_true")
    p.set_defaults(func=cmd_aot)
    return ap


def run(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ProblemFileError, ParseError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except (AotBudgetError, SearchBoundsError) as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return BUDGET_ERROR
    except (AotEvalError, EvalError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))
