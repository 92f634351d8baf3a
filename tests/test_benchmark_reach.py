"""The benchmark in perfbench/ reaches finmodal by name: the tracer wraps
each function in `layertrace.TARGETS` by `getattr`, and the workloads import
theirs. A finmodal function deleted while the benchmark still names it would
only show when the benchmark runs; this test shows it in the suite. It reads
perfbench/ and runs none of its workloads."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _layertrace_targets():
    spec = importlib.util.spec_from_file_location(
        "layertrace", PERFBENCH / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(f"finmodal.{home}", name) for home, name, *_ in module.TARGETS]


def _workload_imports():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "finmodal"
            for alias in node.names]


def test_benchmark_names_exist_in_finmodal():
    targets, imports = _layertrace_targets(), _workload_imports()
    assert targets and imports
    wanted = targets + imports
    missing = []
    for module_name, name in wanted:
        if hasattr(importlib.import_module(module_name), name):
            continue
        try:   # `from finmodal import kripke` names a submodule
            importlib.import_module(f"{module_name}.{name}")
        except ImportError:
            missing.append(f"{module_name}.{name}")
    assert not missing


def test_run_search_returns_model_and_examined_count():
    # the tracer's `_examined` hook adds result[1] of each _run_search call
    # to modelfind.examined
    from finmodal.formulas import PROPOSITION
    from finmodal.modelfind import Bounds, _run_search
    from finmodal.parser import parse_formula
    from finmodal.signature import LogicTag, Mode, Signature
    sig = Signature(Mode.CLASSICAL, LogicTag.K, {"p": PROPOSITION})
    for premise, found in (("p", True), ("p & ~p", False)):
        result = _run_search([parse_formula(premise, sig)], sig, Bounds(1, 1))
        assert isinstance(result, tuple) and len(result) == 2
        model, examined = result
        assert (model is not None) == found
        assert type(examined) is int
