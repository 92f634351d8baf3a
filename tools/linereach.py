"""Which lines of src/finmodal no input reaches.

    python tools/linereach.py

Reads each module's source, then runs the Tier-1 suite in this process
under sys.settrace, then every subcommand through finmodal.cli.run on the
shipped files: `check` and `sat` on each problem, the three shipped
`prove`s, `corpus all` into a temporary directory, and `aot` with
`--census --worlds` on the model. It then prints, per module, the
executable lines that never ran, and a total. The lines are those of the
sources as read at the start, so editing a module during the run does not
shift its report.

A line is executable when a function's code object lists it (co_lines,
through every nested code object). Module and class bodies are left out:
they run at import, before tracing starts. A function's first line (its
`def`, or its first decorator) counts as reached when the function is
called. Tests that run the command line in a subprocess are not traced,
so a line that only they reach shows as unreached here. Hypothesis draws
new examples on each run, so a line that only some draws reach can come
and go between runs.

It takes no options. Tracing makes the suite about three times slower.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "finmodal"

# the shipped (problem, proof) pairs that `prove` is run on
PROVES = (("s5", "kdia"), ("goedel", "goedel_refutation"),
          ("two_individuals", "two_individuals"))


def executable_lines(source: str, filename: str = "<source>") -> set:
    """The line numbers of source that some function's code lists."""
    lines = set()
    stack = [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        if code.co_flags & inspect.CO_NEWLOCALS:
            lines.update(line for _, _, line in code.co_lines()
                         if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _tracer(reached: dict, src: Path):
    """A global trace function that records, by file, each line run in a
    frame whose code lies under src."""
    prefix = str(src) + os.sep
    local_tracers = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        local = local_tracers.get(filename)
        if local is None:
            lines = reached.setdefault(filename, set())

            def local(frame, event, arg):
                if event == "line":
                    lines.add(frame.f_lineno)
                return local

            local_tracers[filename] = local
        local(frame, "line", arg)
        return local

    return trace


def traced(src: Path, run) -> tuple:
    """(run's result, report) of run() under the tracer. The report maps
    each module under src to (its executable lines, those no traced line
    reached), the lines read from its source before run starts, so an
    edit made during the run does not shift them. The trace function in
    place before, if any, is put back after."""
    executable = {path: executable_lines(path.read_text(encoding="utf-8"),
                                         str(path))
                  for path in sorted(src.glob("*.py"))}
    reached: dict = {}
    previous = sys.gettrace()
    sys.settrace(_tracer(reached, src))
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, {path: (lines, lines - reached.get(str(path), set()))
                    for path, lines in executable.items()}


def _cli_runs(tmp: str) -> list:
    problems = sorted(p.name for p in (ROOT / "problems").glob("*.problem"))
    runs = [[cmd, f"problems/{p}"] for p in problems
            for cmd in ("check", "sat")]
    runs += [["prove", f"problems/{p}.problem", f"proofs/{s}.proof"]
             for p, s in PROVES]
    runs.append(["corpus", "all", "--outdir", tmp])
    runs.append(["aot", "problems/aotmin.model", "--census", "--worlds"])
    return runs


def _ranges(numbers) -> str:
    out, run = [], []
    for n in sorted(numbers):
        if run and n != run[-1] + 1:
            out.append(run)
            run = []
        run.append(n)
    if run:
        out.append(run)
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}"
                     for r in out)


def _run_all() -> int:
    """The Tier-1 suite's status, after it and the command-line runs."""
    import pytest

    status = pytest.main(["-q", "--continue-on-collection-errors",
                          "-p", "no:cacheprovider", "tests"])
    from finmodal.cli import run

    with tempfile.TemporaryDirectory() as tmp:
        for argv in _cli_runs(tmp):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                run(argv)
    return status


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    status, report = traced(SRC, _run_all)

    print("\nlines no traced run reached (tests that run the command line "
          "in a subprocess are not traced):")
    total = unreached_total = 0
    for path, (lines, missed) in report.items():
        total += len(lines)
        unreached_total += len(missed)
        if missed:
            print(f"  {path.name}: {len(missed)} of {len(lines)}: "
                  f"{_ranges(missed)}")
    print(f"total: {unreached_total} of {total} executable lines unreached")
    return 0 if status == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
