"""Layer tracing by wrapping finmodal's public functions.

A function is wrapped under the names other modules import it by (say
`modelfind.evaluate` and `ontoarg.evaluate`, not `kripke.evaluate`), so
recursion inside its own module is not wrapped. A few helpers that are
called once per use and never recurse are wrapped in their own module.

Three kinds of wrapper:

* span: records (id, parent, name, start, end, request) in memory and
  times the call; every span of one job carries the job's request number;
* timed: times the call and counts it, without a span record (hot calls);
* count: only counts the call (the hottest calls).

Self time is a call's duration minus the time of the timed calls and spans
inside it; the time of count-only calls stays with their caller.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (defining module, function, kind, layer name, where to wrap)
TARGETS = (
    ("ontoarg", "run_variant_suite", "span", "ontoarg.suite", "importers"),
    ("modelfind", "decide_sat", "span", "modelfind.search", "importers"),
    ("modelfind", "find_countermodel", "span", "modelfind.search", "importers"),
    ("modelfind", "frame_requirements", "span", "modelfind.search", "importers"),
    ("modelfind", "_run_search", "span", "modelfind.search", "importers"),
    ("modelfind", "_run_search", "count", "modelfind.run_search", "module"),
    ("kripke", "evaluate", "timed", "kripke.evaluate", "importers"),
    ("abstraction", "validate_layer", "span", "abstraction.validate_layer", "importers"),
    ("abstraction", "check_proof", "span", "abstraction.check_proof", "importers"),
    ("formulas", "alpha_equivalent", "timed", "formulas.alpha_equivalent", "importers"),
    ("problemfile", "parse_problem", "span", "problemfile.parse", "importers"),
    ("problemfile", "parse_proof", "span", "problemfile.parse", "importers"),
    ("parser", "parse_formula", "count", "parser.parse_formula", "importers"),
    ("macros", "expand_derived", "timed", "macros.expand_derived", "importers"),
    ("formulas", "beta_normalize", "timed", "formulas.beta_normalize", "importers"),
    ("formulas", "free_vars", "count", "formulas.free_vars", "importers"),
    ("formulas", "free_names", "count", "formulas.free_vars", "importers"),
    ("aot", "denote", "span", "aot.denote", "importers"),
    ("aot", "exists_term", "span", "aot.exists_term", "importers"),
    ("aot", "eval_aot", "span", "aot.eval_aot", "importers"),
    ("aot", "minimal_model_report", "span", "aot.census", "importers"),
    ("aot", "world_theory_report", "span", "aot.world_theory", "importers"),
    ("ontoarg", "ultrafilter_report", "span", "ontoarg.ultrafilter", "module"),
    ("ontoarg", "find_vagueness_witness", "span", "ontoarg.vagueness", "module"),
    ("proofs", "goedel_refutation_script", "span", "proofs.refutation_script", "importers"),
)


def _examined(tracer, result, args):
    tracer.counters["modelfind.examined"] += result[1]


def _steps(tracer, result, args):
    steps = len(args[0].steps)
    tracer.counters["abstraction.steps"] += (
        steps if getattr(result, "step", None) is None else result.step + 1)


# Counters read off a wrapped call's result.
RESULT_HOOKS = {("modelfind", "_run_search"): _examined,
                ("abstraction", "check_proof"): _steps}


class Tracer:
    def __init__(self, importers):
        """importers: the benchmark's own modules that import finmodal names."""
        self.importers = list(importers)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans: list = []
        self.request = -1   # number of the job being run
        self._stack = [[0.0, None]]   # frames: [child time, span id]
        self._patches: list = []
        self._t0 = time.perf_counter()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, kind, name, hook):
        tracer = self
        calls, total, self_time = self.calls, self.total, self.self_time
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        if kind == "count":
            def counted(*args, **kw):
                calls[name] += 1
                if hook is None:
                    return fn(*args, **kw)
                result = fn(*args, **kw)
                hook(tracer, result, args)
                return result
            return counted

        record = kind == "span"

        def timed(*args, **kw):
            parent = stack[-1]
            sid = len(spans) if record else parent[1]
            if record:
                spans.append(None)
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kw)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[0] += dur
                calls[name] += 1
                total[name] += dur
                self_time[name] += dur - frame[0]
                if record:
                    spans[sid] = (sid, parent[1], name, start - tracer._t0,
                                  end - tracer._t0, tracer.request)
            if hook is not None:
                hook(tracer, result, args)
            return result
        return timed

    # -- installation -----------------------------------------------------

    def install(self):
        mods = {n: m for n, m in sys.modules.items()
                if n.startswith("finmodal.")}
        mods.update({m.__name__: m for m in self.importers})
        for home, fname, kind, name, where in TARGETS:
            home_mod = sys.modules[f"finmodal.{home}"]
            original = getattr(home_mod, fname)
            wrapper = self._wrap(original, kind, name,
                                 RESULT_HOOKS.get((home, fname)))
            if where == "module":
                targets = [home_mod]
            else:
                targets = [m for n, m in mods.items()
                           if m is not home_mod
                           and getattr(m, fname, None) is original]
            for m in targets:
                self._patches.append((m, fname, getattr(m, fname)))
                setattr(m, fname, wrapper)

    def uninstall(self):
        while self._patches:
            m, fname, before = self._patches.pop()
            setattr(m, fname, before)

    # -- jobs ---------------------------------------------------------------

    def run_job(self, name: str, fn):
        """Run one job with the wrappers installed, as a root span named
        after the job. Returns (result, seconds); installing the wrappers
        is not timed."""
        self.request += 1
        frame = [0.0, len(self.spans)]
        self.spans.append(None)
        self._stack.append(frame)
        self.install()
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            self.uninstall()
            self._stack.pop()
            self.spans[frame[1]] = (frame[1], None, name, start - self._t0,
                                    end - self._t0, self.request)
        return result, end - start

    def write_spans(self, path) -> None:
        keys = ("id", "parent", "name", "start", "end", "request")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_self_times(self) -> dict:
        """Self time summed per module (the part of each name before the dot)."""
        out = defaultdict(float)
        for name, s in self.self_time.items():
            out[name.split(".")[0]] += s
        return dict(out)
