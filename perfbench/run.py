"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

One process, one thread, a closed loop with a single client: whole passes
over the workload's job list until --seconds of wall time have gone by.
Garbage is collected between jobs, outside the timed region. With
--trace 0 it prints the end-to-end metrics; with --trace 1 it alternates
untraced and traced passes and prints the per-layer metrics, including the
tracing overhead. The last line of standard output is one JSON object.

A shared 2-vCPU virtual machine was seen to change speed by up to 1.7x
for minutes at a time, for every process alike. So a fixed reference unit
of pure-Python work runs between every two jobs (and around every set-up
sample), and each end-to-end time is scaled by the speed the neighbouring
units measured: it reads as seconds at the reference speed (REFERENCE_S
per unit). The unscaled figures are printed too.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import modal

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
WORKLOADS = ("modal-validity", "corpus", "hilbert", "object-theory")
SETUP_SAMPLES = 11
REFERENCE_S = 0.003   # the reference unit's time on an unloaded machine
SHOWN_FAILURES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up, print 'ready' and exit")
    return ap.parse_args(argv)


def reference() -> float:
    """Seconds one reference unit takes now."""
    start = time.perf_counter()
    modal.reference_work()
    return time.perf_counter() - start


def sample_setup(args) -> list:
    """(scaled, raw) seconds from starting a fresh interpreter to the
    inputs being ready, one pair per sample."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    before = reference()
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up subprocess failed with code {code}")
        after = reference()
        samples.append((elapsed * 2 * REFERENCE_S / (before + after), elapsed))
        before = after
    return samples


class Loop:
    """Whole passes over the job list; records times and failures."""

    def __init__(self, jobs, tracer=None):
        self.jobs = jobs
        self.tracer = tracer
        self.times = [[] for _ in jobs]   # scaled seconds
        self.raw = [[] for _ in jobs]     # wall seconds
        self.pass_times = {False: [], True: []}
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures: dict = {}   # job name -> [count, last reason]

    def run_pass(self, traced: bool) -> None:
        clock = time.perf_counter
        pass_time = 0.0
        before = reference()
        for k, job in enumerate(self.jobs):
            gc.collect()
            start = clock()
            try:
                if traced:
                    result, elapsed = self.tracer.run_job(job.name, job.run)
                else:
                    result = job.run()
                    elapsed = clock() - start
                reason = job.check(result)
            except Exception as e:  # a job that raises is a failed job
                elapsed = clock() - start
                reason = f"raised {type(e).__name__}: {e}"
            after = reference()
            scaled = elapsed * 2 * REFERENCE_S / (before + after)
            before = after
            self.attempted += 1
            self.times[k].append(scaled)
            self.raw[k].append(elapsed)
            pass_time += scaled
            if reason is not None:
                self.failed += 1
                self.unexpected += not job.known_fault
                self.failures.setdefault(job.name, [0, None])
                self.failures[job.name][0] += 1
                self.failures[job.name][1] = reason
        self.pass_times[traced].append(pass_time)

    def run(self, seconds: float) -> None:
        start = time.perf_counter()
        k = 0
        while True:
            self.run_pass(self.tracer is not None and k % 2 == 1)
            k += 1
            if self.tracer is not None and k % 2 == 1:
                continue
            if time.perf_counter() - start >= seconds:
                return


def verdicts_per_s(loop: Loop, times) -> float:
    return (loop.attempted - loop.failed) / sum(sum(t) for t in times)


def geomean_ms(times) -> float:
    logs = [math.log(statistics.median(t)) for t in times]
    return 1000.0 * math.exp(sum(logs) / len(logs))


def end_to_end(loop: Loop, setup_samples) -> dict:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled, raw = zip(*setup_samples)
    print(f"unscaled: setup_s {statistics.median(raw):.6g} s, verdicts_per_s "
          f"{verdicts_per_s(loop, loop.raw):.6g} 1/s, verdict_geomean_ms "
          f"{geomean_ms(loop.raw):.6g} ms")
    return {
        "setup_s": (statistics.median(scaled), "s"),
        "verdicts_per_s": (verdicts_per_s(loop, loop.times), "1/s"),
        "verdict_geomean_ms": (geomean_ms(loop.times), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


# Per-layer metrics, per traced pass: ("self", layer) is the layer's self
# time, ("calls", layer) its call count, ("count", counter) a counter, and
# ("rate", counter, layer) the counter per second of the layer's time.
PER_LAYER = (
    ("modelfind.search_s", "self", "modelfind.search"),
    ("modelfind.examined", "count", "modelfind.examined"),
    ("modelfind.examined_per_s", "rate", "modelfind.examined", "modelfind.search"),
    ("kripke.evaluate_calls", "calls", "kripke.evaluate"),
    ("kripke.evaluate_s", "self", "kripke.evaluate"),
    ("abstraction.validate_layer_s", "self", "abstraction.validate_layer"),
    ("abstraction.check_proof_s", "self", "abstraction.check_proof"),
    ("abstraction.steps_per_s", "rate", "abstraction.steps", "abstraction.check_proof"),
    ("formulas.alpha_equivalent_calls", "calls", "formulas.alpha_equivalent"),
    ("formulas.alpha_equivalent_s", "self", "formulas.alpha_equivalent"),
    ("problemfile.parse_s", "self", "problemfile.parse"),
    ("parser.parse_formula_calls", "calls", "parser.parse_formula"),
    ("macros.expand_derived_s", "self", "macros.expand_derived"),
    ("formulas.beta_normalize_s", "self", "formulas.beta_normalize"),
    ("formulas.free_vars_calls", "calls", "formulas.free_vars"),
    ("aot.denote_s", "self", "aot.denote"),
    ("aot.exists_term_s", "self", "aot.exists_term"),
    ("aot.eval_aot_s", "self", "aot.eval_aot"),
    ("aot.census_s", "self", "aot.census"),
    ("aot.world_theory_s", "self", "aot.world_theory"),
    ("ontoarg.ultrafilter_s", "self", "ontoarg.ultrafilter"),
    ("ontoarg.vagueness_s", "self", "ontoarg.vagueness"),
    ("proofs.refutation_script_s", "self", "proofs.refutation_script"),
)
UNITS = {"self": "s", "calls": "count", "count": "count", "rate": "1/s"}


def per_layer(loop: Loop) -> dict:
    tr = loop.tracer
    n = len(loop.pass_times[True])
    out = {}
    for name, kind, key, *layer in PER_LAYER:
        if kind == "rate":
            seconds = tr.total[layer[0]]
            value = tr.counters[key] / seconds if seconds > 0 else 0.0
        else:
            source = {"self": tr.self_time, "calls": tr.calls,
                      "count": tr.counters}[kind]
            value = source[key] / n
        out[name] = (value, UNITS[kind])
    plain = statistics.median(loop.pass_times[False])
    traced = statistics.median(loop.pass_times[True])
    out["trace.overhead_pct"] = (100.0 * (traced / plain - 1.0), "%")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "finmodal" / "__init__.py").is_file():
        print(f"error: no finmodal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.setup_only:
        # Byte-compile once, as an install would, so that every set-up
        # sample reads compiled modules even where writing them is off.
        for d in (ROOT / "src" / "finmodal", Path(__file__).resolve().parent):
            compileall.compile_dir(str(d), quiet=1)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    jobs = workloads.setup(args.workload, args.seed, ROOT)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    tracer = None
    setup_samples = []
    if args.trace:
        import layertrace
        tracer = layertrace.Tracer([workloads])
    else:
        setup_samples = sample_setup(args)
    loop = Loop(jobs, tracer)
    loop.run(args.seconds)

    if tracer is not None:
        metrics = per_layer(loop)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(path)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        for layer, s in sorted(tracer.layer_self_times().items()):
            print(f"self time {layer}: {s / len(loop.pass_times[True]):.4f} s/pass")
    else:
        metrics = end_to_end(loop, setup_samples)
    passes = sum(len(v) for v in loop.pass_times.values())
    print(f"workload {args.workload} seed {args.seed}: {passes} passes of "
          f"{len(jobs)} jobs, {loop.failed} failed")
    for name, (count, reason) in list(loop.failures.items())[:SHOWN_FAILURES]:
        print(f"failed {count}x: {name}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": loop.unexpected == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
