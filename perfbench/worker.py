"""One workload in one process: set-up, timed ops, output checks.

Started by run.py from the repository root, with one BLAS/OpenMP thread
and the checkout's `src/` first on PYTHONPATH:

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

With --setup-only it builds the workload's inputs, prints the
CLOCK_MONOTONIC time at which the first op could start, and exits.
Otherwise it prints one JSON object: op counts, problems found by the
checks, the environment, and metrics as {name: [value, unit]}.

TRACE 0 times ops untraced for SECONDS. TRACE 1 spends half of SECONDS
untraced and half with spans installed, and reports per-layer metrics
plus the tracing overhead (traced / untraced median op time). Spans are
written to .perfbench_runs/spans-WORKLOAD-seedSEED.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import axialtrack
from spans import COUNTERS, Tracer, check_counters
from workloads import WORKLOADS

MIN_OPS = 3
RUN_DIR = ".perfbench_runs"


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ.get(var) for var in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def attempt(wl, tracer: Tracer | None) -> tuple[float, list[str]]:
    """Time one op, then check its output outside the timed region."""
    if tracer is not None:
        tracer.op += 1
        tracer.active = True
    start = time.perf_counter()
    try:
        result, problems = wl.op(), None
    except Exception as exc:  # an op that raises is a failed op
        result, problems = None, [f"op raised {exc!r}"]
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    if problems is None:
        try:
            problems = wl.check(result)
        except Exception as exc:  # a check that cannot read the output fails the op
            problems = [f"check raised {exc!r}"]
    return seconds, problems


def run_ops(wl, budget: float, tracer: Tracer | None = None) -> tuple[list[float], int]:
    """Run ops until their timed seconds reach `budget` (at least MIN_OPS)."""
    times: list[float] = []
    failed = 0
    while sum(times) < budget or len(times) < MIN_OPS:
        seconds, problems = attempt(wl, tracer)
        times.append(seconds)
        if problems:
            failed += 1
            for problem in problems:
                print(f"{wl.name} op {len(times) - 1}: {problem}", file=sys.stderr)
    return times, failed


def plain_run(wl, seconds: float) -> dict:
    times, failed = run_ops(wl, seconds)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    median = statistics.median(times)
    return {
        "attempted": len(times),
        "failed": failed,
        "problems": wl.check_run(),
        "op_s": times,
        "metrics": {
            "op_s_p50": [median, "s"],
            "frames_per_s": [wl.frames_per_op / median, "1/s"],
            "peak_rss_mib": [peak_mib, "MiB"],
        },
    }


def traced_run(wl, seconds: float, spans_path: str, info: dict) -> dict:
    untraced, failed_plain = run_ops(wl, seconds / 2)
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    wl.setup()
    tracer.active = False
    setup_end = len(tracer.records)
    traced, failed_traced = run_ops(wl, seconds / 2, tracer)

    layers = tracer.layer_metrics(setup_end, len(traced))
    silent = [name for name in wl.spans if layers[f"{name}.calls"] == 0]
    if silent:
        raise SystemExit(f"{wl.name}: declared spans never fired: {', '.join(silent)}")
    metrics = {key: [value, "count" if key.endswith(".calls") else "s"]
               for key, value in layers.items()}
    for key, value in tracer.counters.metrics(len(traced)).items():
        metrics[key] = [value, COUNTERS[key]]
    overhead = statistics.median(traced) / statistics.median(untraced)
    metrics["trace.overhead"] = [overhead, "ratio"]
    problems = wl.check_run() + check_counters(tracer)
    tracer.write(spans_path, {**info, "untraced_op_s": untraced, "traced_op_s": traced})
    return {
        "attempted": len(untraced) + len(traced),
        "failed": failed_plain + failed_traced,
        "problems": problems,
        "op_s": traced,
        "metrics": metrics,
        "computed": list(COUNTERS),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("trace", type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = os.path.abspath("src")
    if not os.path.abspath(axialtrack.__file__).startswith(src + os.sep):
        raise SystemExit(f"axialtrack was imported from {axialtrack.__file__}, not from {src}")
    os.makedirs(RUN_DIR, exist_ok=True)
    scratch = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}")
    wl = WORKLOADS[args.workload](args.seed, scratch)
    try:
        wl.setup()
        if args.setup_only:
            print(time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)
            return 0
        info = {"workload": args.workload, "seed": args.seed, "env": environment()}
        if args.trace:
            spans_path = os.path.join(RUN_DIR, f"spans-{args.workload}-seed{args.seed}.json")
            out = traced_run(wl, args.seconds, spans_path, info)
        else:
            out = plain_run(wl, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({**info, **out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
