"""Run one benchmark workload and print its metrics, last line JSON.

From the root of a checkout:

    python3 perfbench/run.py --workload demo_oracle --seed 0 --seconds 25 --trace 0

Workloads: demo_oracle, axial_train, track_many (see perfbench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
The workload runs in a child process (perfbench/worker.py) pinned to one
BLAS/OpenMP thread, which builds `axialtrack` from the checkout's `src/`.
setup_s is the median over several fresh processes, each timed from
spawn until its inputs are ready for the first op. The exit code is 0
only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("demo_oracle", "axial_train", "track_many")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    paths = [os.path.abspath("src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(argv: list[str], env: dict, deadline: float) -> str:
    """Run the worker to completion and return its last stdout line."""
    proc = subprocess.Popen([sys.executable, WORKER, *argv], stdout=subprocess.PIPE,
                            env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {' '.join(argv)} ran past the deadline") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(argv)} exited with code {proc.returncode}")
    return lines[-1]


def setup_seconds(args, env: dict, deadline: float) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        # CLOCK_MONOTONIC is one clock for every process on the machine.
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        argv = [args.workload, str(args.seed), "0", "0", "--setup-only"]
        ready = float(run_child(argv, env, deadline))
        samples.append(ready - spawned)
    return statistics.median(samples)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join("src", "axialtrack", "__init__.py")):
        print("error: no src/axialtrack here; run from the root of a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    try:
        setup = None if args.trace else setup_seconds(args, env, deadline)
        argv = [args.workload, str(args.seed), str(args.seconds), str(args.trace)]
        result = json.loads(run_child(argv, env, deadline))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if setup is not None:
        metrics["setup_s"] = [setup, "s"]
    env_info = result["env"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['attempted']} ops, {result['failed']} failed "
          f"(ops_failed_frac {result['failed'] / result['attempted']:.4g})")
    print(f"env: nproc {env_info['nproc']}, cpu {env_info['cpu']}, python {env_info['python']}, "
          f"numpy {env_info['numpy']}, threads {env_info['threads']}")
    print("op seconds: " + " ".join(f"{t:.4f}" for t in result["op_s"]))
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    computed = set(result.get("computed", ()))
    for name, (value, unit) in metrics.items():
        note = " (computed from argument shapes)" if name in computed else ""
        print(f"  {name} = {value:.6g} {unit}{note}")
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
