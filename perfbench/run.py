#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_small --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/ (which compiles the library sources in
src/) under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
and runs the benchmark binary with the simulation thread count pinned
to min(4, CPUs). Build output goes to stderr.

An untraced run (--trace 0) splits its seconds over several benchmark
processes and reports, per metric, the median over the processes: host
times on a shared machine differ more between processes than between
replays within one, so one process would measure its own placement.
The modeled metrics must agree exactly across processes. A traced run
(--trace 1) is one process. The last line of stdout is the JSON result.
The exit code is 0 only if every process passed its checks; 1 if the
build fails or a process gives no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

MAX_SIM_THREADS = 4
UNTRACED_PROCESSES = 4
RUN_TIMEOUT_S = 170


def build(bench_dir: Path, build_dir: Path, jobs: int) -> bool:
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench", "-j", str(jobs)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def run_once(binary: Path, args: list, env: dict, timeout: float):
    """One benchmark process: (exit code, output lines, result or None)."""
    proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                          env=env, text=True, timeout=timeout)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        return proc.returncode or 1, lines, None
    return proc.returncode, lines[:-1], result


def combine(results: list) -> dict:
    """Per-metric median over processes; modeled metrics must agree."""
    correct = all(r["correct"] for r in results)
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if name.startswith("modeled_") and len(set(values)) != 1:
            print(f"perfbench: {name} differs across processes: {values}")
            correct = False
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
    return {"correct": correct,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    opts = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = (Path.cwd() / target / "perfbench").resolve()
    threads = max(1, min(MAX_SIM_THREADS, os.cpu_count() or 1))
    if not build(bench_dir, build_dir, threads):
        return 1

    processes = 1 if opts.trace else UNTRACED_PROCESSES
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", repr(opts.seconds / processes),
            "--trace", str(opts.trace)]
    env = dict(os.environ, TPL_SIM_THREADS=str(threads))
    code = 0
    results = []
    try:
        for _ in range(processes):
            rc, lines, result = run_once(build_dir / "perfbench", args, env,
                                         RUN_TIMEOUT_S / processes)
            print("\n".join(lines))
            if result is None:
                print("perfbench: no JSON result line", file=sys.stderr)
                return 1
            code = code or rc
            results.append(result)
    except subprocess.TimeoutExpired:
        print("perfbench: no result in time", file=sys.stderr)
        return 1

    result = combine(results)
    print(json.dumps(result))
    return code or (0 if result["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
