#!/usr/bin/env python3
"""Build the benchmark from source and run it once.

    python3 perfbench/run.py --workload tpcc --seed 1 --seconds 25 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). A run is TRAJECTORIES trajectories, each a
fresh process that loads a fresh database and ages it for seconds /
TRAJECTORIES; the reported metrics are the medians over the trajectories.
Each trajectory's log files go to .bench_run/ and are deleted when it ends.
Stdout carries one JSON line per trajectory and then the result line. See
README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tpcc", "tpcch-ssn", "ycsb-b-occ")
TRAJECTORIES = 5
RUN_BUDGET_S = 170


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    # Build output goes to stderr: stdout carries only results.
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], check=True,
                   stdout=sys.stderr)
    return os.path.join(build_dir, "ermia_perfbench")


def cpu_times():
    """Aggregate CPU time counters from /proc/stat (empty where missing)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to other guests in between."""
    if len(before) < 8 or len(after) < 8:
        return None
    total = sum(after[:8]) - sum(before[:8])
    return (after[7] - before[7]) / total if total > 0 else None


def run_trajectory(binary, args, index, deadline):
    """Runs one trajectory; returns (detail, result) or None on a crash."""
    log_dir = os.path.join(ROOT, ".bench_run", f"{os.getpid()}-{index}")
    os.makedirs(log_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload,
           "--seed", str(args.seed * TRAJECTORIES + index),
           "--seconds", repr(args.seconds / TRAJECTORIES),
           "--trace", str(args.trace), "--dir", log_dir]
    cpu_before = cpu_times()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"run.py: trajectory {index} timed out", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(log_dir, ignore_errors=True)
    steal = steal_share(cpu_before, cpu_times())
    lines = out.strip().splitlines()
    try:
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"run.py: trajectory {index} exited {proc.returncode} "
              "without a result", file=sys.stderr)
        return None
    # Host contention moves every timing; recorded so it can be told apart.
    detail["host_steal"] = steal
    return detail, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    deadline = time.time() + RUN_BUDGET_S
    results = []
    for i in range(TRAJECTORIES):
        trajectory = run_trajectory(binary, args, i, deadline)
        if trajectory is None:
            return 3
        detail, result = trajectory
        print(json.dumps({"trajectory": i, **detail, "result": result}))
        results.append(result)

    first = results[0]["metrics"]
    combined = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"value": statistics.median(r["metrics"][name]["value"]
                                              for r in results),
                   "unit": metric["unit"]}
            for name, metric in first.items()
        },
    }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
