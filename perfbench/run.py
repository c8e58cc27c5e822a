#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench) for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It configures and builds perfbench/ (a
CMake package that compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
binary. The binary prints its human-readable report, which is passed
through, and writes a JSON record; the last line printed here is one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list, each with the unit BENCHMARK.json gives it.

Exits 1, printing no result, when the build or the run fails; exits 1 after
printing the result when the run's outputs were wrong.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        generated = ("build.ninja", "Makefile")
        if not any(os.path.exists(os.path.join(build_dir, g)) for g in generated):
            configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                        "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    if args.workload not in {w["name"] for w in contract["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 1

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1

    record_path = os.path.join(build_dir, f"record-{os.getpid()}.json")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--json", record_path]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(run.stdout)
    try:
        with open(record_path) as f:
            record = json.load(f)
        os.remove(record_path)
    except (OSError, ValueError) as error:
        log(f"no result record (exit {run.returncode}): {error}")
        return 1

    series = {s["name"]: s["rows"][0] for s in record["series"]}
    outcome = series["outcome"]
    measured = series["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        value = measured.get(metric["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            log(f"metric {metric['name']} missing or not finite")
            return 1
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    correct = run.returncode == 0 and outcome["correct"] == 1
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
