#!/usr/bin/env python3
"""Checks the newest BENCH_perfbench.json row against the code as built.

    python3 scripts/check_bench_trajectory.py

Run it from anywhere inside the repository. For every workload in the
newest row it runs perfbench once (perfbench/run.py, --trace 0, the row's
seed) and compares the printed fingerprint and final simulated clock with
the row's. Both are deterministic at a fixed seed, so any difference means
the change moved simulated behaviour: the script prints it and exits 1.
Host fields (host_cal_per_op, setup_s, peak_rss_mb) are recorded in the
file, not checked here.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "BENCH_perfbench.json")
FINGERPRINT = re.compile(
    r"fingerprint: ([0-9a-f]{16}) \(final simulated clock (\d+) ps\)")


def measure(workload, seed):
    """Runs one perfbench pass; returns (fingerprint, final clock in ps)."""
    # One phase is enough: perfbench takes the fingerprint and final clock
    # from its first phase and fails if a later phase does not repeat them,
    # so a longer run only adds wall time.
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "0.1", "--trace", "0"]
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    match = FINGERPRINT.search(run.stdout)
    if run.returncode != 0 or match is None:
        sys.stdout.write(run.stdout)
        raise RuntimeError(f"perfbench {workload} failed (exit {run.returncode})")
    return match.group(1), int(match.group(2))


def main():
    with open(TRAJECTORY) as f:
        rows = json.load(f)["rows"]
    newest = rows[-1]
    failures = 0
    for workload, recorded in newest["workloads"].items():
        fingerprint, clock = measure(workload, newest["seed"])
        ok = (fingerprint == recorded["fingerprint"] and
              clock == recorded["final_clock_ps"])
        print(f"{workload}: fingerprint {fingerprint}, final clock {clock} ps "
              f"-> {'matches' if ok else 'DIFFERS'}")
        if not ok:
            print(f"  recorded: fingerprint {recorded['fingerprint']}, "
                  f"final clock {recorded['final_clock_ps']} ps")
            failures += 1
    if failures:
        print(f"{failures} workload(s) differ from the newest row "
              f"({newest['label']})", file=sys.stderr)
        return 1
    print(f"newest trajectory row ({newest['label']}) reproduces")
    return 0


if __name__ == "__main__":
    sys.exit(main())
