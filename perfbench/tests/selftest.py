#!/usr/bin/env python3
"""Self-test: the benchmark's correctness checks can fail.

    python3 perfbench/tests/selftest.py

Run from the repository root. Runs one short m31-64k measurement with every
tolerance scaled to zero (an impossible bound) and requires the result to
report correct = false with every attempted step counted as failed; then
runs the same measurement with the real tolerances and requires zero
failures.
"""
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "run.py")


def measure(*extra):
    cmd = [sys.executable, RUN, "--workload", "m31-64k", "--seed", "7",
           "--seconds", "0", "--trace", "0", *extra]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def main():
    broken = measure("--tol-scale", "0")
    if broken["correct"] or broken["failed"] == 0 or broken["failed"] != broken["attempted"]:
        print(f"selftest: FAIL: impossible tolerance not counted as failed: {broken}")
        return 1
    sound = measure()
    if not sound["correct"] or sound["failed"] != 0:
        print(f"selftest: FAIL: real tolerances reported failures: {sound}")
        return 1
    print(f"selftest: OK (impossible tolerance: {broken['failed']}/{broken['attempted']} "
          f"failed; real tolerances: 0/{sound['attempted']} failed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
