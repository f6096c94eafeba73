#!/usr/bin/env python3
"""Build and run the benchmark of record (see README.md in this directory).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the perfbench binary (Release) into
$CARGO_TARGET_DIR, default .bench_build, then runs it with every GOTHIC_*
variable removed from its environment. The binary's last stdout line is
the JSON result; this script checks that its metric names are exactly the
ones BENCHMARK.json lists for the mode and passes it through.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "perfbench")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "perfbench")


def main(argv):
    trace = dict(zip(argv[::2], argv[1::2])).get("--trace")
    if trace not in ("0", "1"):
        fail("--trace <0|1> is required")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no repository sources next to perfbench/")
    with open(spec_path) as f:
        spec = json.load(f)
    expected = {m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    scratch = os.path.join(build_dir, "perfbench-scratch")
    os.makedirs(scratch, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("GOTHIC_")}
    proc = subprocess.run([binary, *argv, "--scratch", scratch], env=env,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"perfbench exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result["metrics"]) != expected:
        fail("metric names differ from BENCHMARK.json: " +
             str(sorted(set(result["metrics"]) ^ expected)))
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
