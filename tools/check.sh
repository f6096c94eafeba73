#!/usr/bin/env bash
# Tier-1 verification plus a ThreadSanitizer pass over the runtime layer.
#
#   tools/check.sh            # full: verify + warnings-as-errors bench-off
#                             # build + TSan
#   tools/check.sh --fast     # verify only
#
# Every launch runs synchronously (there is one execution mode), so each
# stage runs once. Tier-1 includes the exact behaviour golden (ctest -L
# golden: op counts, rebuild steps, modelled seconds and state hashes of
# pinned default-config runs vs tests/golden/behaviour.json), which runs
# once more on one worker (GOTHIC_THREADS=1) so the gate also covers
# worker-count invariance.
#
# The SIMD stage repeats tier-1 plus a fuzz smoke under GOTHIC_SIMD=1
# (AVX2 lane kernels) and GOTHIC_SIMD=0 (scalar oracle) — the two warp
# substrates must be bit-identical.
#
# The observability smoke validates the Perfetto trace (zero dropped
# records), the flight-recorder incident dump left by a fault-injected
# fuzz run, and the bench JSON; the telemetry stage validates the
# GOTHIC_TELEMETRY JSONL stream under both warp substrates.
#
# The fuzz stage drives gothic_fuzz — seeded runs of the step loop (SIMD
# substrate from the seed) checked bit-identical against the reference
# run, plus fault-injection plans (launch-body throws, launch stalls)
# checked for the launch error contract (each throw surfaces once, from
# its launch) and device reuse. Its scenario legs sweep seeds whose bits
# also select the workload from the scenario registry, so one printed
# seed reproduces ICs + force law + configuration together. A stale
# --lanes flag must make gothic_fuzz exit non-zero.
#
# The scenario stage runs the physics-oracle matrix (force error vs
# direct summation, energy drift, momentum balance — parameterized over
# every registry entry) plus the per-scenario bit-identity suite, then
# sweeps bench_scenario and validates one golden-schema
# BENCH_scenario_<name>.json per scenario.
#
# The service stage runs the session-pool suites (ctest -L service),
# sweeps the gothic_fuzz service leg (seeded pooled fault plans asserting
# session isolation + solo bit-identity), smokes gothic_serve end-to-end
# with per-session telemetry/trace/checkpoint streams, and validates a
# golden-schema BENCH_service.json.
#
# The perfbench stage runs the benchmark of record's self-test (an
# impossible tolerance must be counted as failed).
#
# The bench-off stage builds the default target of a tree configured with
# GOTHIC_BUILD_BENCH=OFF and GOTHIC_WERROR=ON (build-nobench/), so no test
# or tool depends on a bench-only target and any compiler warning in the
# library, tests or tools fails the gate.
#
# The TSan stage rebuilds test_runtime, test_walk_tree, test_shard,
# test_service and gothic_fuzz in a separate build tree (build-tsan/) with
# GOTHIC_SANITIZE=thread and runs each once (the --shards leg starts at
# seed 8, so its 16 seeds cover K = 2 and K = 4), exercising the team
# fork/join shared by several host threads, the sharded step's host team
# driving K shard devices at once, the per-launch record locks, the
# fault-injection paths and the session pool's driver handoff under a
# real data-race detector.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1 verify =="
cmake -B build -S . >/dev/null
cmake --build build -j
(cd build && ctest --output-on-failure -j)
echo "-- behaviour golden (GOTHIC_THREADS=1) --"
(cd build && GOTHIC_THREADS=1 ctest --output-on-failure --no-tests=error \
  -L golden)

echo "== observability smoke (trace + flight + bench JSON) =="
# A traced driver step must emit valid Perfetto JSON with zero dropped
# launch records (a non-zero count means the timeline is silently
# truncated), a figure bench must emit a parseable BENCH_*.json, and a
# fault-injected gothic_fuzz run must leave a valid flight-recorder
# incident dump naming the faulted launch.
(cd build &&
  GOTHIC_TRACE=smoke_trace.json \
    ./tools/gothic_run --model=plummer --n=2048 --steps=2 --metrics \
      >/dev/null &&
  python3 -m json.tool smoke_trace.json >/dev/null &&
  python3 -c "
import json
n = json.load(open('smoke_trace.json'))['otherData']['dropped_records']
assert n == 0, 'trace dropped %d launch records' % n" &&
  rm -f smoke_trace.json &&
  GOTHIC_BENCH_N=4096 GOTHIC_BENCH_STEPS=1 GOTHIC_BENCH_DACC_MIN=2 \
    ./bench/bench_fig04_breakdown_macc >/dev/null &&
  python3 -m json.tool BENCH_fig04_breakdown_macc.json >/dev/null &&
  rm -f BENCH_fig04_breakdown_macc.json &&
  rm -f smoke_flight*.json &&
  GOTHIC_FLIGHT=smoke_flight.json \
    ./tools/gothic_fuzz --schedules=0 --faults=4 >/dev/null &&
  python3 -c "
import json
d = json.load(open('smoke_flight.json'))['flight_recorder']
assert d['launches'], 'flight dump holds no launches'
assert 'injected fault' in d['reason'], d['reason']" &&
  rm -f smoke_flight*.json)
echo "observability smoke passed"

echo "== telemetry stream (GOTHIC_SIMD) =="
# GOTHIC_TELEMETRY streams one schema-pinned JSONL record per step plus a
# leading config line; every line must parse and the stream must cover
# every step under each warp substrate.
for simd in 1 0; do
  echo "-- GOTHIC_SIMD=$simd --"
  (cd build &&
    rm -f smoke_telemetry.jsonl &&
    GOTHIC_SIMD=$simd GOTHIC_TELEMETRY=smoke_telemetry.jsonl \
      ./tools/gothic_run --model=plummer --n=2048 --steps=3 >/dev/null &&
    python3 -c "
import json
lines = [json.loads(l) for l in open('smoke_telemetry.jsonl') if l.strip()]
assert lines and lines[0]['type'] == 'config', 'missing config line'
steps = [l for l in lines if l['type'] == 'step']
assert len(steps) == 3, 'expected 3 step records, got %d' % len(steps)
for s in steps:
    assert 'kernels' in s and 'wall_seconds' in s, sorted(s)" &&
    rm -f smoke_telemetry.jsonl)
done
echo "telemetry stage passed"

echo "== bench smoke: load balancing =="
# bench_balance walks the work queue at a small N over four activity
# fractions, exits nonzero unless every walk is bit-identical to a
# 1-worker walk, and must emit a BENCH_balance.json that passes both a
# raw JSON parse and the golden-schema test. 4 workers so the imbalance
# ratio is meaningful on single-core CI runners.
(cd build &&
  GOTHIC_THREADS=4 GOTHIC_BENCH_N=4096 GOTHIC_BENCH_STEPS=2 \
    ./bench/bench_balance >/dev/null &&
  python3 -m json.tool BENCH_balance.json >/dev/null &&
  GOTHIC_BENCH_VALIDATE_JSON=BENCH_balance.json ./tests/test_bench_support \
    --gtest_filter='ExternalReport.*' >/dev/null &&
  rm -f BENCH_balance.json)
echo "bench smoke passed"

echo "== SIMD substrate: scalar vs AVX2 lane kernels =="
# GOTHIC_SIMD selects the warp substrate at runtime: 1 = the AVX2 lane
# kernels (when compiled in and the CPU reports AVX2), 0 = the scalar
# oracle. Results and op counts are bit-identical by contract (DESIGN.md,
# "SIMD substrate"), so the whole tier-1 suite plus a fuzz smoke run
# under both settings; on a host without AVX2 the =1 leg degrades to the
# scalar path and the stage still passes.
for simd in 1 0; do
  echo "-- GOTHIC_SIMD=$simd --"
  (cd build && GOTHIC_SIMD=$simd ctest --output-on-failure -j)
  GOTHIC_SIMD=$simd ./build/tools/gothic_fuzz --schedules=16 --faults=4
done
echo "SIMD stage passed"

echo "== seeded fuzz + fault injection =="
# Seeded sweep (64 runs) and 8 fault plans plus 6 scenario legs; every
# failing seed prints a gothic_fuzz --replay line.
./build/tools/gothic_fuzz --schedules=64 --faults=8 --scenarios=6
# Devices have no launch queue; the removed --lanes flag must fail loudly.
if ./build/tools/gothic_fuzz --schedules=0 --faults=0 --lanes=2 \
    >/dev/null 2>&1; then
  echo "gothic_fuzz accepted the removed --lanes flag" >&2
  exit 1
fi
echo "fuzz stage passed"

echo "== shard stage: K-shard bit-identity + LET traffic =="
# The sharded pipeline's oracle, three ways: ctest -L shard runs the
# partition/LET invariants and the K in {1,2,4} bit-identity suite (>= 8
# steps, rebuilds included); bench_shard re-runs the oracle on the M31
# workload and must emit a golden-schema BENCH_shard.json reporting
# busy-time imbalance and LET traffic; the sharded fuzz legs drive seeded
# sharded runs plus launch faults injected into one shard (one shard's
# failure must not poison the other shards' devices).
(cd build && ctest --output-on-failure --no-tests=error -L shard -j)
(cd build &&
  GOTHIC_THREADS=4 GOTHIC_BENCH_N=4096 GOTHIC_BENCH_STEPS=8 \
    ./bench/bench_shard >/dev/null &&
  python3 -m json.tool BENCH_shard.json >/dev/null &&
  GOTHIC_BENCH_VALIDATE_JSON=BENCH_shard.json ./tests/test_bench_support \
    --gtest_filter='ExternalReport.*' >/dev/null &&
  rm -f BENCH_shard.json)
./build/tools/gothic_fuzz --schedules=0 --faults=0 --shards=16 \
  --shard-faults=6
echo "shard stage passed"

echo "== scenario stage: physics-oracle matrix + bench_scenario =="
# The parameterized invariance suite (force oracle vs direct summation,
# energy drift, momentum balance) and the per-scenario shard/SIMD
# bit-identity matrix; then bench_scenario sweeps the registry and must
# emit one golden-schema BENCH_scenario_<name>.json per scenario — each
# validated by a raw JSON parse plus the ExternalReport schema test.
(cd build &&
  ctest --output-on-failure --no-tests=error -R 'Scenario|WalkTreeLJ' -j)
(cd build &&
  rm -f BENCH_scenario_*.json &&
  GOTHIC_THREADS=4 GOTHIC_BENCH_N=2048 GOTHIC_BENCH_STEPS=8 \
    ./bench/bench_scenario >/dev/null)
for f in build/BENCH_scenario_*.json; do
  python3 -m json.tool "$f" >/dev/null
  (cd build && GOTHIC_BENCH_VALIDATE_JSON="$(basename "$f")" \
    ./tests/test_bench_support --gtest_filter='ExternalReport.*' >/dev/null)
  rm -f "$f"
done
echo "scenario stage passed"

echo "== service stage: session pool =="
# The multi-tenant session layer: ctest -L service runs the SessionManager
# suites (solo bit-identity oracle, quota reject-on-exceed, starvation
# bound, mixed-fault isolation stress); the gothic_fuzz service leg
# sweeps seeded pooled fault plans; gothic_serve drives a
# GOTHIC_SESSIONS-sized registry-cycled batch end-to-end with per-session
# telemetry / trace / checkpoint streams plus the oracle; and
# bench_service must emit a golden-schema BENCH_service.json. The fuzz
# leg's sessions (n=384, 5 steps) are sized so the auto-tuned cadence
# rebuilds inside some of them; its summary must report rebuilds.
(cd build && ctest --output-on-failure --no-tests=error -L service -j)
out=$(./build/tools/gothic_fuzz --schedules=0 --faults=0 --service=6 \
  --n=384 --steps=5) || { echo "$out"; exit 1; }
echo "$out"
if grep -q ' 0 rebuilds' <<<"$out"; then
  echo "service fuzz sessions never rebuilt after construction" >&2
  exit 1
fi
(cd build &&
  rm -rf smoke_serve && mkdir -p smoke_serve &&
  GOTHIC_SESSIONS=6 ./tools/gothic_serve --devices=2 --steps=3 --n=256 \
    --oracle --metrics --telemetry-dir=smoke_serve --trace-dir=smoke_serve \
    --snapshot-every=2 --snapshot-dir=smoke_serve >/dev/null &&
  python3 -c "
import json
lines = [json.loads(l) for l in open('smoke_serve/s0.jsonl') if l.strip()]
assert lines and lines[0]['type'] == 'config', 'missing config line'
steps = [l for l in lines if l['type'] == 'step']
assert len(steps) == 3, 'expected 3 step records, got %d' % len(steps)
json.load(open('smoke_serve/s0.trace.json'))" &&
  test -s smoke_serve/s0.bin &&
  rm -rf smoke_serve)
(cd build &&
  GOTHIC_THREADS=2 GOTHIC_BENCH_N=8192 GOTHIC_BENCH_STEPS=2 \
    ./bench/bench_service >/dev/null &&
  python3 -m json.tool BENCH_service.json >/dev/null &&
  GOTHIC_BENCH_VALIDATE_JSON=BENCH_service.json ./tests/test_bench_support \
    --gtest_filter='ExternalReport.*' >/dev/null &&
  rm -f BENCH_service.json)
echo "service stage passed"

echo "== benchmark of record: perfbench self-test =="
# perfbench (perfbench/README.md) is the benchmark of record for speed;
# the BENCH_*.json figure reports above are not. Its self-test proves the
# correctness checks can fail: one short m31-64k run with every tolerance
# scaled to zero must count each attempted step as failed, and the same
# run with the real tolerances must count none.
python3 perfbench/tests/selftest.py
echo "perfbench self-test passed"

if [[ "${1:-}" == "--fast" ]]; then
  exit 0
fi

echo "== bench-off build: default target, warnings as errors =="
cmake -B build-nobench -S . -DGOTHIC_BUILD_BENCH=OFF -DGOTHIC_WERROR=ON \
  >/dev/null
cmake --build build-nobench -j
echo "bench-off build passed"

echo "== TSan: runtime + walk_tree + shard + service + fuzz =="
cmake -B build-tsan -S . -DGOTHIC_SANITIZE=thread \
      -DGOTHIC_BUILD_BENCH=OFF -DGOTHIC_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-tsan -j --target test_runtime test_walk_tree \
      test_shard test_service gothic_fuzz
(cd build-tsan &&
  ./tests/test_runtime &&
  ./tests/test_walk_tree &&
  ./tests/test_shard &&
  ./tests/test_service &&
  ./tools/gothic_fuzz --schedules=8 --faults=8 --steps=4 \
    --service=4 --n=128 &&
  ./tools/gothic_fuzz --schedules=0 --faults=0 --shards=16 --seed=8 \
    --shard-faults=4 --steps=4 --n=128)

echo "check.sh: all stages passed"
