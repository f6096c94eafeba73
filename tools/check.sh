#!/usr/bin/env bash
# Tier-1 verification plus a ThreadSanitizer pass over the runtime layer.
#
#   tools/check.sh            # full: verify (both schedulers) + bench-off
#                             # build + TSan
#   tools/check.sh --fast     # verify only
#
# The tier-1 suite runs twice: once with GOTHIC_ASYNC=1 (the default
# asynchronous stream scheduler) and once with GOTHIC_ASYNC=0 (the
# synchronous escape hatch) — results must be identical. Tier-1 includes
# the exact behaviour golden (ctest -L golden: op counts, rebuild steps,
# modelled seconds and state hashes of pinned default-config runs vs
# tests/golden/behaviour.json), which runs once more on one worker
# (GOTHIC_THREADS=1) so the gate also covers worker-count invariance.
#
# The SIMD stage repeats tier-1 plus a fuzz smoke under GOTHIC_SIMD=1
# (AVX2 lane kernels) and GOTHIC_SIMD=0 (scalar oracle) — the two warp
# substrates must be bit-identical.
#
# The observability smoke validates the Perfetto trace (zero dropped
# records), the flight-recorder incident dump left by a fault-injected
# fuzz run, and the bench JSON; the telemetry stage validates the
# GOTHIC_TELEMETRY JSONL stream under every scheduler x substrate
# combination.
#
# The fuzz stage drives gothic_fuzz — seeded async runs of the step loop
# (SIMD substrate from the seed) checked bit-identical
# against the synchronous reference, plus fault-injection plans
# (launch-body throws, leader stalls) checked for first-wins error
# propagation and device reuse — under both scheduler modes. Its scenario
# legs sweep seeds whose bits also select the workload from the scenario
# registry, so one printed seed reproduces ICs + force law + configuration
# together. A stale --lanes flag must make gothic_fuzz exit non-zero.
#
# The scenario stage runs the physics-oracle matrix (force error vs
# direct summation, energy drift, momentum balance — parameterized over
# every registry entry) plus the per-scenario bit-identity suite under
# both scheduler modes, then sweeps bench_scenario and validates one
# golden-schema BENCH_scenario_<name>.json per scenario.
#
# The service stage runs the session-pool suites (ctest -L service) under
# both scheduler modes, sweeps the gothic_fuzz service leg (seeded pooled
# fault plans asserting session isolation + solo bit-identity), smokes
# gothic_serve end-to-end with per-session telemetry/trace/checkpoint
# streams, and validates a golden-schema BENCH_service.json.
#
# The perfbench stage runs the benchmark of record's self-test (an
# impossible tolerance must be counted as failed).
#
# The bench-off stage builds the default target of a tree configured with
# GOTHIC_BUILD_BENCH=OFF (build-nobench/), so no test or tool depends on a
# bench-only target.
#
# The TSan stage rebuilds test_runtime, test_walk_tree, test_service and
# gothic_fuzz in a separate build tree (build-tsan/) with
# GOTHIC_SANITIZE=thread and runs them under both scheduler modes,
# exercising the leader's queue handshake, the host's event waits, the
# team fork/join shared by host and leader, the per-launch merge locks, the
# fault-injection paths and the session pool's driver handoff under a
# real data-race detector.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1 verify =="
cmake -B build -S . >/dev/null
cmake --build build -j
echo "-- ctest (GOTHIC_ASYNC=1, stream scheduler) --"
(cd build && GOTHIC_ASYNC=1 ctest --output-on-failure -j)
echo "-- ctest (GOTHIC_ASYNC=0, synchronous escape hatch) --"
(cd build && GOTHIC_ASYNC=0 ctest --output-on-failure -j)
echo "-- behaviour golden (GOTHIC_THREADS=1) --"
(cd build && GOTHIC_THREADS=1 ctest --output-on-failure --no-tests=error \
  -L golden)

echo "== observability smoke (trace + flight + bench JSON, both scheduler modes) =="
# A traced driver step must emit valid Perfetto JSON with zero dropped
# launch records (a non-zero count means the timeline is silently
# truncated), a figure bench must emit a parseable BENCH_*.json, and a
# fault-injected gothic_fuzz run must leave a valid flight-recorder
# incident dump naming the faulted launch — under both schedulers.
for mode in 1 0; do
  echo "-- GOTHIC_ASYNC=$mode --"
  (cd build &&
    GOTHIC_ASYNC=$mode GOTHIC_TRACE=smoke_trace.json \
      ./tools/gothic_run --model=plummer --n=2048 --steps=2 --metrics \
        >/dev/null &&
    python3 -m json.tool smoke_trace.json >/dev/null &&
    python3 -c "
import json
n = json.load(open('smoke_trace.json'))['otherData']['dropped_records']
assert n == 0, 'trace dropped %d launch records' % n" &&
    rm -f smoke_trace.json &&
    GOTHIC_ASYNC=$mode GOTHIC_BENCH_N=4096 GOTHIC_BENCH_STEPS=1 \
      GOTHIC_BENCH_DACC_MIN=2 ./bench/bench_fig04_breakdown_macc \
        >/dev/null &&
    python3 -m json.tool BENCH_fig04_breakdown_macc.json >/dev/null &&
    rm -f BENCH_fig04_breakdown_macc.json &&
    rm -f smoke_flight*.json &&
    GOTHIC_ASYNC=$mode GOTHIC_FLIGHT=smoke_flight.json \
      ./tools/gothic_fuzz --schedules=0 --faults=4 \
        >/dev/null &&
    python3 -c "
import json
d = json.load(open('smoke_flight.json'))['flight_recorder']
assert d['launches'], 'flight dump holds no launches'
assert 'injected fault' in d['reason'], d['reason']" &&
    rm -f smoke_flight*.json)
done
echo "observability smoke passed"

echo "== telemetry stream (GOTHIC_ASYNC x GOTHIC_SIMD) =="
# GOTHIC_TELEMETRY streams one schema-pinned JSONL record per step plus a
# leading config line; every line must parse and the stream must cover
# every step under each scheduler x warp-substrate combination.
for mode in 1 0; do
  for simd in 1 0; do
    echo "-- GOTHIC_ASYNC=$mode GOTHIC_SIMD=$simd --"
    (cd build &&
      rm -f smoke_telemetry.jsonl &&
      GOTHIC_ASYNC=$mode GOTHIC_SIMD=$simd \
        GOTHIC_TELEMETRY=smoke_telemetry.jsonl \
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
done
echo "telemetry stage passed"

echo "== bench smoke: load balancing (both scheduler modes) =="
# bench_balance walks the work queue at a small N over four activity
# fractions, exits nonzero unless every walk is bit-identical to a
# 1-worker walk, and must emit a BENCH_balance.json that passes both a
# raw JSON parse and the golden-schema test. 4 workers so the imbalance
# ratio is meaningful on single-core CI runners.
for mode in 1 0; do
  echo "-- GOTHIC_ASYNC=$mode --"
  (cd build &&
    GOTHIC_ASYNC=$mode GOTHIC_THREADS=4 GOTHIC_BENCH_N=4096 \
      GOTHIC_BENCH_STEPS=2 ./bench/bench_balance >/dev/null &&
    python3 -m json.tool BENCH_balance.json >/dev/null &&
    GOTHIC_BENCH_VALIDATE_JSON=BENCH_balance.json ./tests/test_bench_support \
      --gtest_filter='ExternalReport.*' >/dev/null &&
    rm -f BENCH_balance.json)
done
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

echo "== seeded fuzz + fault injection (both scheduler modes) =="
# Seeded sweep (64 runs) and 8 fault plans; every failing seed prints a
# gothic_fuzz --replay line. GOTHIC_ASYNC only selects the ambient
# scheduler — the fuzzer constructs its own devices — so running both
# modes checks the harness is environment-independent.
for mode in 1 0; do
  echo "-- GOTHIC_ASYNC=$mode --"
  GOTHIC_ASYNC=$mode ./build/tools/gothic_fuzz --schedules=64 \
    --faults=8 --scenarios=6
done
# Devices have one FIFO lane; the removed --lanes flag must fail loudly.
if ./build/tools/gothic_fuzz --schedules=0 --faults=0 --lanes=2 \
    >/dev/null 2>&1; then
  echo "gothic_fuzz accepted the removed --lanes flag" >&2
  exit 1
fi
echo "fuzz stage passed"

echo "== shard stage: K-shard bit-identity + LET traffic (both scheduler modes) =="
# The sharded pipeline's oracle, three ways under each ambient scheduler:
# ctest -L shard runs the partition/LET invariants and the K in {1,2,4}
# bit-identity suite (>= 8 steps, rebuilds included); bench_shard re-runs
# the oracle on the M31 workload and must emit a golden-schema
# BENCH_shard.json reporting busy-time imbalance and LET traffic; the
# sharded fuzz legs drive seeded sharded runs plus launch faults injected
# into one shard (one shard's failure must not poison the other shards'
# devices).
for mode in 1 0; do
  echo "-- GOTHIC_ASYNC=$mode --"
  (cd build &&
    GOTHIC_ASYNC=$mode ctest --output-on-failure --no-tests=error -L shard -j)
  (cd build &&
    GOTHIC_ASYNC=$mode GOTHIC_THREADS=4 GOTHIC_BENCH_N=4096 \
      GOTHIC_BENCH_STEPS=8 ./bench/bench_shard >/dev/null &&
    python3 -m json.tool BENCH_shard.json >/dev/null &&
    GOTHIC_BENCH_VALIDATE_JSON=BENCH_shard.json ./tests/test_bench_support \
      --gtest_filter='ExternalReport.*' >/dev/null &&
    rm -f BENCH_shard.json)
  GOTHIC_ASYNC=$mode ./build/tools/gothic_fuzz --schedules=0 --faults=0 \
    --shards=16 --shard-faults=6
done
echo "shard stage passed"

echo "== scenario stage: physics-oracle matrix + bench_scenario =="
# The parameterized invariance suite (force oracle vs direct summation,
# energy drift, momentum balance) and the per-scenario shard/SIMD/async
# bit-identity matrix, under both scheduler modes; then bench_scenario
# sweeps the registry and must emit one golden-schema
# BENCH_scenario_<name>.json per scenario — each validated by a raw JSON
# parse plus the ExternalReport schema test.
for mode in 1 0; do
  echo "-- GOTHIC_ASYNC=$mode --"
  (cd build && GOTHIC_ASYNC=$mode ctest --output-on-failure -j \
    -R 'Scenario|WalkTreeLJ')
done
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

echo "== service stage: session pool (both scheduler modes) =="
# The multi-tenant session layer: ctest -L service runs the SessionManager
# suites (solo bit-identity oracle, quota reject-on-exceed, starvation
# bound, mixed-fault isolation stress) under each ambient scheduler; the
# gothic_fuzz service leg sweeps seeded pooled fault plans; gothic_serve
# drives a GOTHIC_SESSIONS-sized registry-cycled batch end-to-end with
# per-session telemetry / trace / checkpoint streams plus the oracle; and
# bench_service must emit a golden-schema BENCH_service.json. The fuzz
# leg's sessions (n=384, 5 steps) are sized so the auto-tuned cadence
# rebuilds inside some of them; its summary must report rebuilds.
for mode in 1 0; do
  echo "-- GOTHIC_ASYNC=$mode --"
  (cd build &&
    GOTHIC_ASYNC=$mode ctest --output-on-failure --no-tests=error -L service -j)
  out=$(GOTHIC_ASYNC=$mode ./build/tools/gothic_fuzz --schedules=0 \
    --faults=0 --service=6 --n=384 --steps=5) || { echo "$out"; exit 1; }
  echo "$out"
  if grep -q ' 0 rebuilds' <<<"$out"; then
    echo "service fuzz sessions never rebuilt after construction" >&2
    exit 1
  fi
done
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

echo "== bench-off build: default target without the bench harness =="
cmake -B build-nobench -S . -DGOTHIC_BUILD_BENCH=OFF >/dev/null
cmake --build build-nobench -j
echo "bench-off build passed"

echo "== TSan: runtime + walk_tree + service + fuzz (both scheduler modes) =="
cmake -B build-tsan -S . -DGOTHIC_SANITIZE=thread \
      -DGOTHIC_BUILD_BENCH=OFF -DGOTHIC_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-tsan -j --target test_runtime test_walk_tree \
      test_service gothic_fuzz
(cd build-tsan &&
  GOTHIC_ASYNC=1 ./tests/test_runtime &&
  GOTHIC_ASYNC=1 ./tests/test_walk_tree &&
  GOTHIC_ASYNC=1 ./tests/test_service &&
  GOTHIC_ASYNC=0 ./tests/test_runtime &&
  GOTHIC_ASYNC=0 ./tests/test_walk_tree &&
  GOTHIC_ASYNC=0 ./tests/test_service &&
  GOTHIC_ASYNC=1 ./tools/gothic_fuzz --schedules=8 --faults=8 --steps=4 \
    --service=4 --n=128)

echo "check.sh: all stages passed"
