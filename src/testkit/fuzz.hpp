// Seeded fuzz and fault-sweep drivers over Simulation::step.
//
// One seeded run executes a deterministic workload (fixed particle cloud,
// fixed rebuild cadence) on fresh devices in the configuration its seed
// encodes — SIMD substrate and, for the sharded and scenario legs, shard
// count — and compares the final particle state bit-for-bit against the
// unsharded reference run of the identical workload on the default
// substrate. Any failure is reproducible from the failing 64-bit seed
// alone.
//
// sweep_faults drives randomized FaultPlans (launch-body exceptions and
// launch stalls) through a small cross-stream launch DAG on a raw Device,
// asserting the error contract per plan: each injected throw surfaces
// exactly once, from its own launch, with that launch's record complete,
// and the device runs every later launch.
//
// Shared by tests/test_testkit.cpp and the tools/gothic_fuzz driver.
#pragma once

#include "nbody/simulation.hpp"
#include "scenario/registry.hpp"
#include "testkit/fault.hpp"

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace gothic::testkit {

struct FuzzConfig {
  std::size_t n = 192;      ///< particles of the fuzz workload
  int steps = 10;           ///< steps per controlled run
  int workers = 2;          ///< device worker pool
  int rebuild_interval = 1; ///< fixed rebuild cadence (1 = every step)
  std::uint64_t workload_seed = 7; ///< particle-cloud seed
};

/// Deterministic uniform cloud (equal masses), the fuzz workload.
nbody::Particles fuzz_cloud(std::size_t n, std::uint64_t seed);
/// Fuzz step configuration: fixed rebuild cadence, shared global steps.
nbody::SimConfig fuzz_sim_config(int rebuild_interval);
/// Pack the integration state for exact (bitwise) comparison.
std::vector<real> pack_state(const nbody::Particles& p);

/// Run cfg.steps steps of the fuzz workload on a fresh device and return
/// the packed final state. A null controller gives the reference run;
/// otherwise `controller` is installed as the device's fault hook.
std::vector<real> run_controlled(const FuzzConfig& cfg,
                                 runtime::ScheduleController* controller);

/// Outcome of one seeded run.
struct RunOutcome {
  std::string leg;          ///< the configuration the seed selected
  std::vector<real> state;  ///< packed final state
  bool bit_identical = false;
};

/// Replay one seed against a reference state (from run_controlled(cfg,
/// nullptr)): the SIMD substrate from (seed >> 4) & 1, so a sweep
/// cross-checks the AVX2 and scalar paths (a no-op on hosts without AVX2)
/// and a failing seed alone reproduces the exact run. Bits 0-3 select
/// nothing.
RunOutcome replay_seed(const FuzzConfig& cfg, std::uint64_t seed,
                       const std::vector<real>& reference);

/// Aggregate of a seeded sweep.
struct SweepReport {
  std::size_t runs = 0;
  std::set<std::string> legs; ///< distinct configurations covered
  std::vector<std::uint64_t> failing_seeds;
  std::vector<std::string> failures; ///< one line per failing run

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

SweepReport sweep_seeds(const FuzzConfig& cfg, std::uint64_t base_seed,
                        std::size_t count);

/// Launches of the fixed fault DAG run_fault_plan issues (ids 1..k, two
/// cross-dependent streams). FaultPlans should target ids in this range;
/// the post-fault reuse launch takes the next id.
inline constexpr std::uint64_t kFaultLaunches = 8;

/// "0x%016x" rendering of a seed — the replay token sweeps print.
std::string hex_seed(std::uint64_t seed);

/// Outcome of one fault plan against the error contract.
struct FaultOutcome {
  int injected_throws = 0;
  int injected_stalls = 0;
  bool error_thrown = false;    ///< some launch raised an InjectedFault
  /// Each injected throw surfaced exactly once, from the launch it hit.
  bool single_error = false;
  /// Every faulting launch's record was complete when its throw surfaced.
  bool record_complete = false;
  bool device_reusable = false; ///< a post-fault launch ran to completion
  bool bodies_consistent = false; ///< non-faulted bodies all executed
  std::string detail;           ///< failure description (empty when ok)

  [[nodiscard]] bool ok() const { return detail.empty(); }
};

/// Drive one plan through a fixed cross-stream launch DAG on a raw device.
FaultOutcome run_fault_plan(const FuzzConfig& cfg, const FaultPlan& plan);

/// Randomized fault plans (throw-only, stall-only, and mixed) derived from
/// `base_seed`.
struct FaultSweepReport {
  std::size_t plans = 0;
  std::size_t with_throws = 0;
  std::size_t with_stalls = 0;
  std::vector<std::string> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

FaultSweepReport sweep_faults(const FuzzConfig& cfg, std::uint64_t base_seed,
                              std::size_t count);

// --- Sharded pipeline sweeps ----------------------------------------------

/// Outcome of one sharded run against the plain unsharded Simulation
/// reference.
struct ShardRunOutcome {
  int shards = 1;
  std::string leg;
  bool bit_identical = false;
};

/// Run the fuzz workload through a sharded Simulation. The seed is the full
/// replay token: shard count K in {1, 2, 4} from (seed >> 3) % 3 and the
/// SIMD substrate from (seed >> 5) & 1 (bits 0-2 are unused). Compares
/// bit-for-bit against `reference` (from run_controlled(cfg, nullptr) —
/// the unsharded run).
ShardRunOutcome run_sharded(const FuzzConfig& cfg, std::uint64_t seed,
                            const std::vector<real>& reference);

/// N independent run_sharded runs; failures are reproducible from the
/// failing seed alone.
SweepReport sweep_shard_seeds(const FuzzConfig& cfg, std::uint64_t base_seed,
                              std::size_t count);

// --- Scenario-registry sweeps ---------------------------------------------

/// A scenario's SimConfig with the fuzz determinism constraints re-pinned
/// on top (shared steps, fixed dt and rebuild cadence): the scenario picks
/// the force law and accuracy, the fuzzer keeps the launch DAG identical
/// across runs so the seed's configuration is the only degree of freedom.
nbody::SimConfig scenario_fuzz_config(const scenario::Scenario& sc,
                                      int rebuild_interval);

/// Unsharded reference state of a scenario's fuzz workload
/// (sc.make(cfg.n, cfg.workload_seed), cfg.steps steps).
std::vector<real> scenario_reference(const FuzzConfig& cfg,
                                     const scenario::Scenario& sc);

/// Outcome of one scenario-parameterized run.
struct ScenarioRunOutcome {
  std::string scenario; ///< registry entry the seed selected
  int shards = 1;
  std::string leg;
  bool bit_identical = false;
};

/// One scenario leg: the seed is the full replay token — the *scenario*
/// comes from scenario::scenario_from_seed(seed) (hashed, so consecutive
/// seeds land on different registry entries) and the shard-count/SIMD
/// bits follow run_sharded's encoding. Compares the
/// final state bit-for-bit against `reference` (scenario_reference of the
/// same scenario); a printed seed therefore reproduces workload (ICs +
/// force law) and configuration together.
ScenarioRunOutcome run_scenario(const FuzzConfig& cfg, std::uint64_t seed,
                                const std::vector<real>& reference);

/// Replay one scenario seed, computing its own reference (the repro entry
/// point of gothic_fuzz --replay-scenario).
ScenarioRunOutcome replay_scenario_seed(const FuzzConfig& cfg,
                                        std::uint64_t seed);

/// N independent run_scenario runs; references are computed once per
/// distinct scenario hit by the seed range.
SweepReport sweep_scenario_seeds(const FuzzConfig& cfg,
                                 std::uint64_t base_seed, std::size_t count);

/// Outcome of one fault plan injected into one shard of a sharded step.
struct ShardFaultOutcome {
  int shards = 0;
  int target_shard = 0;
  int injected_throws = 0;
  bool error_thrown = false;     ///< step() raised an InjectedFault
  bool devices_reusable = false; ///< every shard device ran post-fault work
  std::string detail;            ///< failure description (empty when ok)

  [[nodiscard]] bool ok() const { return detail.empty(); }
};

/// Build a sharded simulation (K in {2, 3, 4} from the seed), inject a
/// launch-body throw into one shard's device mid-step, and assert the
/// isolation contract: step() surfaces the injected fault exactly when it
/// fired, and *every* shard device — including the faulted one — accepts
/// and completes new work afterwards (one shard's failure must not poison
/// the others).
ShardFaultOutcome run_shard_fault(const FuzzConfig& cfg, std::uint64_t seed);

FaultSweepReport sweep_shard_faults(const FuzzConfig& cfg,
                                    std::uint64_t base_seed,
                                    std::size_t count);

} // namespace gothic::testkit
