// The session layer (DESIGN.md, "Session layer & multi-tenancy"):
// SessionManager multiplexing independent sessions onto a shared device
// pool. Asserted here: terminal-state bookkeeping, the solo bit-identity
// oracle across pool shapes (pooling changes *when* quanta run, never
// what they compute), arena-quota reject-on-exceed with unaffected
// siblings, the scheduler's starvation bound as a hard invariant, and the
// fault-isolation contract under seeded mixed-fault stress (the
// gothic_fuzz service leg driven deterministically). The whole binary is
// run under TSan by tools/check.sh.
#include "service/fuzz.hpp"
#include "service/session_manager.hpp"

#include "scenario/registry.hpp"
#include "testkit/fault.hpp"
#include "trace/metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace gothic {
namespace {

using service::PoolOptions;
using service::ServiceStats;
using service::SessionConfig;
using service::SessionInfo;
using service::SessionManager;
using service::SessionState;

/// A small registry-cycled batch with consecutive seeds. At the default
/// size the auto-tuner rebuilds the m31 and plummer sessions (seeds 11,
/// 12) on step 5, so rebuilds happen inside the batch.
std::vector<SessionConfig> small_batch(int sessions, std::size_t n = 384,
                                       int steps = 5) {
  const auto& registry = scenario::registry();
  std::vector<SessionConfig> batch;
  for (int i = 0; i < sessions; ++i) {
    SessionConfig sc;
    sc.name = "t" + std::to_string(i);
    sc.scenario = registry[static_cast<std::size_t>(i) % registry.size()];
    sc.n = n;
    sc.seed = 11 + static_cast<std::uint64_t>(i);
    sc.steps = steps;
    batch.push_back(sc);
  }
  return batch;
}

TEST(SessionManager, RunsABatchToCompletionWithBookkeeping) {
  const auto batch = small_batch(3);
  PoolOptions pool;
  pool.workers = 2;
  SessionManager mgr(pool);
  std::vector<std::uint64_t> ids;
  for (const SessionConfig& sc : batch) ids.push_back(mgr.submit(sc));
  mgr.wait_all();

  int rebuilds = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const SessionInfo info = mgr.info(ids[i]);
    rebuilds += info.rebuilds;
    EXPECT_EQ(info.state, SessionState::Completed) << info.error;
    EXPECT_EQ(info.name, batch[i].name);
    EXPECT_EQ(info.scenario, batch[i].scenario.name);
    EXPECT_EQ(info.steps_done, batch[i].steps);
    EXPECT_GT(info.picks, 0u);       // construction + steps are quanta
    EXPECT_GE(info.last_device, 0);  // it ran somewhere
    EXPECT_GT(info.busy_seconds, 0.0);
    EXPECT_TRUE(info.error.empty());
  }
  const ServiceStats st = mgr.stats();
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.completed, 3u);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.active, 0u);
  EXPECT_EQ(st.steps_total, 15u);
  EXPECT_GT(rebuilds, 0) << "no session rebuilt after construction";
  EXPECT_GT(st.decisions, 0u);
}

TEST(SessionManager, PooledSessionsAreBitIdenticalToSoloRuns) {
  // The oracle across pool shapes: any device count, same bits.
  const auto batch = small_batch(4);
  std::vector<std::vector<real>> reference;
  for (const SessionConfig& sc : batch) {
    reference.push_back(service::solo_final_state(sc));
  }
  for (const int devices : {1, 2}) {
    PoolOptions pool;
    pool.devices = devices;
    pool.workers = 2;
    SessionManager mgr(pool);
    std::vector<std::uint64_t> ids;
    for (const SessionConfig& sc : batch) ids.push_back(mgr.submit(sc));
    mgr.wait_all();
    int rebuilds = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ASSERT_EQ(mgr.wait(ids[i]), SessionState::Completed);
      EXPECT_EQ(mgr.final_state(ids[i]), reference[i])
          << batch[i].name << " diverged on a " << devices << "-device pool";
      rebuilds += mgr.info(ids[i]).rebuilds;
    }
    // The auto-tuned cadence is part of what the oracle compares.
    EXPECT_GT(rebuilds, 0);
  }
}

TEST(SessionManager, ShardedSessionMatchesItsSoloRun) {
  SessionConfig sc;
  sc.name = "sharded";
  sc.scenario = scenario::find_scenario("plummer");
  sc.n = 384;
  sc.seed = 11; // the auto-tuner rebuilds this realisation on step 5
  sc.steps = 5;
  sc.shards = 2;
  const std::vector<real> reference = service::solo_final_state(sc);

  PoolOptions pool;
  pool.workers = 2;
  SessionManager mgr(pool);
  const std::uint64_t id = mgr.submit(sc);
  EXPECT_EQ(mgr.wait(id), SessionState::Completed) << mgr.info(id).error;
  EXPECT_EQ(mgr.final_state(id), reference);
  EXPECT_GT(mgr.info(id).rebuilds, 0);
}

TEST(SessionManager, QuotaRejectsTheRunawaySessionOnly) {
  auto batch = small_batch(2, /*n=*/256);
  // One byte of arena headroom: the first quantum's capacity growth must
  // trip the quota. The sibling runs unlimited and must be untouched.
  batch[0].arena_quota_bytes = 1;
  const std::vector<real> sibling_reference =
      service::solo_final_state(batch[1]);

  PoolOptions pool;
  pool.workers = 2;
  SessionManager mgr(pool);
  const std::uint64_t capped = mgr.submit(batch[0]);
  const std::uint64_t sibling = mgr.submit(batch[1]);
  mgr.wait_all();

  const SessionInfo failed = mgr.info(capped);
  EXPECT_EQ(failed.state, SessionState::Failed);
  EXPECT_NE(failed.error.find("arena quota exceeded"), std::string::npos)
      << failed.error;
  EXPECT_GT(failed.charged_bytes, failed.quota_bytes);

  EXPECT_EQ(mgr.info(sibling).state, SessionState::Completed)
      << mgr.info(sibling).error;
  EXPECT_EQ(mgr.final_state(sibling), sibling_reference);

  const ServiceStats st = mgr.stats();
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.completed, 1u);
}

TEST(SessionManager, StarvationBoundHoldsUnderLoad) {
  // More sessions than drivers: passed-over streaks are real, and the
  // aging force-pick must cap every one of them.
  const auto batch = small_batch(8, /*n=*/96, /*steps=*/4);
  PoolOptions pool;
  pool.devices = 2;
  pool.workers = 2;
  SessionManager mgr(pool);
  for (const SessionConfig& sc : batch) (void)mgr.submit(sc);
  mgr.wait_all();

  const ServiceStats st = mgr.stats();
  EXPECT_EQ(st.completed, 8u);
  EXPECT_GT(st.starvation_bound_max, 0u);
  // The hard invariant (header contract): a session can additionally be
  // passed over once per late submit, hence the + submitted slack.
  EXPECT_LE(st.wait_max, st.starvation_bound_max + st.submitted);
  for (const SessionInfo& info : mgr.sessions()) {
    EXPECT_LE(info.wait_max, st.starvation_bound_max + st.submitted)
        << info.name;
  }
}

TEST(SessionManager, FinalStateOfAnUnconstructedSessionThrows) {
  const auto batch = small_batch(1);
  SessionManager mgr;
  // Fail the very first arena grow (pool already built, nothing
  // submitted): construction itself dies, so the session goes terminal
  // without ever owning an engine.
  testkit::ArenaFaultGuard guard(0);
  const std::uint64_t id = mgr.submit(batch[0]);
  mgr.wait_all();
  ASSERT_EQ(mgr.info(id).state, SessionState::Failed);
  EXPECT_FALSE(mgr.info(id).error.empty());
  EXPECT_THROW((void)mgr.final_state(id), std::logic_error);
  EXPECT_THROW((void)mgr.info(999), std::out_of_range);
}

TEST(SessionManager, ObserveFoldsServiceGaugesIntoTheRegistry) {
  const auto batch = small_batch(2);
  SessionManager mgr;
  for (const SessionConfig& sc : batch) (void)mgr.submit(sc);
  mgr.wait_all();

  trace::MetricsRegistry reg;
  mgr.observe(reg); // pool idle after wait_all()
  EXPECT_EQ(reg.service_samples(), 1u);
  EXPECT_EQ(reg.service().sessions_completed, 2u);
  EXPECT_EQ(reg.service().sessions_failed, 0u);
  EXPECT_EQ(reg.service().sessions_active, 0u);
  EXPECT_GT(reg.service().session_busy_seconds_total, 0.0);
}

// --- concurrent-session fault stress ----------------------------------------
//
// The gothic_fuzz service leg run deterministically: >= 8 sessions of
// mixed registry scenarios on a seeded pool, one fault family injected
// (launch throws / launch stalls / arena OOM), isolation + bit-identity
// asserted by run_service_fault itself. Seeds cover all three families
// (kind = mix(seed) >> 4 mod 3).

service::ServiceFuzzConfig stress_config() {
  service::ServiceFuzzConfig cfg;
  cfg.n = 384;
  cfg.steps = 5;
  cfg.min_sessions = 8;
  cfg.max_sessions = 10;
  return cfg;
}

TEST(ServiceStress, MixedFaultPlansKeepSessionsIsolated) {
  const auto rep = service::sweep_service_faults(stress_config(), 0x5e55, 4);
  EXPECT_EQ(rep.runs, 4u);
  EXPECT_GT(rep.rebuilds, 0) << "no surviving session rebuilt";
  for (const std::string& f : rep.failures) ADD_FAILURE() << f;
  // Fault or no fault, most of the batch must come out the far side.
  EXPECT_GT(rep.completed_sessions, rep.faulted_sessions);
}

TEST(ServiceStress, EveryFaultFamilyHoldsTheContract) {
  // Probe seeds until each family (throw / stall / arena-oom) has run at
  // least once, so a green build really covered all three.
  bool saw_throw = false, saw_stall = false, saw_oom = false;
  for (std::uint64_t seed = 1; !(saw_throw && saw_stall && saw_oom);
       ++seed) {
    ASSERT_LT(seed, 32u) << "seed probing should cover all families fast";
    const auto out = service::run_service_fault(stress_config(), seed);
    EXPECT_TRUE(out.ok()) << out.detail;
    const std::string kind = out.kind;
    saw_throw = saw_throw || kind == "throw";
    saw_stall = saw_stall || kind == "stall";
    saw_oom = saw_oom || kind == "arena-oom";
  }
}

} // namespace
} // namespace gothic
