// The testkit itself: the seeded fuzz driver over Simulation::step
// (bit-identity against the reference run, deterministic replay), fault
// injection (launch-body exceptions, launch stalls, arena exhaustion)
// with the launch error contract and device reuse, torn-record
// protection for instrumentation listeners, and the zero-overhead
// guarantee when no schedule controller is installed.
#include "testkit/fault.hpp"
#include "testkit/fuzz.hpp"

#include "runtime/arena.hpp"
#include "runtime/device.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <new>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

// --- global allocation counter (for the zero-overhead-when-off test) ------

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gothic::testkit {
namespace {

using runtime::Device;
using runtime::Event;
using runtime::LaunchDesc;
using runtime::Stream;

/// Issue one tagged launch whose body appends its tag to `order`.
Event issue_tagged(Device& dev, Stream& s, const char* label, int tag,
                   std::vector<int>& order, std::mutex& mu,
                   Event dep = Event{}) {
  LaunchDesc desc;
  desc.label = label;
  desc.items = 1;
  desc.stream = &s;
  desc.deps = {dep, Event{}, Event{}, Event{}};
  return dev.launch(desc, [&order, &mu, tag](simt::OpCounts&) {
    const std::lock_guard<std::mutex> lock(mu);
    order.push_back(tag);
  });
}

// --- seeded fuzzing over Simulation::step --------------------------------

TEST(ScheduleFuzz, SeededSweepIsCleanAndSeedsReplayDeterministically) {
  FuzzConfig cfg;
  cfg.steps = 6;
  const SweepReport rep = sweep_seeds(cfg, 0x5eed, 24);
  EXPECT_EQ(rep.runs, 24u);
  EXPECT_TRUE(rep.failing_seeds.empty());
  EXPECT_GT(rep.legs.size(), 1u);
  EXPECT_TRUE(rep.ok()) << rep.failures.front();

  const std::vector<real> ref = run_controlled(cfg, nullptr);
  const RunOutcome once = replay_seed(cfg, 0x5eed, ref);
  const RunOutcome twice = replay_seed(cfg, 0x5eed, ref);
  EXPECT_EQ(once.leg, twice.leg);
  EXPECT_EQ(once.state, twice.state);
  EXPECT_TRUE(once.bit_identical);
}

// --- fault injection ------------------------------------------------------

TEST(FaultInjection, LaunchBodyExceptionPropagatesOnceAndDeviceRecovers) {
  FaultPlan plan;
  plan.throw_at = {3};
  const FaultOutcome out = run_fault_plan(FuzzConfig{}, plan);
  EXPECT_EQ(out.injected_throws, 1);
  EXPECT_TRUE(out.error_thrown);
  EXPECT_TRUE(out.single_error);
  EXPECT_TRUE(out.record_complete);
  EXPECT_TRUE(out.device_reusable);
  EXPECT_TRUE(out.bodies_consistent);
  EXPECT_TRUE(out.ok()) << out.detail;
}

TEST(FaultInjection, TwoInjectedThrowsPropagateExactlyOneError) {
  // Each injected throw propagates exactly once, out of the launch it hit;
  // the launches between and after the two faults still run.
  FaultPlan plan;
  plan.throw_at = {2, 5};
  const FaultOutcome out = run_fault_plan(FuzzConfig{}, plan);
  EXPECT_EQ(out.injected_throws, 2);
  EXPECT_TRUE(out.error_thrown);
  EXPECT_TRUE(out.single_error);
  EXPECT_TRUE(out.record_complete);
  EXPECT_TRUE(out.bodies_consistent);
  EXPECT_TRUE(out.ok()) << out.detail;
}

TEST(FaultInjection, WorkerStallsDelayButNeverCorrupt) {
  FaultPlan plan;
  plan.stall_at = {1, 6};
  plan.stall_for = std::chrono::microseconds(2000);
  const FaultOutcome out = run_fault_plan(FuzzConfig{}, plan);
  EXPECT_EQ(out.injected_stalls, 2);
  EXPECT_FALSE(out.error_thrown);
  EXPECT_TRUE(out.bodies_consistent);
  EXPECT_TRUE(out.ok()) << out.detail;
}

TEST(FaultInjection, MixedThrowAndStallPlanUpholdsTheContract) {
  FaultPlan plan;
  plan.throw_at = {4};
  plan.stall_at = {2};
  const FaultOutcome out = run_fault_plan(FuzzConfig{}, plan);
  EXPECT_TRUE(out.error_thrown);
  EXPECT_TRUE(out.device_reusable);
  EXPECT_TRUE(out.ok()) << out.detail;
}

TEST(FaultInjection, StalledSimulationStepsStayBitIdentical) {
  // Stalls must only cost time: the step results remain bit-identical to
  // the reference run.
  FuzzConfig cfg;
  cfg.steps = 4;
  const std::vector<real> ref = run_controlled(cfg, nullptr);
  FaultPlan plan;
  plan.stall_at = {3, 7, 12};
  plan.stall_for = std::chrono::microseconds(1500);
  FaultController ctrl(plan);
  const std::vector<real> state = run_controlled(cfg, &ctrl);
  EXPECT_EQ(ctrl.injected_stalls(), 3);
  EXPECT_EQ(state, ref);
}

TEST(FaultInjection, ArenaExhaustionFailsAllocationAndArenaRecovers) {
  runtime::Arena arena;
  {
    ArenaFaultGuard guard(0);
    EXPECT_THROW((void)arena.allocate(128), std::bad_alloc);
    EXPECT_TRUE(guard.fired());
    EXPECT_EQ(guard.grows_seen(), 1u);
  }
  // Hook uninstalled: the same arena grows normally again.
  void* p = arena.allocate(128);
  EXPECT_NE(p, nullptr);
  EXPECT_EQ(arena.heap_allocations(), 1u);
}

TEST(FaultInjection, ArenaExhaustionInLaunchBodyPropagatesAndDeviceRecovers) {
  Device dev(2);
  Stream a("A");
  LaunchDesc desc;
  desc.label = "arena-fault";
  desc.items = 1;
  desc.stream = &a;
  auto alloc_body = [](simt::OpCounts&) {
    Device::current().for_workers([](runtime::Worker& w) {
      w.arena.reset();
      (void)w.arena.allocate(256);
    });
  };
  {
    ArenaFaultGuard guard(0);
    EXPECT_THROW((void)dev.launch(desc, alloc_body), std::bad_alloc);
    EXPECT_TRUE(guard.fired());
  }
  // The failed grow left no partial chunk: the same launch now succeeds and
  // the device is fully reusable.
  (void)dev.launch(desc, alloc_body);
}

TEST(FaultInjection, ListenersNeverSeeTornRecords) {
  // Every launch — including one whose body throws — must deliver exactly
  // one complete record to an attached listener: valid id, interned names,
  // coherent timestamps.
  class CollectingListener final : public runtime::RecordListener {
  public:
    void on_record(const runtime::LaunchRecord& rec) override {
      if (rec.id == 0 || rec.label == nullptr || rec.stream == nullptr ||
          rec.t_begin < 0.0 || rec.t_end < rec.t_begin || rec.workers <= 0) {
        ++torn;
      }
      ids.push_back(rec.id);
    }
    int torn = 0;
    std::vector<std::uint64_t> ids;
  };

  FaultPlan plan;
  plan.throw_at = {2};
  FaultController ctrl(plan);
  CollectingListener listener;
  Device dev(2);
  dev.sink().set_listener(&listener);
  dev.set_schedule_controller(&ctrl);
  Stream a("A");
  Stream b("B");
  std::mutex mu;
  std::vector<int> order;
  const Event e1 = issue_tagged(dev, a, "a1", 1, order, mu);
  EXPECT_THROW((void)issue_tagged(dev, b, "b1", 2, order, mu), InjectedFault);
  const Event e2 = b.last(); // the faulted launch is still a DAG node
  (void)issue_tagged(dev, a, "a2", 3, order, mu, e2);
  (void)issue_tagged(dev, b, "b2", 4, order, mu, e1);
  dev.set_schedule_controller(nullptr);
  dev.sink().set_listener(nullptr);

  EXPECT_EQ(listener.torn, 0);
  const std::set<std::uint64_t> seen(listener.ids.begin(),
                                     listener.ids.end());
  EXPECT_EQ(seen, (std::set<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(listener.ids.size(), 4u); // exactly once each
}

// --- controller installation ----------------------------------------------

TEST(ScheduleControl, InstallingWhileLaunchesAreInFlightThrows) {
  // A launch body running on another host thread keeps the device busy:
  // installing a controller then would race the hook that launch read.
  Device dev(2);
  Stream a("A");
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  LaunchDesc desc;
  desc.label = "block";
  desc.items = 1;
  desc.stream = &a;
  std::thread issuer([&] {
    (void)dev.launch(desc, [&](simt::OpCounts&) {
      started.store(true, std::memory_order_release);
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  FaultController ctrl(FaultPlan{});
  EXPECT_THROW(dev.set_schedule_controller(&ctrl), std::logic_error);
  release.store(true, std::memory_order_release);
  issuer.join();
  dev.set_schedule_controller(&ctrl); // idle now: accepted
  dev.set_schedule_controller(nullptr);
}

// --- zero overhead when no controller is installed ------------------------

TEST(ScheduleControl, NoControllerSteadyStateLaunchesAreAllocationFree) {
  // The schedule seam must cost nothing when unused: with no controller
  // installed, steady-state launches perform zero heap allocations (same
  // discipline as the trace layer's zero-overhead guarantee).
  Device dev(2);
  ASSERT_EQ(dev.schedule_controller(), nullptr);
  Stream a("A");
  Stream b("B");
  std::atomic<int> n{0};
  auto round = [&] {
    dev.sink().begin_step();
    for (int i = 0; i < 8; ++i) {
      LaunchDesc desc;
      desc.label = "steady";
      desc.items = 1;
      desc.stream = (i & 1) != 0 ? &b : &a;
      (void)dev.launch(desc, [&n](simt::OpCounts&) {
        n.fetch_add(1, std::memory_order_relaxed);
      });
    }
  };
  for (int i = 0; i < 4; ++i) round(); // warm-up: interning
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 8; ++i) round();
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
  EXPECT_EQ(n.load(std::memory_order_relaxed), 12 * 8);
}

} // namespace
} // namespace gothic::testkit
