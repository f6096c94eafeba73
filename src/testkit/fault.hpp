// Fault injection for the launch engine.
//
// A FaultPlan names launches (by issue id) at which to inject a body
// exception or a bounded stall; FaultController delivers them through the
// runtime::ScheduleController::before_body() hook on the issuing thread,
// so a stall holds back that thread (and, in a sharded step, the phase
// its siblings join at) while the other host threads run on, and TSan
// sees genuine concurrency.
//
// Arena exhaustion is driven separately through the Arena grow hook:
// ArenaFaultGuard fails the k-th chunk acquisition (process-wide, counted
// across all arenas) for the duration of its scope, turning the chosen
// grow into std::bad_alloc on whatever thread performs it.
//
// The error contracts under test: every injected throw propagates exactly
// once, out of the launch() it hit (and so out of the step() that issued
// it), that launch's record is complete, and the Device stays fully usable
// afterwards.
#pragma once

#include "runtime/arena.hpp"
#include "runtime/schedule.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace gothic::testkit {

/// The exception a launch-body fault raises; carries the launch it hit.
class InjectedFault : public std::runtime_error {
public:
  explicit InjectedFault(std::uint64_t launch_id)
      : std::runtime_error("injected fault at launch " +
                           std::to_string(launch_id)),
        launch_id_(launch_id) {}
  [[nodiscard]] std::uint64_t launch_id() const { return launch_id_; }

private:
  std::uint64_t launch_id_;
};

/// Which launches to hit, by issue id (1-based, device issue order).
struct FaultPlan {
  std::vector<std::uint64_t> throw_at; ///< body raises InjectedFault
  std::vector<std::uint64_t> stall_at; ///< body start delayed by `stall_for`
  std::chrono::microseconds stall_for{500};
};

/// Delivers a FaultPlan. The hook fires on whichever thread runs the
/// launch while other threads may read the counters, so all mutable state
/// is atomic.
class FaultController final : public runtime::ScheduleController {
public:
  explicit FaultController(FaultPlan plan) : plan_(std::move(plan)) {}

  void before_body(std::uint64_t id) override;

  [[nodiscard]] int injected_throws() const {
    return throws_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] int injected_stalls() const {
    return stalls_.load(std::memory_order_relaxed);
  }

private:
  const FaultPlan plan_;
  std::atomic<int> throws_{0};
  std::atomic<int> stalls_{0};
};

/// RAII arena-exhaustion fault: while alive, the `fail_index`-th arena
/// chunk acquisition (0-based, counted process-wide across every arena)
/// fails with std::bad_alloc. Steady-state code never grows, so the index
/// counts only genuine capacity faults.
class ArenaFaultGuard {
public:
  explicit ArenaFaultGuard(std::uint64_t fail_index)
      : fail_index_(fail_index) {
    runtime::Arena::set_grow_hook(&ArenaFaultGuard::hook, this);
  }
  ~ArenaFaultGuard() { runtime::Arena::set_grow_hook(nullptr, nullptr); }
  ArenaFaultGuard(const ArenaFaultGuard&) = delete;
  ArenaFaultGuard& operator=(const ArenaFaultGuard&) = delete;

  /// Grow attempts observed while installed.
  [[nodiscard]] std::uint64_t grows_seen() const {
    return seen_.load(std::memory_order_relaxed);
  }
  /// True once the chosen grow was failed.
  [[nodiscard]] bool fired() const {
    return fired_.load(std::memory_order_relaxed);
  }

private:
  static bool hook(void* ctx, std::size_t bytes);

  const std::uint64_t fail_index_;
  std::atomic<std::uint64_t> seen_{0};
  std::atomic<bool> fired_{false};
};

} // namespace gothic::testkit
