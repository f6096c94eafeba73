// Fault-injection seam of the launch engine.
//
// A ScheduleController installed on a Device sees every launch just before
// its body runs, on the thread that runs it — the async leader or, under
// GOTHIC_ASYNC=0, the issuing thread. The testkit's FaultController uses
// the hook to throw from a chosen launch or stall it, exercising the
// first-wins error contract and device reuse.
//
// A device with no controller installed pays one branch per launch and
// allocates nothing (asserted by test_testkit's zero-overhead test).
#pragma once

#include <cstdint>

namespace gothic::runtime {

/// Test-harness hook into the launch engine. Installed with
/// Device::set_schedule_controller() while the device is idle; must outlive
/// its installation.
class ScheduleController {
public:
  virtual ~ScheduleController() = default;

  /// Fault-injection point: runs on the executing thread immediately
  /// before the launch body, outside the device lock. May throw (the
  /// exception is handled exactly like a body exception: first-wins,
  /// surfaced by synchronize() or, on the synchronous path, by launch())
  /// or block (a simulated worker stall).
  virtual void before_body(std::uint64_t id) { (void)id; }
};

} // namespace gothic::runtime
