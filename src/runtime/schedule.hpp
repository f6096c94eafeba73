// Fault-injection seam of the launch engine.
//
// A ScheduleController installed on a Device sees every launch just before
// its body runs, on the issuing thread (which runs the body). The
// testkit's FaultController uses the hook to throw from a chosen launch or
// stall it, exercising the launch error contract and device reuse.
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

  /// Fault-injection point: runs on the issuing thread immediately before
  /// the launch body, outside the device lock. May throw (the exception is
  /// handled exactly like a body exception: it propagates out of that
  /// launch() once its record is complete) or block (a simulated stall).
  virtual void before_body(std::uint64_t id) { (void)id; }
};

} // namespace gothic::runtime
