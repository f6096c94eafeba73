#include "testkit/fault.hpp"

#include <algorithm>
#include <thread>

namespace gothic::testkit {

void FaultController::before_body(std::uint64_t id) {
  if (std::find(plan_.stall_at.begin(), plan_.stall_at.end(), id) !=
      plan_.stall_at.end()) {
    stalls_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(plan_.stall_for);
  }
  if (std::find(plan_.throw_at.begin(), plan_.throw_at.end(), id) !=
      plan_.throw_at.end()) {
    throws_.fetch_add(1, std::memory_order_relaxed);
    throw InjectedFault(id);
  }
}

bool ArenaFaultGuard::hook(void* ctx, std::size_t bytes) {
  (void)bytes;
  auto* guard = static_cast<ArenaFaultGuard*>(ctx);
  const std::uint64_t index =
      guard->seen_.fetch_add(1, std::memory_order_relaxed);
  if (index == guard->fail_index_) {
    guard->fired_.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

} // namespace gothic::testkit
