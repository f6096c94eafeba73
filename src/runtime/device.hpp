// runtime::Device — the unified kernel-launch layer.
//
// GOTHIC's host code does three things for every device kernel: place it on
// a stream behind its dependencies, give it persistent scratch sized at
// start-up, and measure it (the paper's per-function breakdown, Figs 3-5).
// Device bundles exactly those three services for the simulated kernels:
//
//  * a persistent worker pool (replacing per-call OpenMP fork/join) whose
//    size is GOTHIC_THREADS-overridable, with one cache-line-padded Worker
//    per thread carrying a scratch Arena that retains its high-water
//    capacity across launches;
//  * Stream/Event bookkeeping: every launch runs to completion on the
//    issuing thread plus the whole worker pool — a lone kernel owns every
//    worker, as it owns every SM on the GPU — so launches of one device
//    run in issue order, which satisfies every dependency. Streams and
//    events are the recorded dependency DAG: events are validated at
//    issue and recorded per launch (the trace's flow arrows). Overlap
//    comes from separate devices driven by separate host threads (the
//    shards' host team in nbody::Simulation, the session pool's drivers),
//    not from streams of one device;
//  * per-launch instrumentation: every launch emits a LaunchRecord (with
//    begin/end timestamps, so the sink can report achieved overlap) into
//    an InstrumentationSink.
//
// Kernels obtain the device with Device::current(): the thread-local
// override installed by ScopedDevice (tests pin worker counts this way) or
// else the process-wide shared() device. A launch body runs with its
// device installed as current(), so kernels always resolve the device
// that launched them, whichever thread issued the launch.
#pragma once

#include "runtime/arena.hpp"
#include "runtime/schedule.hpp"
#include "runtime/stream.hpp"
#include "simt/op_counter.hpp"
#include "util/timer.hpp"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

namespace gothic::runtime {

/// Per-thread execution context handed to range bodies: a stable worker
/// index within the device pool and the worker's scratch arena. Padded to
/// a cache line so neighbouring workers never false-share.
struct alignas(64) Worker {
  int id = 0;
  Arena arena;
  /// Cumulative nanoseconds this worker spent executing collective bodies
  /// (written by the worker's own thread around each job; relaxed atomic so
  /// introspection may sample it concurrently). The max/mean spread across
  /// workers is the load-imbalance signal trace::MetricsRegistry reports.
  std::atomic<std::uint64_t> busy_ns{0};

  [[nodiscard]] double busy_seconds() const {
    return static_cast<double>(busy_ns.load(std::memory_order_relaxed)) * 1e-9;
  }
};

class Device;

/// RAII device override for the calling thread: kernels reached from this
/// scope run on `device` instead of Device::shared(). Used by tests to
/// compare 1-worker and N-worker execution of the same kernel, and by
/// Device::launch() to run its body on the launching device.
class ScopedDevice {
public:
  explicit ScopedDevice(Device& device);
  ~ScopedDevice();
  ScopedDevice(const ScopedDevice&) = delete;
  ScopedDevice& operator=(const ScopedDevice&) = delete;

private:
  Device* previous_;
};

class Device {
public:
  /// `workers` <= 0 selects the default: GOTHIC_THREADS when set, else the
  /// OpenMP thread count / hardware concurrency.
  explicit Device(int workers = 0);
  ~Device();
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// The process-wide device (created on first use).
  static Device& shared();
  /// The device kernels should run on: the innermost ScopedDevice override
  /// on this thread (inside a launch body, the launching device), or
  /// shared().
  static Device& current();

  /// Workers of the pool every collective forks onto.
  [[nodiscard]] int workers() const { return static_cast<int>(slots_.size()); }

  /// The `i`-th pool worker. Serial access only — never while a collective
  /// is in flight.
  [[nodiscard]] Worker& context_worker(int i) {
    return *slots_[static_cast<std::size_t>(i)];
  }

  /// The worker-count default the constructor would resolve for
  /// `workers <= 0` (GOTHIC_THREADS-aware); exposed for bench metadata.
  static int default_workers();
  /// Always false: every launch runs synchronously. Kept only because the
  /// benchmark harness prints it; drop it with that reference.
  static bool default_async() { return false; }

  // --- collectives --------------------------------------------------------
  // All collectives run on the calling thread (worker 0) plus the pool's
  // remaining workers and return only when every worker finished.
  // Collectives from different host threads take turns on the one pool.
  // Exceptions thrown by bodies are recorded first-wins and exactly one is
  // rethrown on the caller; the pool stays reusable. Bodies must not
  // re-enter the device.

  /// Invoke `fn(Worker&)` once per pool worker.
  template <typename Fn>
  void for_workers(Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    dispatch(+[](void* ctx, Worker& w) { (*static_cast<F*>(ctx))(w); }, &fn);
  }

  /// Invoke `fn(Worker&, lo, hi)` on each worker's contiguous chunk of
  /// [begin, end) — the static schedule the OpenMP loops used. The chunk
  /// map is fixed for the whole launch (the worker count never changes), so
  /// any per-chunk-stable algorithm sees one consistent partition.
  template <typename Fn>
  void parallel_ranges(std::size_t begin, std::size_t end, Fn&& fn) {
    if (end <= begin) return;
    const std::size_t chunk = chunk_size(begin, end);
    for_workers([&](Worker& w) {
      const std::size_t lo = begin + static_cast<std::size_t>(w.id) * chunk;
      const std::size_t hi = std::min(end, lo + chunk);
      if (lo < hi) fn(w, lo, hi);
    });
  }

  /// Plain parallel loop: `fn(i)` for i in [begin, end).
  template <typename Fn>
  void parallel_for(std::size_t begin, std::size_t end, Fn&& fn) {
    parallel_ranges(begin, end,
                    [&fn](Worker&, std::size_t lo, std::size_t hi) {
                      for (std::size_t i = lo; i < hi; ++i) fn(i);
                    });
  }

  /// Hard ceiling on the worker count of any device (the constructor
  /// clamps above it). Lets schedule computations use fixed-size stack
  /// scratch instead of allocating per call.
  static constexpr int kMaxWorkers = 256;

  /// Dynamic schedule: workers repeatedly claim contiguous chunks of
  /// `chunk` items (0 = dynamic_chunk_size()) from a shared atomic cursor
  /// until [begin, end) is exhausted, so a worker that draws cheap items
  /// keeps pulling while an expensive chunk pins its neighbour. `fn` runs
  /// once per claimed chunk as fn(Worker&, lo, hi); all invocations handed
  /// to one worker are sequential on that worker's thread, so per-worker
  /// state initialised on the first call stays valid. Which worker runs
  /// which chunk is nondeterministic — callers needing bit-stable results
  /// must make fn's effect independent of the assignment (disjoint output
  /// slots, commutative tallies), exactly the walk_tree contract.
  /// Allocation-free; the cursor lives on the caller's stack.
  template <typename Fn>
  void parallel_dynamic(std::size_t begin, std::size_t end, std::size_t chunk,
                        Fn&& fn) {
    if (end <= begin) return;
    if (chunk == 0) chunk = dynamic_chunk_size(begin, end);
    std::atomic<std::size_t> cursor{begin};
    for_workers([&](Worker& w) {
      for (;;) {
        const std::size_t lo = cursor.fetch_add(chunk,
                                                std::memory_order_relaxed);
        if (lo >= end) return;
        fn(w, lo, std::min(end, lo + chunk));
      }
    });
  }

  /// Chunk length parallel_dynamic defaults to: ~8 claims per worker, so
  /// the queue can rebalance without the cursor becoming a hot spot.
  [[nodiscard]] std::size_t dynamic_chunk_size(std::size_t begin,
                                               std::size_t end) const {
    const std::size_t n = end - begin;
    const auto nw = static_cast<std::size_t>(workers());
    return std::max<std::size_t>(1, n / (nw * 8));
  }

  /// The contiguous chunk length parallel_ranges assigns per worker.
  [[nodiscard]] std::size_t chunk_size(std::size_t begin,
                                       std::size_t end) const {
    const std::size_t n = end - begin;
    const auto nw = static_cast<std::size_t>(workers());
    return (n + nw - 1) / nw;
  }

  // --- launch layer -------------------------------------------------------

  /// Launch one kernel: `fn(ops)` runs once, to completion, on the calling
  /// thread plus the full pool, with this device installed as current();
  /// it accumulates the kernel's operation tallies, and one LaunchRecord
  /// is emitted with the measured wall time and begin/end timestamps.
  /// Returns the launch's event — already complete, a node of the
  /// recorded dependency DAG.
  ///
  /// A body exception propagates out of launch() itself, after the record
  /// is completed, so the device stays consistent and reusable. A body
  /// must not issue launches of its own.
  template <typename Fn>
  Event launch(const LaunchDesc& desc, Fn&& fn) {
    const IssuedLaunch issued = issue_launch(desc);
    const ScopedDevice scope(*this);
    simt::OpCounts ops;
    const double t0 = now();
    try {
      if (issued.controller != nullptr) {
        issued.controller->before_body(issued.record.id);
      }
      fn(ops);
    } catch (...) {
      finish_launch(issued, t0, now(), ops);
      throw;
    }
    finish_launch(issued, t0, now(), ops);
    return Event{issued.record.id, this};
  }

  /// Default destination of LaunchRecords when LaunchDesc::sink is null.
  [[nodiscard]] InstrumentationSink& sink() { return sink_; }

  // --- fault-injection seam (testkit) -------------------------------------

  /// Install (or remove, with nullptr) a schedule controller. Only while
  /// the device is idle (no launch body running on any thread) — throws
  /// std::logic_error otherwise. The controller must outlive its
  /// installation. See runtime/schedule.hpp.
  void set_schedule_controller(ScheduleController* c);
  [[nodiscard]] ScheduleController* schedule_controller() const;

  /// Always 0: a device has no launch queue. Kept only because the
  /// benchmark harness prints it; drop it with that reference.
  [[nodiscard]] int lane_count() const { return 0; }

  // --- introspection (runtime tests) --------------------------------------

  /// Sum of heap allocations performed by all worker arenas — stable after
  /// warm-up when steady-state launches reuse retained capacity.
  [[nodiscard]] std::uint64_t arena_heap_allocations() const;
  /// Total bytes retained by all worker arenas.
  [[nodiscard]] std::size_t arena_capacity() const;
  /// Launches issued so far.
  [[nodiscard]] std::uint64_t launch_count() const;

  // Worker busy-time gauges (relaxed samples of the per-worker counters,
  // safe to read while collectives run). The spread
  // between the busiest worker and the mean is the device-lifetime load
  // imbalance trace::MetricsRegistry turns into a ratio.
  /// Busiest single worker's cumulative collective-body seconds.
  [[nodiscard]] double worker_busy_seconds_max() const;
  /// Sum of collective-body seconds across every worker slot.
  [[nodiscard]] double worker_busy_seconds_total() const;
  /// Workers that have recorded any collective-body busy time so far.
  [[nodiscard]] int busy_worker_count() const;

private:
  using JobFn = void (*)(void*, Worker&);

  class Team;

  /// Issue-time half of a launch: id assigned, deps validated and
  /// recorded, controller captured.
  struct IssuedLaunch {
    LaunchRecord record;
    InstrumentationSink* sink = nullptr;
    ScheduleController* controller = nullptr;
  };

  void dispatch(JobFn fn, void* ctx);
  [[nodiscard]] double now() const { return epoch_.seconds(); }

  IssuedLaunch issue_launch(const LaunchDesc& desc);
  void finish_launch(const IssuedLaunch& issued, double t_begin, double t_end,
                     const simt::OpCounts& ops);

  std::vector<std::unique_ptr<Worker>> slots_;
  std::unique_ptr<Team> pool_;   ///< the one fork/join team of the device
  Stopwatch epoch_;              ///< timestamp origin of every LaunchRecord

  // Launch bookkeeping (ids, sinks, controller) — one lock; the
  // per-collective fork/join hot path uses the team's own locks.
  mutable std::mutex mutex_;
  std::uint64_t next_launch_ = 1;
  /// Launches between issue and finish — bodies running on some thread.
  /// set_schedule_controller() requires 0.
  int running_ = 0;
  /// Fault-injection seam (runtime/schedule.hpp); captured per launch at
  /// issue.
  ScheduleController* controller_ = nullptr;

  InstrumentationSink sink_;
};

} // namespace gothic::runtime
