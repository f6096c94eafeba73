#include "runtime/device.hpp"

#include "util/env.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace gothic::runtime {

namespace {
/// Innermost ScopedDevice override (Device::launch installs its device for
/// the body, so Device::current() inside a body resolves to the launching
/// device).
thread_local Device* tl_current = nullptr;
} // namespace

// ---------------------------------------------------------------------------
// Team: one fork/join group. Member 0 is the calling thread of run(); the
// remaining members are dedicated threads parked on a condition variable.
// A device owns one team over its whole pool, shared by every host thread
// that runs collectives on the device.
// ---------------------------------------------------------------------------

class Device::Team {
public:
  explicit Team(std::vector<Worker*> members) : members_(std::move(members)) {
    threads_.reserve(members_.size() - 1);
    for (std::size_t i = 1; i < members_.size(); ++i) {
      threads_.emplace_back([this, i] { member_loop(*members_[i]); });
    }
  }

  ~Team() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(members_.size()); }
  [[nodiscard]] Worker& member(int i) {
    return *members_[static_cast<std::size_t>(i)];
  }

  /// Run the job on `w`, charging the elapsed wall time to the worker's
  /// busy counter (imbalance observability). The counter also ticks while
  /// a body waits on a fault-injected stall — busy means "occupied", which
  /// is exactly what the imbalance ratio should see.
  static void run_timed(JobFn fn, void* ctx, Worker& w) {
    const Stopwatch clock;
    try {
      fn(ctx, w);
    } catch (...) {
      w.busy_ns.fetch_add(static_cast<std::uint64_t>(clock.seconds() * 1e9),
                          std::memory_order_relaxed);
      throw;
    }
    w.busy_ns.fetch_add(static_cast<std::uint64_t>(clock.seconds() * 1e9),
                        std::memory_order_relaxed);
  }

  /// Run `fn(ctx, worker)` once per member; the caller executes member 0.
  /// All member exceptions land in one first-recorded-wins slot and exactly
  /// that one is rethrown after every member finished, leaving the team
  /// reusable.
  void run(JobFn fn, void* ctx) {
    // One job at a time: several host threads may fork a collective on one
    // device, and the job slot, the generation count and member 0's worker
    // (its arena) belong to one caller for the whole run.
    const std::lock_guard<std::mutex> turn(run_mutex_);
    if (threads_.empty()) {
      run_timed(fn, ctx, *members_.front());
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = fn;
      job_ctx_ = ctx;
      error_ = nullptr;
      unfinished_ = static_cast<int>(threads_.size());
      ++generation_;
    }
    start_cv_.notify_all();
    try {
      run_timed(fn, ctx, *members_.front());
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return unfinished_ == 0; });
    std::exception_ptr err = std::exchange(error_, nullptr);
    lock.unlock();
    if (err) std::rethrow_exception(err);
  }

private:
  void member_loop(Worker& w) {
    std::uint64_t seen = 0;
    for (;;) {
      JobFn job = nullptr;
      void* ctx = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        start_cv_.wait(lock, [&] { return stopping_ || generation_ != seen; });
        if (stopping_) return;
        seen = generation_;
        job = job_;
        ctx = job_ctx_;
      }
      try {
        run_timed(job, ctx, w);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!error_) error_ = std::current_exception();
      }
      bool last = false;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        last = --unfinished_ == 0;
      }
      if (last) done_cv_.notify_one();
    }
  }

  std::vector<Worker*> members_;
  std::vector<std::thread> threads_;
  std::mutex run_mutex_; ///< held by the run() caller for the whole job
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  bool stopping_ = false;
  std::uint64_t generation_ = 0;
  int unfinished_ = 0;
  JobFn job_ = nullptr;
  void* job_ctx_ = nullptr;
  std::exception_ptr error_;
};

// ---------------------------------------------------------------------------
// Device
// ---------------------------------------------------------------------------

int Device::default_workers() {
  const std::size_t env = env_size("GOTHIC_THREADS", 0);
  if (env > 0) {
    return static_cast<int>(std::min<std::size_t>(env, 256));
  }
#ifdef _OPENMP
  return std::max(1, omp_get_max_threads());
#else
  return std::max(1u, std::thread::hardware_concurrency());
#endif
}

Device::Device(int workers) {
  const int n = std::min(workers > 0 ? workers : default_workers(),
                         kMaxWorkers);
  slots_.reserve(static_cast<std::size_t>(n));
  std::vector<Worker*> members;
  members.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    slots_.push_back(std::make_unique<Worker>());
    slots_.back()->id = i;
    members.push_back(slots_.back().get());
  }
  // Worker 0 is whatever host thread runs the collective.
  pool_ = std::make_unique<Team>(std::move(members));
}

Device::~Device() = default;

Device& Device::shared() {
  static Device device;
  return device;
}

Device& Device::current() {
  return tl_current != nullptr ? *tl_current : shared();
}

void Device::dispatch(JobFn fn, void* ctx) { pool_->run(fn, ctx); }

// --- issue path ------------------------------------------------------------

Device::IssuedLaunch Device::issue_launch(const LaunchDesc& desc) {
  IssuedLaunch issued;
  LaunchRecord& rec = issued.record;
  rec.kernel = desc.kernel;
  rec.label =
      desc.label != nullptr ? desc.label : kernel_name(desc.kernel).data();
  rec.stream = desc.stream != nullptr ? desc.stream->name() : "default";
  rec.items = desc.items;
  rec.workers = workers();
  issued.sink = desc.sink != nullptr ? desc.sink : &sink_;

  std::lock_guard<std::mutex> lock(mutex_);
  rec.id = next_launch_;
  std::size_t slot = 0;
  auto add_dep = [&](Event e, bool implicit) {
    if (!e.valid() || slot >= rec.deps.size()) return;
    if (e.device != nullptr && e.device != this) {
      // A stream's implicit predecessor from a previous device is
      // meaningless here; start the stream fresh instead of recording a
      // bogus edge. Explicit foreign events are a caller bug.
      if (implicit) return;
      throw std::logic_error(
          std::string("Device::launch: dependency event ") +
          std::to_string(e.id) + " of '" + rec.label +
          "' belongs to a different device");
    }
    for (std::size_t i = 0; i < slot; ++i) {
      if (rec.deps[i] == e.id) return; // already recorded
    }
    if (e.id >= rec.id) {
      throw std::logic_error(std::string("Device::launch: dependency event ") +
                             std::to_string(e.id) + " of '" + rec.label +
                             "' has not been issued");
    }
    rec.deps[slot++] = e.id;
  };
  for (Event e : desc.deps) add_dep(e, false);
  // Same-stream launches are implicitly ordered (CUDA stream semantics);
  // launches run in issue order, the edge documents the order.
  if (desc.stream != nullptr) add_dep(desc.stream->last(), true);
  // Validation passed: the id is consumed and the launch is running.
  ++next_launch_;
  ++running_;
  if (desc.stream != nullptr) desc.stream->last_ = Event{rec.id, this};
  issued.controller = controller_;
  return issued;
}

void Device::finish_launch(const IssuedLaunch& issued, double t_begin,
                           double t_end, const simt::OpCounts& ops) {
  LaunchRecord rec = issued.record;
  rec.seconds = t_end - t_begin;
  rec.t_begin = t_begin;
  rec.t_end = t_end;
  rec.ops = ops;
  std::lock_guard<std::mutex> lock(mutex_);
  issued.sink->add(rec);
  --running_;
}

void Device::set_schedule_controller(ScheduleController* c) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (running_ != 0) {
    throw std::logic_error(
        "Device::set_schedule_controller: device has launches in flight");
  }
  controller_ = c;
}

ScheduleController* Device::schedule_controller() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return controller_;
}

// --- introspection ---------------------------------------------------------

std::uint64_t Device::arena_heap_allocations() const {
  std::uint64_t total = 0;
  for (const auto& w : slots_) total += w->arena.heap_allocations();
  return total;
}

std::size_t Device::arena_capacity() const {
  std::size_t total = 0;
  for (const auto& w : slots_) total += w->arena.capacity();
  return total;
}

std::uint64_t Device::launch_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_launch_ - 1;
}

double Device::worker_busy_seconds_max() const {
  double m = 0.0;
  for (const auto& w : slots_) m = std::max(m, w->busy_seconds());
  return m;
}

double Device::worker_busy_seconds_total() const {
  double total = 0.0;
  for (const auto& w : slots_) total += w->busy_seconds();
  return total;
}

int Device::busy_worker_count() const {
  int n = 0;
  for (const auto& w : slots_) {
    if (w->busy_ns.load(std::memory_order_relaxed) > 0) ++n;
  }
  return n;
}

ScopedDevice::ScopedDevice(Device& device) : previous_(tl_current) {
  tl_current = &device;
}

ScopedDevice::~ScopedDevice() { tl_current = previous_; }

} // namespace gothic::runtime
