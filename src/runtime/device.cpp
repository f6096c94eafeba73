#include "runtime/device.hpp"

#include "util/env.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace gothic::runtime {

namespace {
/// Innermost ScopedDevice override (also installed on the leader thread,
/// so Device::current() inside an async launch body resolves to the
/// issuing device).
thread_local Device* tl_current = nullptr;
} // namespace

// ---------------------------------------------------------------------------
// Team: one fork/join group. Member 0 is the calling thread of run(); the
// remaining members are dedicated threads parked on a condition variable.
// A device owns one team over its whole pool, shared by the host thread
// and the async leader.
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

  /// Run `fn(ctx, worker)` once per member; the caller executes member 0.
  /// All member exceptions land in one first-recorded-wins slot and exactly
  /// that one is rethrown after every member finished, leaving the team
  /// reusable. (The previous pool dropped a worker error whenever member 0
  /// threw too, and left it set for the next collective.)
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

  void run(JobFn fn, void* ctx) {
    // One job at a time: the host thread and the leader may both fork a
    // collective, and the job slot, the generation count and member 0's
    // worker (its arena) belong to one caller for the whole run.
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
// Launch-queue node of the asynchronous engine.
// ---------------------------------------------------------------------------

/// One queued launch: the type-erased body lives inline in `storage` (no
/// per-launch heap traffic); nodes are pooled and recycled through the
/// device free list.
struct Device::LaunchNode {
  alignas(64) std::byte storage[kMaxBodyBytes];
  BodyInvoke invoke = nullptr;
  BodyDestroy destroy = nullptr;
  std::uint64_t id = 0;
  InstrumentationSink* sink = nullptr;
  std::size_t record_index = 0;
  LaunchNode* next = nullptr;
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

bool Device::default_async() { return env_size("GOTHIC_ASYNC", 1) != 0; }

Device::Device(int workers, int async)
    : async_(async < 0 ? default_async() : async != 0) {
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
  // Worker 0 is whatever thread runs the collective: the host thread, or
  // the leader inside an async launch body.
  pool_ = std::make_unique<Team>(std::move(members));
}

Device::~Device() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    event_cv_.wait(lock, [&] { return inflight_ == 0; });
    stopping_ = true;
  }
  queue_cv_.notify_all();
  if (leader_.joinable()) leader_.join();
  pool_.reset();
}

Device& Device::shared() {
  static Device device;
  return device;
}

Device& Device::current() {
  return tl_current != nullptr ? *tl_current : shared();
}

void Device::dispatch(JobFn fn, void* ctx) { pool_->run(fn, ctx); }

// --- issue path ------------------------------------------------------------

LaunchRecord Device::make_record_locked(const LaunchDesc& desc) {
  LaunchRecord rec;
  rec.kernel = desc.kernel;
  rec.label =
      desc.label != nullptr ? desc.label : kernel_name(desc.kernel).data();
  rec.stream = desc.stream != nullptr ? desc.stream->name() : "default";
  rec.id = next_launch_++;
  rec.items = desc.items;

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
  // the device executes in issue order, the edge documents the order.
  if (desc.stream != nullptr) add_dep(desc.stream->last(), true);
  if (desc.stream != nullptr) desc.stream->last_ = Event{rec.id, this};
  return rec;
}

Device::IssuedLaunch Device::issue_launch(const LaunchDesc& desc) {
  std::lock_guard<std::mutex> lock(mutex_);
  const LaunchRecord rec = make_record_locked(desc);
  IssuedLaunch issued;
  issued.id = rec.id;
  issued.sink = desc.sink != nullptr ? desc.sink : &sink_;
  issued.record_index = issued.sink->begin_record(rec);
  issued.workers = workers();
  return issued;
}

void Device::finish_launch(const IssuedLaunch& issued, double t_begin,
                           double t_end, const simt::OpCounts& ops) {
  std::lock_guard<std::mutex> lock(mutex_);
  issued.sink->finish_record(issued.record_index, issued.id, t_begin, t_end,
                             issued.workers, ops);
  completed_floor_ = issued.id;
  event_cv_.notify_all();
}

Event Device::launch_async(const LaunchDesc& desc, BodyInvoke invoke,
                           BodyCopy copy, BodyDestroy destroy,
                           const void* body) {
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!leader_.joinable()) start_leader_locked();
    const LaunchRecord rec = make_record_locked(desc); // may throw: no node yet
    LaunchNode* node = free_nodes_;
    if (node != nullptr) {
      free_nodes_ = node->next;
    } else {
      nodes_.push_back(std::make_unique<LaunchNode>());
      node = nodes_.back().get();
    }
    node->id = rec.id;
    node->sink = desc.sink != nullptr ? desc.sink : &sink_;
    node->record_index = node->sink->begin_record(rec);
    node->invoke = invoke;
    node->destroy = destroy;
    copy(node->storage, body);
    node->next = nullptr;
    if (tail_ != nullptr) {
      tail_->next = node;
    } else {
      head_ = node;
    }
    tail_ = node;
    ++inflight_;
    id = rec.id;
  }
  queue_cv_.notify_one();
  return Event{id, this};
}

// --- asynchronous engine ---------------------------------------------------

void Device::start_leader_locked() {
  // Deferred to the first launch so constructing a device that never
  // launches (a session pool's idle device, a bench's setup) spawns no
  // leader and allocates no nodes.
  nodes_.reserve(64);
  for (int i = 0; i < 64; ++i) {
    nodes_.push_back(std::make_unique<LaunchNode>());
    nodes_.back()->next = free_nodes_;
    free_nodes_ = nodes_.back().get();
  }
  leader_ = std::thread([this] { leader_loop(); });
}

void Device::leader_loop() {
  // Launch bodies run on this thread; Device::current() must resolve to
  // the issuing device.
  tl_current = this;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    queue_cv_.wait(lock, [&] { return stopping_ || head_ != nullptr; });
    if (head_ == nullptr) return; // stopping, queue drained
    // Every dependency has a smaller issue id and the queue runs strictly
    // in issue order, so the head's dependencies are already complete.
    LaunchNode* node = head_;
    head_ = node->next;
    if (head_ == nullptr) tail_ = nullptr;
    lock.unlock();
    run_node(*node);
    lock.lock();
  }
}

void Device::run_node(LaunchNode& node) {
  simt::OpCounts ops;
  std::exception_ptr err;
  const double t0 = now();
  try {
    // controller_ cannot change while this node is in flight
    // (set_schedule_controller requires an idle device).
    fault_point(node.id);
    node.invoke(node.storage, ops);
  } catch (...) {
    err = std::current_exception();
  }
  const double t1 = now();
  node.destroy(node.storage);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    node.sink->finish_record(node.record_index, node.id, t0, t1, workers(),
                             ops);
    // Move (don't copy) so the leader drops its reference here: the thread
    // that later rethrows the error must be the only one releasing the
    // exception object, or its teardown races with the consumer's what().
    if (err && !async_error_) async_error_ = std::move(err);
    completed_floor_ = node.id;
    node.next = free_nodes_;
    free_nodes_ = &node;
    --inflight_;
  }
  event_cv_.notify_all();
}

void Device::set_schedule_controller(ScheduleController* c) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (inflight_ != 0) {
    throw std::logic_error(
        "Device::set_schedule_controller: device has launches in flight");
  }
  controller_ = c;
}

ScheduleController* Device::schedule_controller() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return controller_;
}

// --- waits -----------------------------------------------------------------

void Device::wait_event(std::uint64_t id) {
  if (id == 0) return;
  std::unique_lock<std::mutex> lock(mutex_);
  event_cv_.wait(lock, [&] { return id <= completed_floor_; });
}

void Device::synchronize() {
  std::unique_lock<std::mutex> lock(mutex_);
  event_cv_.wait(lock, [&] { return inflight_ == 0; });
  if (async_error_) {
    std::exception_ptr err = std::exchange(async_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void Event::wait() const {
  if (device != nullptr && id != 0) device->wait_event(id);
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
