// The kernel-launch runtime: arena reuse (zero steady-state heap traffic),
// worker-pool collectives, stream/event dependency recording, and
// bit-identical kernel results across worker counts and exec modes.
#include "runtime/arena.hpp"
#include "runtime/device.hpp"

#include "gravity/walk_tree.hpp"
#include "nbody/simulation.hpp"
#include "octree/calc_node.hpp"
#include "octree/radix_sort.hpp"
#include "octree/tree_build.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace gothic::runtime {
namespace {

// --- Arena ----------------------------------------------------------------

TEST(Arena, AlignsToCacheLine) {
  Arena a;
  for (std::size_t bytes : {1, 3, 64, 100, 1000}) {
    void* p = a.allocate(bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % Arena::kAlignment, 0u);
  }
  auto span = a.alloc_span<double>(7);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(span.data()) % Arena::kAlignment,
            0u);
}

TEST(Arena, ReusesRetainedChunkAfterReset) {
  Arena a;
  void* first = a.allocate(1024);
  const std::uint64_t warm = a.heap_allocations();
  for (int cycle = 0; cycle < 10; ++cycle) {
    a.reset();
    EXPECT_EQ(a.allocate(1024), first); // same retained storage
  }
  EXPECT_EQ(a.heap_allocations(), warm);
}

TEST(Arena, CoalescesOverflowChunksOnReset) {
  Arena a;
  // Overflow the first chunk so a second one is acquired.
  (void)a.allocate(Arena::kMinChunk - 64);
  (void)a.allocate(Arena::kMinChunk);
  const std::size_t high_water = a.capacity();
  a.reset();
  EXPECT_GE(a.capacity(), high_water); // one chunk now fits everything
  const std::uint64_t warm = a.heap_allocations();
  for (int cycle = 0; cycle < 5; ++cycle) {
    a.reset();
    (void)a.allocate(Arena::kMinChunk - 64);
    (void)a.allocate(Arena::kMinChunk);
  }
  EXPECT_EQ(a.heap_allocations(), warm); // steady state: no heap traffic
}

TEST(ArenaVector, PushResizeClear) {
  Arena a;
  ArenaVector<int> v(a);
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  ASSERT_EQ(v.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
  v.clear();
  EXPECT_TRUE(v.empty());
  v.resize(8);
  EXPECT_EQ(v.size(), 8u);
  EXPECT_EQ(v[7], 0); // value-initialised
}

// --- Device collectives ---------------------------------------------------

TEST(Device, ParallelForCoversEveryIndexOnce) {
  Device dev(4);
  std::vector<int> hits(1000, 0);
  dev.parallel_for(0, hits.size(),
                   [&](std::size_t i) { hits[i] += 1; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(Device, ParallelRangesUsesStaticChunks) {
  Device dev(3);
  const std::size_t n = 10;
  const std::size_t chunk = dev.chunk_size(0, n);
  EXPECT_EQ(chunk, 4u); // ceil(10/3) — the OpenMP static schedule
  std::vector<int> owner(n, -1);
  dev.parallel_ranges(0, n, [&](Worker& w, std::size_t lo, std::size_t hi) {
    EXPECT_EQ(lo, static_cast<std::size_t>(w.id) * chunk);
    for (std::size_t i = lo; i < hi; ++i) owner[i] = w.id;
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(owner[i], static_cast<int>(i / chunk));
  }
}

TEST(Device, ParallelDynamicCoversEveryIndexOnce) {
  Device dev(4);
  // Atomics, not plain ints: chunks are claimed concurrently and the
  // double-count check must not itself race.
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  dev.parallel_dynamic(0, hits.size(), 7,
                       [&](Worker&, std::size_t lo, std::size_t hi) {
                         for (std::size_t i = lo; i < hi; ++i) {
                           hits[i].fetch_add(1, std::memory_order_relaxed);
                         }
                       });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Empty and zero-chunk (auto-sized) ranges are fine too.
  dev.parallel_dynamic(5, 5, 0, [&](Worker&, std::size_t, std::size_t) {
    ADD_FAILURE() << "empty range must not invoke the body";
  });
  std::atomic<std::size_t> covered{0};
  dev.parallel_dynamic(0, 100, 0,
                       [&](Worker&, std::size_t lo, std::size_t hi) {
                         covered.fetch_add(hi - lo);
                       });
  EXPECT_EQ(covered.load(), 100u);
}

TEST(Device, WorkerBusyGaugesAccumulate) {
  Device dev(2);
  EXPECT_EQ(dev.busy_worker_count(), 0);
  std::atomic<std::uint64_t> sink{0};
  dev.parallel_for(0, 20000, [&](std::size_t i) {
    sink.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_GT(dev.busy_worker_count(), 0);
  EXPECT_GT(dev.worker_busy_seconds_total(), 0.0);
  EXPECT_GE(dev.worker_busy_seconds_total(), dev.worker_busy_seconds_max());
  // Cumulative: more work never decreases the gauges.
  const double before = dev.worker_busy_seconds_total();
  dev.parallel_for(0, 20000, [&](std::size_t i) {
    sink.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_GE(dev.worker_busy_seconds_total(), before);
}

TEST(Device, PropagatesBodyExceptions) {
  Device dev(4);
  EXPECT_THROW(dev.parallel_for(0, 100,
                                [](std::size_t i) {
                                  if (i == 57) throw std::runtime_error("x");
                                }),
               std::runtime_error);
  // The pool survives the throw and keeps working.
  std::vector<int> hits(64, 0);
  dev.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
}

TEST(Device, ScopedDeviceOverridesCurrent) {
  Device& base = Device::current();
  Device one(1);
  {
    ScopedDevice scope(one);
    EXPECT_EQ(&Device::current(), &one);
    Device two(2);
    {
      ScopedDevice nested(two);
      EXPECT_EQ(&Device::current(), &two);
    }
    EXPECT_EQ(&Device::current(), &one);
  }
  EXPECT_EQ(&Device::current(), &base);
}

TEST(Device, GothicThreadsEnvSelectsWorkerCount) {
  ASSERT_EQ(::setenv("GOTHIC_THREADS", "3", 1), 0);
  EXPECT_EQ(Device::default_workers(), 3);
  Device dev(0);
  EXPECT_EQ(dev.workers(), 3);
  ASSERT_EQ(::unsetenv("GOTHIC_THREADS"), 0);
  EXPECT_GE(Device::default_workers(), 1);
  Device pinned(2); // explicit count wins over the default
  EXPECT_EQ(pinned.workers(), 2);
}

TEST(Device, WorkerArenasRetainCapacityAcrossLaunches) {
  Device dev(2);
  auto kernel = [&] {
    dev.for_workers([](Worker& w) {
      w.arena.reset();
      auto scratch = w.arena.alloc_span<float>(4096);
      scratch[0] = 1.0f;
    });
  };
  kernel();
  const std::uint64_t warm = dev.arena_heap_allocations();
  EXPECT_GT(warm, 0u);
  for (int i = 0; i < 10; ++i) kernel();
  EXPECT_EQ(dev.arena_heap_allocations(), warm);
}

TEST(Device, HostCollectiveAndLaunchBodyShareTheWorkerPool) {
  // Two host threads fork onto one device's team: a launch body issued
  // from a second thread runs its collectives while this thread runs its
  // own. They must take turns on the one pool: each covers its own range
  // exactly once per round.
  Device dev(3);
  constexpr std::size_t kItems = 2048;
  constexpr int kRounds = 200;
  std::vector<std::atomic<int>> body_hits(kItems);
  std::vector<std::atomic<int>> host_hits(kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    body_hits[i].store(0, std::memory_order_relaxed);
    host_hits[i].store(0, std::memory_order_relaxed);
  }
  std::atomic<bool> started{false};
  std::thread issuer([&] {
    LaunchDesc desc;
    desc.label = "body-collective";
    (void)dev.launch(desc, [&](simt::OpCounts&) {
      started.store(true, std::memory_order_release);
      for (int r = 0; r < kRounds; ++r) {
        Device::current().parallel_for(0, kItems, [&](std::size_t i) {
          body_hits[i].fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  for (int r = 0; r < kRounds; ++r) {
    dev.parallel_for(0, kItems, [&](std::size_t i) {
      host_hits[i].fetch_add(1, std::memory_order_relaxed);
    });
  }
  issuer.join();
  for (std::size_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(body_hits[i].load(), kRounds) << "body index " << i;
    ASSERT_EQ(host_hits[i].load(), kRounds) << "host index " << i;
  }
}

#ifdef __linux__
/// Threads of this process (one /proc/self/task entry each).
int process_threads() {
  int n = 0;
  for (const auto& e :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)e;
    ++n;
  }
  return n;
}

/// Thread count relative to `before`, polled until it equals `expected`
/// (or ~1 s passes): a joined thread can linger in /proc/self/task until
/// the kernel reaps it.
int settled_thread_delta(int before, int expected) {
  int delta = process_threads() - before;
  for (int i = 0; i < 200 && delta != expected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    delta = process_threads() - before;
  }
  return delta;
}

nbody::Particles uniform_cloud(std::size_t n);

TEST(Device, AsyncDeviceRunsOneThreadPerWorker) {
  // An n-worker device runs n - 1 team threads: the issuing thread is
  // worker 0 of every collective, launch bodies included. A K-shard
  // engine with w workers per shard adds K(w - 1) shard-pool threads plus
  // K - 1 host-team threads (member 0 is the caller of step()).
  int before = process_threads();
  for (int i = 0; i < 20; ++i) { // let earlier tests' threads be reaped
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    before = std::min(before, process_threads());
  }
  {
    Device dev(4);
    LaunchDesc desc;
    (void)dev.launch(desc, [](simt::OpCounts&) {
      Device::current().for_workers([](Worker&) {});
    });
    EXPECT_EQ(settled_thread_delta(before, 3), 3);
  }
  nbody::SimConfig cfg;
  cfg.auto_rebuild = false;
  cfg.fixed_rebuild_interval = 2;
  for (const auto& [shards, workers] : {std::pair{2, 3}, std::pair{4, 1}}) {
    nbody::ShardOptions opt;
    opt.shards = shards;
    opt.workers = workers;
    nbody::Simulation sim(uniform_cloud(512), cfg, opt);
    sim.run(2);
    const int expected = shards * (workers - 1) + shards - 1;
    EXPECT_EQ(settled_thread_delta(before, expected), expected)
        << "K=" << shards << " w=" << workers;
  }
}
#endif


// --- Streams, events, instrumentation -------------------------------------

TEST(Launch, RecordsIdsOpsAndSink) {
  Device dev(2); // the record is complete when launch() returns
  InstrumentationSink sink;
  Stream s("tree");
  LaunchDesc desc;
  desc.kernel = Kernel::CalcNode;
  desc.label = "calc";
  desc.items = 128;
  desc.stream = &s;
  desc.sink = &sink;
  const Event e = dev.launch(desc, [](simt::OpCounts& ops) {
    ops.int_ops += 42;
  });
  EXPECT_TRUE(e.valid());
  ASSERT_EQ(sink.step_records().size(), 1u);
  const LaunchRecord& rec = sink.last();
  EXPECT_EQ(rec.id, e.id);
  EXPECT_EQ(rec.kernel, Kernel::CalcNode);
  EXPECT_STREQ(rec.stream, "tree");
  EXPECT_EQ(rec.items, 128u);
  EXPECT_EQ(rec.workers, 2);
  EXPECT_EQ(rec.ops.int_ops, 42u);
  EXPECT_GE(rec.seconds, 0.0);
  EXPECT_EQ(sink.kernel_ops(Kernel::CalcNode).int_ops, 42u);
  EXPECT_EQ(sink.timers().calls(Kernel::CalcNode), 1u);
  EXPECT_EQ(s.last().id, e.id);
}

TEST(Launch, SameStreamLaunchesAreImplicitlyOrdered) {
  Device dev(1);
  InstrumentationSink sink;
  Stream s("tree");
  LaunchDesc desc;
  desc.stream = &s;
  desc.sink = &sink;
  const Event a = dev.launch(desc, [](simt::OpCounts&) {});
  (void)dev.launch(desc, [](simt::OpCounts&) {});
  const LaunchRecord& second = sink.last();
  EXPECT_EQ(second.deps[0], a.id); // CUDA stream semantics, recorded
}

TEST(Launch, CrossStreamDepsAreRecordedAndDeduplicated) {
  Device dev(1);
  InstrumentationSink sink;
  Stream tree("tree"), integrate("integrate");
  LaunchDesc pd;
  pd.stream = &integrate;
  pd.sink = &sink;
  const Event e_pred = dev.launch(pd, [](simt::OpCounts&) {});
  LaunchDesc cd;
  cd.stream = &tree;
  cd.sink = &sink;
  const Event e_calc = dev.launch(cd, [](simt::OpCounts&) {});
  LaunchDesc wd;
  wd.stream = &tree;
  wd.deps = {e_pred, e_calc};
  wd.sink = &sink;
  (void)dev.launch(wd, [](simt::OpCounts&) {});
  const LaunchRecord& walk = sink.last();
  // Explicit {pred, calc}; the implicit same-stream dep duplicates calc and
  // must not be recorded twice.
  EXPECT_EQ(walk.deps[0], e_pred.id);
  EXPECT_EQ(walk.deps[1], e_calc.id);
  EXPECT_EQ(walk.deps[2], 0u);
}

TEST(Launch, UnissuedDependencyThrows) {
  Device dev(1);
  LaunchDesc desc;
  desc.deps = {Event{9999}};
  EXPECT_THROW(dev.launch(desc, [](simt::OpCounts&) {}), std::logic_error);
  // Issue validation failures must not wedge the device.
  (void)dev.launch(LaunchDesc{}, [](simt::OpCounts&) {});
}

TEST(Launch, ForeignDeviceDependencyThrows) {
  Device a(1), b(1);
  LaunchDesc desc;
  const Event e = a.launch(desc, [](simt::OpCounts&) {});
  LaunchDesc bad;
  bad.deps = {e};
  EXPECT_THROW(b.launch(bad, [](simt::OpCounts&) {}), std::logic_error);
}

TEST(Launch, BodyRunsOnTheLaunchingDevice) {
  // A launch installs its device as Device::current() for the body, so
  // kernels resolve the device that launched them — not the caller's
  // ScopedDevice override or Device::shared().
  Device sentinel(1);
  ScopedDevice scope(sentinel);
  Device dev(2);
  Device* seen = nullptr;
  (void)dev.launch(LaunchDesc{},
                   [&seen](simt::OpCounts&) { seen = &Device::current(); });
  EXPECT_EQ(seen, &dev);
  EXPECT_EQ(&Device::current(), &sentinel); // restored after the body
}

TEST(Launch, BodyErrorPropagatesFromLaunchAndDeviceStaysUsable) {
  Device dev(2);
  Device sentinel(1);
  ScopedDevice scope(sentinel);
  InstrumentationSink sink;
  LaunchDesc desc;
  desc.sink = &sink;
  EXPECT_THROW((void)dev.launch(desc,
                                [](simt::OpCounts&) {
                                  throw std::runtime_error("body failed");
                                }),
               std::runtime_error);
  // The faulting launch left a complete record and restored the override.
  ASSERT_EQ(sink.step_records().size(), 1u);
  EXPECT_GE(sink.last().t_end, sink.last().t_begin);
  EXPECT_EQ(&Device::current(), &sentinel);
  int ran = 0;
  (void)dev.launch(desc, [&ran](simt::OpCounts&) { ran = 1; });
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sink.step_records().size(), 2u);
}

TEST(Sink, LastThrowsWhenEmpty) {
  InstrumentationSink sink;
  EXPECT_THROW((void)sink.last(), std::logic_error);
  sink.begin_step();
  EXPECT_THROW((void)sink.last(), std::logic_error);
}

TEST(Device, DispatchPropagatesExactlyOneError) {
  Device dev(4);
  auto reusable = [&dev] {
    std::vector<int> hits(16, 0);
    dev.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i] = 1; });
    return std::accumulate(hits.begin(), hits.end(), 0) == 16;
  };
  // Worker 0 (the calling thread) throws.
  EXPECT_THROW(dev.for_workers([](Worker& w) {
                 if (w.id == 0) throw std::runtime_error("w0");
               }),
               std::runtime_error);
  EXPECT_TRUE(reusable());
  // A pool worker throws.
  EXPECT_THROW(dev.for_workers([](Worker& w) {
                 if (w.id == 3) throw std::runtime_error("w3");
               }),
               std::runtime_error);
  EXPECT_TRUE(reusable());
  // Every worker throws: exactly one propagates (first recorded wins) and
  // none is left latched for the next collective — the old pool dropped
  // the pool-worker error when worker 0 also threw, and kept it latched.
  EXPECT_THROW(dev.for_workers([](Worker&) {
                 throw std::runtime_error("all");
               }),
               std::runtime_error);
  EXPECT_TRUE(reusable());
  dev.for_workers([](Worker&) {}); // must not rethrow a stale error
}

// --- Radix sort on arena scratch ------------------------------------------

std::pair<std::vector<std::uint64_t>, std::vector<index_t>>
random_pairs(std::size_t n, int bits, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> keys(n);
  std::vector<index_t> payload(n);
  const std::uint64_t mask =
      bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = rng.next() & mask;
    payload[i] = static_cast<index_t>(i);
  }
  return {std::move(keys), std::move(payload)};
}

TEST(RadixSort, MultiPassDeterministicAcrossWorkerCounts) {
  // 3 passes (odd, so the copy-back path runs) over duplicate-rich keys:
  // stability makes the payload order unique, so a reference stable_sort
  // and every worker count must agree exactly.
  constexpr std::size_t kN = 4096;
  constexpr int kBits = 24;
  auto [ref_keys, ref_payload] = random_pairs(kN, 10, 42); // many duplicates
  std::vector<std::size_t> order(kN);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ref_keys[a] < ref_keys[b];
                   });
  for (int workers : {1, 3, 4}) {
    Device dev(workers);
    ScopedDevice scope(dev);
    auto [keys, payload] = random_pairs(kN, 10, 42);
    octree::radix_sort_pairs(keys, payload, kBits, nullptr);
    EXPECT_TRUE(octree::is_sorted_keys(keys));
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(keys[i], ref_keys[order[i]]) << "workers " << workers;
      EXPECT_EQ(payload[i], static_cast<index_t>(order[i]))
          << "workers " << workers;
    }
  }
}

TEST(RadixSort, SteadyStateSortsDoZeroArenaHeapAllocations) {
  Device dev(3);
  ScopedDevice scope(dev);
  auto sort_once = [] {
    auto [keys, payload] = random_pairs(2048, 48, 7);
    octree::radix_sort_pairs(keys, payload, 48, nullptr);
    ASSERT_TRUE(octree::is_sorted_keys(keys));
  };
  sort_once(); // warm-up sizes the arenas
  const std::uint64_t warm = dev.arena_heap_allocations();
  EXPECT_GT(warm, 0u); // the scratch really lives in the arenas now
  for (int i = 0; i < 6; ++i) sort_once();
  EXPECT_EQ(dev.arena_heap_allocations(), warm);
}

// --- Kernel determinism across devices and modes --------------------------

struct System {
  std::vector<real> x, y, z, m;
  std::vector<real> ax, ay, az, pot;
  simt::OpCounts ops;
  gravity::WalkStats stats;
};

/// Build + calc + walk the same Plummer realisation on the given device —
/// the whole pipeline, so radix-sort stability and walk accumulation are
/// both exercised.
System pipeline(int workers, simt::ExecMode mode) {
  Device dev(workers);
  ScopedDevice scope(dev);
  const std::size_t n = 2048;
  Xoshiro256 rng(20190805);
  System s;
  s.x.resize(n);
  s.y.resize(n);
  s.z.resize(n);
  s.m.assign(n, real(1.0 / static_cast<double>(n)));
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform(1e-6, 0.999);
    const double r = 1.0 / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0);
    double ux, uy, uz;
    rng.unit_vector(ux, uy, uz);
    s.x[i] = static_cast<real>(r * ux);
    s.y[i] = static_cast<real>(r * uy);
    s.z[i] = static_cast<real>(r * uz);
  }
  octree::Octree tree;
  std::vector<index_t> perm;
  octree::BuildConfig bcfg;
  bcfg.mode = mode;
  octree::build_tree(s.x, s.y, s.z, tree, perm, bcfg);
  auto apply = [&perm](std::vector<real>& v) {
    std::vector<real> out(v.size());
    octree::gather(v, perm, out);
    v = std::move(out);
  };
  apply(s.x);
  apply(s.y);
  apply(s.z);
  apply(s.m);
  octree::CalcNodeConfig ccfg;
  ccfg.mode = mode;
  octree::calc_node(tree, s.x, s.y, s.z, s.m, ccfg);
  s.ax.resize(n);
  s.ay.resize(n);
  s.az.resize(n);
  s.pot.resize(n);
  gravity::WalkConfig wcfg;
  wcfg.mode = mode;
  gravity::walk_tree(tree, s.x, s.y, s.z, s.m, {}, wcfg, s.ax, s.ay, s.az,
                     s.pot, &s.ops, &s.stats);
  return s;
}

TEST(Determinism, WalkTreeBitIdenticalAcrossWorkerCounts) {
  const System one = pipeline(1, simt::ExecMode::Volta);
  const System four = pipeline(4, simt::ExecMode::Volta);
  ASSERT_EQ(one.ax.size(), four.ax.size());
  for (std::size_t i = 0; i < one.ax.size(); ++i) {
    EXPECT_EQ(one.ax[i], four.ax[i]) << "body " << i;
    EXPECT_EQ(one.ay[i], four.ay[i]) << "body " << i;
    EXPECT_EQ(one.az[i], four.az[i]) << "body " << i;
    EXPECT_EQ(one.pot[i], four.pot[i]) << "body " << i;
  }
  EXPECT_EQ(one.ops, four.ops);
  EXPECT_EQ(one.stats.interactions, four.stats.interactions);
}

TEST(Determinism, WalkTreeBitIdenticalAcrossExecModes) {
  const System pascal = pipeline(2, simt::ExecMode::Pascal);
  const System volta = pipeline(2, simt::ExecMode::Volta);
  for (std::size_t i = 0; i < pascal.ax.size(); ++i) {
    EXPECT_EQ(pascal.ax[i], volta.ax[i]) << "body " << i;
    EXPECT_EQ(pascal.ay[i], volta.ay[i]) << "body " << i;
    EXPECT_EQ(pascal.az[i], volta.az[i]) << "body " << i;
  }
  // The modes differ only in synchronisation accounting.
  EXPECT_EQ(pascal.ops.fp32_fma, volta.ops.fp32_fma);
  EXPECT_EQ(pascal.ops.syncwarp, 0u);
}

// --- The step loop on the runtime -----------------------------------------

nbody::Particles uniform_cloud(std::size_t n) {
  Xoshiro256 rng(7);
  nbody::Particles p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.x[i] = static_cast<real>(rng.uniform(-1.0, 1.0));
    p.y[i] = static_cast<real>(rng.uniform(-1.0, 1.0));
    p.z[i] = static_cast<real>(rng.uniform(-1.0, 1.0));
    p.m[i] = real(1.0 / static_cast<double>(n));
  }
  return p;
}

TEST(SimulationRuntime, SteadyStateStepsDoZeroArenaHeapAllocations) {
  Device dev(2);
  ScopedDevice scope(dev);
  nbody::SimConfig cfg;
  cfg.block_time_steps = false;  // identical work every step
  cfg.dt_max = 1.0 / 4096;
  cfg.auto_rebuild = false;
  // Rebuild every other step so the steady state includes makeTree and its
  // radix sort — the sort scratch lives in the worker arenas too now.
  cfg.fixed_rebuild_interval = 2;
  nbody::Simulation sim(uniform_cloud(1024), cfg);
  for (int i = 0; i < 4; ++i) (void)sim.step(); // warm-up incl. rebuilds
  const std::uint64_t warm = dev.arena_heap_allocations();
  EXPECT_GT(warm, 0u);
  for (int i = 0; i < 8; ++i) (void)sim.step();
  EXPECT_EQ(dev.arena_heap_allocations(), warm);
}

TEST(SimulationRuntime, StepReportCarriesWallAndOverlap) {
  Device dev(2);
  ScopedDevice scope(dev);
  nbody::SimConfig cfg;
  cfg.auto_rebuild = false;
  cfg.fixed_rebuild_interval = 1 << 30;
  nbody::Simulation sim(uniform_cloud(512), cfg);
  const nbody::StepReport r = sim.step();
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_GE(r.overlap_seconds(), 0.0);
  // Wall time never exceeds the serial sum by more than scheduling slack.
  EXPECT_DOUBLE_EQ(r.wall_seconds, sim.sink().step_wall_seconds());
}

TEST(SimulationRuntime, StepReportIsDrainedFromLaunchRecords) {
  Device dev(2);
  ScopedDevice scope(dev);
  nbody::SimConfig cfg;
  cfg.auto_rebuild = false;
  cfg.fixed_rebuild_interval = 1 << 30;
  nbody::Simulation sim(uniform_cloud(512), cfg);
  const nbody::StepReport r = sim.step();

  const auto& records = sim.sink().step_records();
  ASSERT_EQ(records.size(), 4u); // predict, calcNode, walkTree, correct
  EXPECT_EQ(records[0].kernel, Kernel::PredictCorrect);
  EXPECT_EQ(records[1].kernel, Kernel::CalcNode);
  EXPECT_EQ(records[2].kernel, Kernel::WalkTree);
  EXPECT_EQ(records[3].kernel, Kernel::PredictCorrect);
  EXPECT_STREQ(records[2].stream, "tree");

  // walkTree depends on both predict and calcNode — the step's DAG.
  EXPECT_EQ(records[2].deps[0], records[0].id);
  EXPECT_EQ(records[2].deps[1], records[1].id);
  // correct depends on walkTree (plus the integrate stream's predict).
  EXPECT_EQ(records[3].deps[0], records[2].id);

  // Report seconds/ops are exactly the records' sums.
  double walk_s = 0.0, pred_s = 0.0;
  for (const LaunchRecord& rec : records) {
    if (rec.kernel == Kernel::WalkTree) walk_s += rec.seconds;
    if (rec.kernel == Kernel::PredictCorrect) pred_s += rec.seconds;
  }
  EXPECT_DOUBLE_EQ(r.seconds[static_cast<std::size_t>(Kernel::WalkTree)],
                   walk_s);
  EXPECT_DOUBLE_EQ(
      r.seconds[static_cast<std::size_t>(Kernel::PredictCorrect)], pred_s);
  EXPECT_EQ(r.ops[static_cast<std::size_t>(Kernel::WalkTree)],
            records[2].ops);
  EXPECT_GT(records[2].ops.fp32_fma, 0u);

  // Cumulative accessors read the same sink.
  EXPECT_GE(sim.timers().calls(Kernel::WalkTree), 2u); // bootstrap + step
  EXPECT_GT(sim.kernel_ops(Kernel::WalkTree).fp32_fma, 0u);
}

TEST(SimulationRuntime, StepsBitIdenticalAcrossWorkerCounts) {
  auto run = [](int workers) {
    Device dev(workers);
    ScopedDevice scope(dev);
    nbody::SimConfig cfg;
    cfg.auto_rebuild = false;
    cfg.fixed_rebuild_interval = 4;
    nbody::Simulation sim(uniform_cloud(768), cfg);
    sim.run(6);
    return sim;
  };
  const auto a = run(1);
  const auto b = run(4);
  const auto& pa = a.particles();
  const auto& pb = b.particles();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa.x[i], pb.x[i]) << "body " << i;
    EXPECT_EQ(pa.y[i], pb.y[i]) << "body " << i;
    EXPECT_EQ(pa.z[i], pb.z[i]) << "body " << i;
    EXPECT_EQ(pa.vx[i], pb.vx[i]) << "body " << i;
  }
}

// --- one-lane boundaries ---------------------------------------------------

TEST(LaneConfig, ClampedAndSingleLaneDevicesExecuteCrossStreamDags) {
  // Launches run in issue order whatever the worker count. At both
  // boundaries — a lone worker, and a pool wider than the DAG — a
  // cross-stream DAG runs with its dependency order intact.
  for (int workers : {1, 8}) {
    Device dev(workers);
    Stream a("A");
    Stream b("B");
    std::atomic<int> stage{0};
    LaunchDesc desc;
    desc.items = 1;
    desc.label = "lane-dag";
    desc.stream = &a;
    const Event e1 = dev.launch(desc, [&stage](simt::OpCounts&) {
      int expected = 0;
      stage.compare_exchange_strong(expected, 1);
    });
    desc.stream = &b;
    desc.deps = {e1, Event{}, Event{}, Event{}};
    const Event e2 = dev.launch(desc, [&stage](simt::OpCounts&) {
      int expected = 1;
      stage.compare_exchange_strong(expected, 2);
    });
    desc.stream = &a;
    desc.deps = {e2, Event{}, Event{}, Event{}};
    (void)dev.launch(desc, [&stage](simt::OpCounts&) {
      int expected = 2;
      stage.compare_exchange_strong(expected, 3);
    });
    EXPECT_EQ(stage.load(), 3) << "workers " << workers;
  }
}

// --- schedule stress -------------------------------------------------------

TEST(LaunchEngine, StressRandomCrossStreamDagsKeepDependencyOrder) {
  // Stress over random DAGs on 4 streams of one device: every body asserts
  // that all of its dependencies published their completion flags before
  // it started, and that it runs right after the launch issued before it
  // (launches run to completion in issue order).
  Xoshiro256 rng(99);
  constexpr int kN = 200;
  for (int round = 0; round < 4; ++round) {
    Device dev(4);
    Stream streams[4] = {Stream{"s0"}, Stream{"s1"}, Stream{"s2"},
                         Stream{"s3"}};
    std::vector<std::atomic<int>> done(kN + 1);
    for (auto& d : done) d.store(0, std::memory_order_relaxed);
    std::atomic<int> violations{0};
    std::atomic<int> last{0};
    std::vector<Event> events(kN + 1);
    for (int i = 1; i <= kN; ++i) {
      LaunchDesc desc;
      desc.label = "stress";
      desc.items = 1;
      desc.stream = &streams[rng.next() % 4];
      std::array<std::uint64_t, 4> dep_ids{};
      for (int d = 0; d < 2; ++d) {
        if (i > 1 && (rng.next() & 1u) != 0) {
          const auto j = static_cast<std::size_t>(
              1 + rng.next() % static_cast<std::uint64_t>(i - 1));
          desc.deps[static_cast<std::size_t>(d)] = events[j];
          dep_ids[static_cast<std::size_t>(d)] = events[j].id;
        }
      }
      std::atomic<int>* flags = done.data();
      events[static_cast<std::size_t>(i)] = dev.launch(
          desc, [flags, dep_ids, i, &violations, &last](simt::OpCounts&) {
            for (std::uint64_t d : dep_ids) {
              if (d != 0 &&
                  flags[d].load(std::memory_order_acquire) == 0) {
                violations.fetch_add(1, std::memory_order_relaxed);
              }
            }
            if (last.exchange(i, std::memory_order_relaxed) != i - 1) {
              violations.fetch_add(1, std::memory_order_relaxed);
            }
            flags[i].store(1, std::memory_order_release);
          });
    }
    EXPECT_EQ(violations.load(), 0) << "round " << round;
    for (int i = 1; i <= kN; ++i) {
      ASSERT_EQ(done[static_cast<std::size_t>(i)].load(), 1)
          << "launch " << i << " never ran";
    }
  }
}

} // namespace
} // namespace gothic::runtime
