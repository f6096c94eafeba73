// perfbench — the benchmark of record (perfbench/README.md).
//
//   perfbench --workload <m31-64k|m31-64k-k2|pool-512> --seed <n>
//             --seconds <s> --trace <0|1> [--scratch <dir>] [--tol-scale <x>]
//
// Repeats one pinned workload until --seconds have elapsed, checks every
// repetition's outputs outside the timed region, and prints as its last
// stdout line one JSON object {correct, attempted, failed, metrics}.
// --trace 0 reports the end-to-end metrics of untraced repetitions;
// --trace 1 alternates untraced and traced repetitions and reports the
// per-layer metrics of the traced ones plus the tracing overhead.
//
// The program is driven only through its public calls: the scenario
// registry, the Simulation / ShardedSimulation constructors and step(),
// and the SessionManager's submit / wait / info / stats. Layer numbers
// come from timing those calls and from the data the program hands out
// (StepReport, LaunchRecords through a RecordListener, ShardStepStats,
// SessionInfo, per-session step telemetry and Device gauges).
#include "gravity/walk_tree.hpp"
#include "nbody/sharded_simulation.hpp"
#include "nbody/simulation.hpp"
#include "perfmodel/exec_model.hpp"
#include "perfmodel/gpu_spec.hpp"
#include "perfmodel/tuning.hpp"
#include "runtime/device.hpp"
#include "scenario/registry.hpp"
#include "service/session_manager.hpp"
#include "simt/simd.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

extern char** environ;

namespace {

using namespace gothic;

constexpr std::size_t kKernels = static_cast<std::size_t>(Kernel::Count);

// --- workload constants ----------------------------------------------------

constexpr std::size_t kM31N = 65536;
/// Simulated end time of the m31 workloads: at dt_max = 1/32 the default
/// block steps take ~110 step() calls to get there.
constexpr double kM31TEnd = 0.5;
constexpr std::size_t kForceSample = 256;

constexpr int kPoolDevices = 2;
constexpr int kPoolInFlight = 8;
constexpr int kPoolSessions = 128;
constexpr std::size_t kPoolN = 512;
constexpr int kPoolSteps = 32;
/// Extra pool constructions per run, so setup_s is a median of many.
constexpr int kPoolSetupRepeats = 16;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/// Untraced runs must not inherit a listener or the flight recorder, and
/// the pinned workloads run the shipped defaults: clear every GOTHIC_*
/// variable before any Device, Simulation or Session reads one.
void clear_gothic_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("GOTHIC_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) unsetenv(n.c_str());
}

// --- statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Exact percentiles of raw samples (nearest rank, so every reported
/// value is an observed sample).
struct Percentiles {
  std::size_t n = 0;
  double min = 0.0, p50 = 0.0, p90 = 0.0, max = 0.0;
};

Percentiles percentiles(std::vector<double> v) {
  Percentiles p;
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  const auto rank = [&v](double q) {
    const auto r = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(r, 1, v.size()) - 1];
  };
  p.n = v.size();
  p.min = v.front();
  p.p50 = rank(0.5);
  p.p90 = rank(0.9);
  p.max = v.back();
  if (!(p.min <= p.p50 && p.p50 <= p.p90 && p.p90 <= p.max)) {
    throw std::logic_error("percentiles out of order");
  }
  return p;
}

// --- layer attribution -----------------------------------------------------

/// Launch records and step marks of one traced repetition. Simulation
/// calls on_record under its device's launch lock and ShardedSimulation
/// forwards serially after each step, so no further locking is needed.
class LayerTally : public runtime::RecordListener {
public:
  std::array<double, kKernels> seconds{};
  std::array<simt::OpCounts, kKernels> ops{};
  std::array<std::uint64_t, kKernels> launches{};
  double let_import_s = 0.0;
  std::uint64_t records = 0;
  double kernel_s = 0.0;  ///< sum of StepMark::kernel_seconds
  double overlap_s = 0.0; ///< sum of StepMark::raw_overlap_seconds()
  double walk_imbalance_sum = 0.0;
  double shard_imbalance_sum = 0.0;
  std::uint64_t marks = 0;
  std::uint64_t let_cells = 0, let_bodies = 0;

  void on_record(const runtime::LaunchRecord& rec) override {
    ++records;
    if (std::strcmp(rec.label, "letImport") == 0) {
      let_import_s += rec.seconds;
      return;
    }
    const auto k = static_cast<std::size_t>(rec.kernel);
    seconds[k] += rec.seconds;
    ops[k] += rec.ops;
    ++launches[k];
  }
  void on_step(const runtime::StepMark& m) override {
    kernel_s += m.kernel_seconds;
    overlap_s += m.raw_overlap_seconds();
    walk_imbalance_sum += m.walk_imbalance;
    shard_imbalance_sum += m.shard_imbalance();
    let_cells += m.let_cells;
    let_bodies += m.let_bodies;
    ++marks;
  }
};

/// Per-layer metric names and units, in output order. Every traced run
/// prints all of them; a layer the workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = [] {
    std::vector<std::pair<std::string, std::string>> l = {
        {"galaxy.ic_s", "s"},
        {"nbody.construct_s", "s"},
        {"nbody.steps", "count"},
        {"nbody.steps.min", "count"},
        {"nbody.steps.max", "count"},
        {"nbody.rebuilds", "count"},
        {"nbody.rebuilds.min", "count"},
        {"nbody.rebuilds.max", "count"},
        {"nbody.active_updates", "count"},
        {"nbody.host_overhead_s", "s"},
        {"nbody.unattributed_s", "s"},
        {"octree.make_tree_s", "s"},
        {"octree.calc_node_s", "s"},
        {"gravity.walk_tree_s", "s"},
        {"gravity.interactions", "count"},
        {"gravity.mac_evals", "count"},
        {"gravity.interactions_per_s", "1/s"},
        {"gravity.walk_imbalance", "ratio"},
        {"gravity.let_import_s", "s"},
        {"gravity.let_cells_per_step", "count"},
        {"gravity.let_bodies_per_step", "count"},
    };
    for (const char* k : {"walk_tree", "calc_node", "make_tree", "pred_corr"}) {
      const std::string p = std::string("simt.") + k;
      l.insert(l.end(), {{p + ".fp32_inst", "count"},
                         {p + ".fp32_inst.min", "count"},
                         {p + ".fp32_inst.max", "count"},
                         {p + ".int_inst", "count"},
                         {p + ".int_inst.min", "count"},
                         {p + ".int_inst.max", "count"},
                         {p + ".syncwarp", "count"},
                         {p + ".bytes_computed", "bytes"},
                         {p + ".flop_per_byte", "flop/byte"}});
    }
    l.insert(l.end(), {{"perfmodel.v100_s", "s"},
                       {"perfmodel.v100_s.min", "s"},
                       {"perfmodel.v100_s.max", "s"},
                       {"perfmodel.p100_s", "s"},
                       {"perfmodel.p100_s.min", "s"},
                       {"perfmodel.p100_s.max", "s"},
                       {"runtime.kernel_s", "s"},
                       {"runtime.span_s", "s"},
                       {"runtime.overlap_s", "s"},
                       {"runtime.launches", "count"},
                       {"runtime.host_us_per_launch", "us"},
                       {"runtime.worker_busy_s", "s"},
                       {"runtime.worker_busy_max_s", "s"},
                       {"runtime.arena_bytes", "bytes"},
                       {"runtime.shard_imbalance", "ratio"},
                       {"service.busy_ms_p50", "ms"},
                       {"service.queue_wait_ms_p50", "ms"},
                       {"service.queue_wait_ms_p90", "ms"},
                       {"service.decisions", "count"},
                       {"service.wait_max", "count"},
                       {"trace.overhead_s", "s"}});
    return l;
  }();
  return list;
}

/// Metrics whose min and max across traced repetitions are reported
/// next to their median (behaviour counts: ROADMAP item 1's wall-clock-fed
/// rebuild policy shows up here, not as noise in wall_s).
bool has_spread(const std::string& name) {
  return name == "nbody.steps" || name == "nbody.rebuilds" ||
         name.rfind("perfmodel.", 0) == 0 ||
         (name.rfind("simt.", 0) == 0 &&
          (name.ends_with(".fp32_inst") || name.ends_with(".int_inst")));
}

using Values = std::map<std::string, double>;

const char* simt_key(std::size_t k) {
  static constexpr const char* keys[kKernels] = {"walk_tree", "calc_node",
                                                 "make_tree", "pred_corr"};
  return keys[k];
}

/// The simt op counts and the perfmodel V100/P100 seconds of one run's
/// per-kernel counts (walkTree/calcNode/makeTree/pred-corr; V100 in Volta
/// mode, P100 without the Volta-only sync counts).
void op_count_values(const std::array<simt::OpCounts, kKernels>& ops,
                     const std::array<std::uint64_t, kKernels>& launches,
                     Values& v) {
  using perfmodel::GothicKernel;
  static constexpr GothicKernel model[kKernels] = {
      GothicKernel::WalkTree, GothicKernel::CalcNode, GothicKernel::MakeTree,
      GothicKernel::Predict};
  const perfmodel::GpuSpec v100 = perfmodel::tesla_v100();
  const perfmodel::GpuSpec p100 = perfmodel::tesla_p100();
  double t_v100 = 0.0, t_p100 = 0.0;
  for (std::size_t k = 0; k < kKernels; ++k) {
    const simt::OpCounts& c = ops[k];
    const std::string p = std::string("simt.") + simt_key(k);
    v[p + ".fp32_inst"] = static_cast<double>(c.fp32_core_instructions());
    v[p + ".int_inst"] = static_cast<double>(c.int_ops);
    v[p + ".syncwarp"] = static_cast<double>(c.syncwarp);
    v[p + ".bytes_computed"] = static_cast<double>(c.total_bytes());
    v[p + ".flop_per_byte"] =
        c.total_bytes() > 0 ? static_cast<double>(c.flops()) /
                                  static_cast<double>(c.total_bytes())
                            : 0.0;
    if (launches[k] == 0) continue;
    perfmodel::KernelLaunchInfo info;
    info.resources = perfmodel::kernel_resources(
        model[k], model[k] == GothicKernel::CalcNode ? 128 : 512);
    info.invocations = static_cast<int>(launches[k]);
    t_v100 += perfmodel::predict_kernel_time(v100, c, info).total_s;
    simt::OpCounts pascal = c;
    pascal.syncwarp = 0;
    pascal.tile_sync = 0;
    t_p100 += perfmodel::predict_kernel_time(p100, pascal, info).total_s;
  }
  v["perfmodel.v100_s"] = t_v100;
  v["perfmodel.p100_s"] = t_p100;
}

// --- one repetition --------------------------------------------------------

struct Rep {
  bool traced = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0.0;
  double wall_s = 0.0;
  /// Host seconds per step(): every step of an m31 run; per pooled session
  /// its busy seconds over its steps.
  std::vector<double> step_s;
  /// Seconds per "session": an m31 run's setup + wall; per pooled session
  /// submit -> terminal.
  std::vector<double> session_s;
  double sessions_per_s = 0.0;
  /// Process peak RSS right after this repetition's timed region.
  double rss_mb = 0.0;
  int lanes = 0; ///< effective stream lanes of the (first) device
  Values layers; ///< traced repetitions only
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".";
  double tol_scale = 1.0;
};

/// Worst relative tree-vs-direct force error over a fixed strided sample,
/// against a double-precision direct sum over every source; floored by a
/// fraction of the sample's RMS acceleration like the physics-oracle suite.
double sample_force_error(const nbody::Particles& p,
                          const gravity::WalkConfig& w) {
  const std::size_t n = p.size();
  const double eps2 = static_cast<double>(w.eps) * w.eps;
  const double g = w.g;
  std::vector<std::array<double, 3>> ref(kForceSample);
  std::vector<std::size_t> idx(kForceSample);
  double sum_sq = 0.0;
  for (std::size_t s = 0; s < kForceSample; ++s) {
    const std::size_t i = s * n / kForceSample;
    idx[s] = i;
    double ax = 0, ay = 0, az = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double dx = static_cast<double>(p.x[j]) - p.x[i];
      const double dy = static_cast<double>(p.y[j]) - p.y[i];
      const double dz = static_cast<double>(p.z[j]) - p.z[i];
      const double r2 = dx * dx + dy * dy + dz * dz + eps2;
      const double f = g * p.m[j] / (r2 * std::sqrt(r2));
      ax += f * dx;
      ay += f * dy;
      az += f * dz;
    }
    ref[s] = {ax, ay, az};
    sum_sq += ax * ax + ay * ay + az * az;
  }
  const double a_rms = std::sqrt(sum_sq / static_cast<double>(kForceSample));
  double worst = 0.0;
  for (std::size_t s = 0; s < kForceSample; ++s) {
    const std::size_t i = idx[s];
    const auto& r = ref[s];
    const double dx = p.ax[i] - r[0], dy = p.ay[i] - r[1], dz = p.az[i] - r[2];
    const double mag = std::sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2]);
    worst = std::max(worst, std::sqrt(dx * dx + dy * dy + dz * dz) /
                                std::max(mag, 0.05 * a_rms));
  }
  return worst;
}

struct RunShape {
  int nproc = 1;
  int workers = 1; ///< per device
  int shards = 1;
  int devices = 1;
};

/// One m31 repetition: ICs + engine construction (setup_s), steps to
/// kM31TEnd (wall_s), then the untimed checks. `Engine` is
/// nbody::Simulation or nbody::ShardedSimulation.
template <typename Engine>
Rep m31_rep(const Options& o, const RunShape& shape, bool traced,
            std::uint64_t ic_seed) {
  const scenario::Scenario& sc = scenario::find_scenario("m31");
  Rep rep;
  rep.traced = traced;

  const double t0 = now_s();
  std::optional<runtime::Device> dev;
  std::optional<runtime::ScopedDevice> scope;
  if (shape.shards == 1) {
    dev.emplace(shape.workers);
    scope.emplace(*dev);
  }
  nbody::Particles ics = sc.make(kM31N, ic_seed);
  const double t1 = now_s();
  std::unique_ptr<Engine> sim;
  if constexpr (std::is_same_v<Engine, nbody::ShardedSimulation>) {
    nbody::ShardOptions so;
    so.shards = shape.shards;
    so.workers = shape.workers;
    sim = std::make_unique<Engine>(std::move(ics),
                                   scenario::scenario_sim_config(sc), so);
  } else {
    sim = std::make_unique<Engine>(std::move(ics),
                                   scenario::scenario_sim_config(sc));
  }
  const double t2 = now_s();
  rep.setup_s = t2 - t0;

  // gothic_run's diagnostic baseline: refresh all forces, then E0.
  sim->refresh_forces();
  const double e0 = sim->energies().total();
  const int rebuilds0 = sim->rebuild_count();

  auto device_at = [&](int d) -> runtime::Device& {
    if constexpr (std::is_same_v<Engine, nbody::ShardedSimulation>) {
      return sim->shard_device(d);
    } else {
      (void)d;
      return *dev;
    }
  };
  double busy0 = 0.0;
  for (int d = 0; d < shape.devices; ++d) {
    busy0 += device_at(d).worker_busy_seconds_total();
  }

  LayerTally tally;
  if (traced) sim->set_instrumentation_listener(&tally);
  gravity::WalkStats walk;
  double span_s = 0.0, host_steps_s = 0.0;
  std::uint64_t active = 0;
  rep.step_s.reserve(256);
  bool step_failed = false;
  const double w0 = now_s();
  try {
    while (sim->time() < kM31TEnd && rep.step_s.size() < 100000) {
      const double s0 = now_s();
      const nbody::StepReport r = sim->step();
      const double dt = now_s() - s0;
      rep.step_s.push_back(dt);
      host_steps_s += dt;
      span_s += r.wall_seconds;
      walk += r.walk_stats;
      active += r.n_active;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: step failed: %s\n", e.what());
    step_failed = true;
  }
  rep.wall_s = now_s() - w0;
  rep.rss_mb = peak_rss_mb();
  if (traced) sim->set_instrumentation_listener(nullptr);
  rep.lanes = device_at(0).lane_count();

  const auto steps = static_cast<std::uint64_t>(rep.step_s.size());
  rep.attempted = steps + (step_failed ? 1 : 0);
  rep.session_s.push_back(rep.setup_s + rep.wall_s);
  rep.sessions_per_s = 1.0 / (rep.setup_s + rep.wall_s);

  // Checks (untimed): energy drift at t_end and the sampled force error.
  bool ok = !step_failed;
  if (ok) {
    sim->refresh_forces();
    const double e1 = sim->energies().total();
    const double drift = std::fabs((e1 - e0) / std::max(std::fabs(e0), 1e-30));
    const double ferr = sample_force_error(sim->particles(), sim->config().walk);
    const bool e_ok = drift < sc.energy_tol * o.tol_scale;
    const bool f_ok = ferr < sc.force_tol * o.tol_scale;
    std::fprintf(stderr,
                 "perfbench: %s rep: t=%.6g steps=%zu |dE/E|=%.3e (tol %.1e) "
                 "force_err=%.3e (tol %.1e)%s\n",
                 traced ? "traced" : "untraced", sim->time(),
                 rep.step_s.size(), drift, sc.energy_tol * o.tol_scale, ferr,
                 sc.force_tol * o.tol_scale,
                 e_ok && f_ok ? "" : " CHECK FAILED");
    ok = e_ok && f_ok;
  }
  if (!ok) rep.failed = rep.attempted;
  if (!traced) return rep;

  // Per-layer values of the traced repetition.
  Values& v = rep.layers;
  const double n_steps = static_cast<double>(steps);
  v["galaxy.ic_s"] = t1 - t0;
  v["nbody.construct_s"] = t2 - t1;
  v["nbody.steps"] = n_steps;
  v["nbody.rebuilds"] = sim->rebuild_count() - rebuilds0;
  v["nbody.active_updates"] = static_cast<double>(active);
  v["nbody.host_overhead_s"] = host_steps_s - span_s;
  v["nbody.unattributed_s"] = rep.wall_s - host_steps_s;
  v["octree.make_tree_s"] =
      tally.seconds[static_cast<std::size_t>(Kernel::MakeTree)];
  v["octree.calc_node_s"] =
      tally.seconds[static_cast<std::size_t>(Kernel::CalcNode)];
  const double walk_s = tally.seconds[static_cast<std::size_t>(Kernel::WalkTree)];
  v["gravity.walk_tree_s"] = walk_s;
  v["gravity.interactions"] = static_cast<double>(walk.interactions);
  v["gravity.mac_evals"] = static_cast<double>(walk.mac_evals);
  v["gravity.interactions_per_s"] =
      walk_s > 0.0 ? static_cast<double>(walk.interactions) / walk_s : 0.0;
  const double marks = std::max<double>(1.0, static_cast<double>(tally.marks));
  v["gravity.walk_imbalance"] = tally.walk_imbalance_sum / marks;
  v["gravity.let_import_s"] = tally.let_import_s;
  v["gravity.let_cells_per_step"] = static_cast<double>(tally.let_cells) / marks;
  v["gravity.let_bodies_per_step"] =
      static_cast<double>(tally.let_bodies) / marks;
  op_count_values(tally.ops, tally.launches, v);
  v["runtime.kernel_s"] = tally.kernel_s;
  v["runtime.span_s"] = span_s;
  v["runtime.overlap_s"] = tally.overlap_s;
  v["runtime.launches"] = static_cast<double>(tally.records);
  v["runtime.host_us_per_launch"] =
      tally.records > 0 ? (host_steps_s - span_s) * 1e6 /
                              static_cast<double>(tally.records)
                        : 0.0;
  double busy = -busy0, busy_max = 0.0, arena = 0.0;
  for (int d = 0; d < shape.devices; ++d) {
    runtime::Device& dv = device_at(d);
    busy += dv.worker_busy_seconds_total();
    busy_max = std::max(busy_max, dv.worker_busy_seconds_max());
    arena += static_cast<double>(dv.arena_capacity());
  }
  v["runtime.worker_busy_s"] = busy;
  v["runtime.worker_busy_max_s"] = busy_max;
  v["runtime.arena_bytes"] = arena;
  v["runtime.shard_imbalance"] = tally.shard_imbalance_sum / marks;

  // Attribution identities: span + host overhead + unattributed = wall
  // (the residual is unattributed_s itself, printed, never hidden), and
  // the listener's kernel - overlap equals the StepReports' span.
  const double closed = span_s + (host_steps_s - span_s) +
                        (rep.wall_s - host_steps_s);
  const bool wall_closes = std::fabs(closed - rep.wall_s) <= 1e-9 * rep.wall_s;
  const bool span_closes =
      std::fabs(tally.kernel_s - tally.overlap_s - span_s) <=
      1e-9 * std::max(span_s, 1e-12);
  if (!wall_closes || !span_closes) {
    std::fprintf(stderr,
                 "perfbench: attribution does not close: span %.9g + host "
                 "%.9g + unattributed %.9g vs wall %.9g; kernel %.9g - "
                 "overlap %.9g vs span %.9g\n",
                 span_s, host_steps_s - span_s, rep.wall_s - host_steps_s,
                 rep.wall_s, tally.kernel_s, tally.overlap_s, span_s);
    rep.failed = rep.attempted;
  }
  return rep;
}

// --- pool-512 --------------------------------------------------------------

service::SessionConfig pool_session(std::uint64_t seed, int i) {
  const auto& reg = scenario::registry();
  service::SessionConfig c;
  c.scenario = reg[static_cast<std::size_t>(i) % reg.size()];
  c.n = kPoolN;
  c.steps = kPoolSteps;
  // Session seeds are base + i; the base never maps to 0 (= default seed).
  c.seed = (seed % 1000000007ULL + 1) * 1000 + static_cast<std::uint64_t>(i);
  return c;
}

/// Number after `"key": ` in one JSON line (0 when absent).
double json_field(const std::string& line, const std::string& key,
                  std::size_t from = 0) {
  const std::string pat = "\"" + key + "\": ";
  const std::size_t at = line.find(pat, from);
  if (at == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + at + pat.size(), nullptr);
}

/// Sums over one session's step telemetry (trace::TelemetryWriter JSONL).
struct Telemetry {
  double kernel_s = 0.0, span_s = 0.0, overlap_s = 0.0, walk_imb = 0.0;
  std::uint64_t steps = 0, rebuilds = 0, launches = 0;
  std::array<double, kKernels> seconds{};
};

void read_telemetry(const std::string& path, Telemetry& t) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing telemetry " + path);
  std::string line, last;
  while (std::getline(in, line)) {
    if (line.find("\"type\": \"step\"") == std::string::npos) continue;
    t.kernel_s += json_field(line, "kernel_seconds");
    t.span_s += json_field(line, "wall_seconds");
    t.overlap_s += json_field(line, "raw_overlap_seconds");
    t.walk_imb += json_field(line, "walk_imbalance");
    if (line.find("\"rebuilt\": true") != std::string::npos) ++t.rebuilds;
    ++t.steps;
    last = line;
  }
  // The last step line carries the cumulative per-kernel figures.
  for (std::size_t k = 0; k < kKernels; ++k) {
    const std::string name(kernel_name(static_cast<Kernel>(k)));
    const std::size_t at = last.find("\"" + name + "\": {");
    if (at == std::string::npos) continue;
    t.seconds[k] += json_field(last, "seconds", at);
    t.launches += static_cast<std::uint64_t>(json_field(last, "launches", at));
  }
}

Rep pool_rep(const Options& o, const RunShape& shape, bool traced, int rep_index) {
  Rep rep;
  rep.traced = traced;
  namespace fs = std::filesystem;
  const fs::path tdir =
      fs::path(o.scratch) / ("telemetry-" + std::to_string(getpid()) + "-" +
                             std::to_string(rep_index));
  if (traced) fs::create_directories(tdir);

  std::vector<double> latency(kPoolSessions, 0.0);
  std::vector<std::uint64_t> ids(kPoolSessions, 0);
  std::vector<std::vector<real>> finals(scenario::registry().size());
  std::vector<service::SessionInfo> infos;
  service::ServiceStats stats;
  double busy = 0.0, busy_max = 0.0, arena = 0.0;
  {
    const double t0 = now_s();
    service::PoolOptions po;
    po.devices = shape.devices;
    po.workers = shape.workers;
    service::SessionManager pool(po);
    rep.setup_s = now_s() - t0;

    // Closed loop: kPoolInFlight clients, each submits its next session
    // only after its previous one became terminal.
    std::atomic<int> next{0};
    std::atomic<int> client_errors{0};
    std::vector<double> end_at(kPoolInFlight, 0.0);
    const double w0 = now_s();
    auto client = [&](int c) {
      try {
        for (;;) {
          const int i = next.fetch_add(1);
          if (i >= kPoolSessions) return;
          const auto slot = static_cast<std::size_t>(i);
          service::SessionConfig cfg = pool_session(o.seed, i);
          if (traced) {
            cfg.telemetry_path = (tdir / (std::to_string(i) + ".jsonl")).string();
          }
          const double s0 = now_s();
          ids[slot] = pool.submit(std::move(cfg));
          (void)pool.wait(ids[slot]);
          end_at[static_cast<std::size_t>(c)] = now_s();
          latency[slot] = end_at[static_cast<std::size_t>(c)] - s0;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: pool client failed: %s\n", e.what());
        client_errors.fetch_add(1);
      }
    };
    {
      std::vector<std::jthread> clients;
      for (int c = 0; c < kPoolInFlight; ++c) clients.emplace_back(client, c);
    }
    if (client_errors.load() > 0) throw std::runtime_error("pool client failed");
    rep.wall_s = *std::max_element(end_at.begin(), end_at.end()) - w0;
    rep.rss_mb = peak_rss_mb();

    infos.reserve(kPoolSessions);
    for (const std::uint64_t id : ids) infos.push_back(pool.info(id));
    stats = pool.stats();
    for (std::size_t s = 0; s < finals.size(); ++s) {
      if (infos[s].state == service::SessionState::Completed) {
        finals[s] = pool.final_state(ids[s]);
      }
    }
    rep.lanes = pool.pool_device(0).lane_count();
    for (int d = 0; d < pool.device_count(); ++d) {
      const runtime::Device& dv = pool.pool_device(d);
      busy += dv.worker_busy_seconds_total();
      busy_max = std::max(busy_max, dv.worker_busy_seconds_max());
      arena += static_cast<double>(dv.arena_capacity());
    }
  }

  rep.attempted = kPoolSessions;
  rep.session_s = latency;
  rep.sessions_per_s = kPoolSessions / rep.wall_s;
  std::vector<double> busy_ms, wait_ms;
  double busy_sum = 0.0;
  std::uint64_t steps = 0;
  for (std::size_t i = 0; i < infos.size(); ++i) {
    const service::SessionInfo& si = infos[i];
    if (si.state != service::SessionState::Completed) {
      std::fprintf(stderr, "perfbench: session %s ended %s: %s\n",
                   si.name.c_str(), service::session_state_name(si.state),
                   si.error.c_str());
      ++rep.failed;
    }
    if (si.steps_done > 0) rep.step_s.push_back(si.busy_seconds / si.steps_done);
    busy_ms.push_back(si.busy_seconds * 1e3);
    wait_ms.push_back((latency[i] - si.busy_seconds) * 1e3);
    busy_sum += si.busy_seconds;
    steps += static_cast<std::uint64_t>(si.steps_done);
  }
  // Oracle (untimed): the first session of every scenario must equal a
  // solo run of the same scenario + seed bit for bit.
  for (std::size_t s = 0; s < finals.size(); ++s) {
    if (finals[s].empty()) continue; // already counted as failed
    const std::vector<real> solo =
        service::solo_final_state(pool_session(o.seed, static_cast<int>(s)));
    if (solo.size() != finals[s].size() ||
        std::memcmp(solo.data(), finals[s].data(), solo.size() * sizeof(real)) != 0) {
      std::fprintf(stderr, "perfbench: session %zu (%s) differs from its solo run\n",
                   s, scenario::registry()[s].name.c_str());
      ++rep.failed;
    }
  }
  if (!traced) return rep;

  Telemetry tel;
  for (int i = 0; i < kPoolSessions; ++i) {
    read_telemetry((tdir / (std::to_string(i) + ".jsonl")).string(), tel);
  }
  std::filesystem::remove_all(tdir);

  // Pool seconds are summed over sessions and divided by the pool's
  // devices, so they are shares of the pool's wall_s.
  const double nd = shape.devices;
  Values& v = rep.layers;
  v["nbody.steps"] = static_cast<double>(steps);
  v["nbody.rebuilds"] = static_cast<double>(tel.rebuilds);
  v["nbody.host_overhead_s"] = (busy_sum - tel.span_s) / nd;
  v["nbody.unattributed_s"] = rep.wall_s - busy_sum / nd;
  v["octree.make_tree_s"] = tel.seconds[static_cast<std::size_t>(Kernel::MakeTree)] / nd;
  v["octree.calc_node_s"] = tel.seconds[static_cast<std::size_t>(Kernel::CalcNode)] / nd;
  v["gravity.walk_tree_s"] = tel.seconds[static_cast<std::size_t>(Kernel::WalkTree)] / nd;
  v["gravity.walk_imbalance"] =
      tel.steps > 0 ? tel.walk_imb / static_cast<double>(tel.steps) : 0.0;
  v["runtime.kernel_s"] = tel.kernel_s / nd;
  v["runtime.span_s"] = tel.span_s / nd;
  v["runtime.overlap_s"] = tel.overlap_s / nd;
  v["runtime.launches"] = static_cast<double>(tel.launches);
  v["runtime.host_us_per_launch"] =
      tel.launches > 0 ? (busy_sum - tel.span_s) * 1e6 /
                             static_cast<double>(tel.launches)
                       : 0.0;
  v["runtime.worker_busy_s"] = busy;
  v["runtime.worker_busy_max_s"] = busy_max;
  v["runtime.arena_bytes"] = arena;
  v["service.busy_ms_p50"] = percentiles(busy_ms).p50;
  const Percentiles w = percentiles(wait_ms);
  v["service.queue_wait_ms_p50"] = w.p50;
  v["service.queue_wait_ms_p90"] = w.p90;
  v["service.decisions"] = static_cast<double>(stats.decisions);
  v["service.wait_max"] = static_cast<double>(stats.wait_max);

  // Attribution identities (telemetry prints 17 significant digits).
  const double closed = v["runtime.span_s"] + v["nbody.host_overhead_s"] +
                        v["nbody.unattributed_s"];
  const bool wall_closes = std::fabs(closed - rep.wall_s) <= 1e-9 * rep.wall_s;
  const bool span_closes =
      std::fabs(tel.kernel_s - tel.overlap_s - tel.span_s) <=
      1e-9 * std::max(tel.span_s, 1e-12);
  if (!wall_closes || !span_closes || tel.steps != steps) {
    std::fprintf(stderr,
                 "perfbench: pool attribution does not close (wall %.9g vs "
                 "%.9g, kernel-overlap %.9g vs span %.9g, steps %llu vs %llu)\n",
                 rep.wall_s, closed, tel.kernel_s - tel.overlap_s, tel.span_s,
                 static_cast<unsigned long long>(tel.steps),
                 static_cast<unsigned long long>(steps));
    rep.failed = rep.attempted;
  }
  return rep;
}

/// Op counts, IC and construction seconds of the pool's sessions: the
/// sessions run a fixed rebuild cadence, so a solo replay of each (on a
/// private device shaped like one pool device) executes exactly the
/// launches the pooled run did. Untimed with respect to the pool.
Values pool_replay(const Options& o, const RunShape& shape) {
  std::array<simt::OpCounts, kKernels> ops{};
  std::array<std::uint64_t, kKernels> launches{};
  gravity::WalkStats walk;
  std::uint64_t active = 0;
  double ic_s = 0.0, construct_s = 0.0;
  runtime::Device dev(shape.workers);
  runtime::ScopedDevice scope(dev);
  for (int i = 0; i < kPoolSessions; ++i) {
    const service::SessionConfig cfg = pool_session(o.seed, i);
    const double t0 = now_s();
    nbody::Particles p = service::session_workload(cfg);
    const double t1 = now_s();
    nbody::Simulation sim(std::move(p), service::session_sim_config(cfg));
    construct_s += now_s() - t1;
    ic_s += t1 - t0;
    LayerTally tally;
    sim.set_instrumentation_listener(&tally);
    for (int s = 0; s < cfg.steps; ++s) {
      const nbody::StepReport r = sim.step();
      walk += r.walk_stats;
      active += r.n_active;
    }
    sim.set_instrumentation_listener(nullptr);
    for (std::size_t k = 0; k < kKernels; ++k) {
      ops[k] += tally.ops[k];
      launches[k] += tally.launches[k];
    }
  }
  Values v;
  v["galaxy.ic_s"] = ic_s;
  v["nbody.construct_s"] = construct_s;
  v["nbody.active_updates"] = static_cast<double>(active);
  v["gravity.interactions"] = static_cast<double>(walk.interactions);
  v["gravity.mac_evals"] = static_cast<double>(walk.mac_evals);
  op_count_values(ops, launches, v);
  return v;
}

// --- main ------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string val = argv[++i];
    std::size_t used = 0;
    if (a == "--workload") {
      o.workload = val;
      used = val.size();
      have_workload = true;
    } else if (a == "--seed") {
      if (val.empty() || val[0] < '0' || val[0] > '9') {
        throw std::invalid_argument("--seed takes a non-negative integer");
      }
      o.seed = std::stoull(val, &used);
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::stod(val, &used);
    } else if (a == "--trace") {
      if (val != "0" && val != "1") throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = val == "1";
      used = val.size();
    } else if (a == "--scratch") {
      o.scratch = val;
      used = val.size();
    } else if (a == "--tol-scale") {
      o.tol_scale = std::stod(val, &used);
    } else {
      throw std::invalid_argument("unknown option " + a);
    }
    if (used != val.size()) throw std::invalid_argument("bad value for " + a);
  }
  if (!have_workload || !have_seed) {
    throw std::invalid_argument("--workload and --seed are required");
  }
  if (o.workload != "m31-64k" && o.workload != "m31-64k-k2" &&
      o.workload != "pool-512") {
    throw std::invalid_argument("unknown workload " + o.workload);
  }
  return o;
}

int run(const Options& o) {
  RunShape shape;
  shape.nproc = nproc();
  const int half = std::max(1, shape.nproc / 2);
  if (o.workload == "m31-64k") {
    shape.workers = shape.nproc;
  } else if (o.workload == "m31-64k-k2") {
    shape.shards = shape.devices = 2;
    shape.workers = half;
  } else {
    shape.devices = kPoolDevices;
    shape.workers = half;
  }
  const bool pool = o.workload == "pool-512";

  std::vector<Rep> reps;
  std::vector<double> setup_samples;
  if (pool) {
    // Pool construction is sub-millisecond: time several per run.
    for (int i = 0; i < kPoolSetupRepeats; ++i) {
      const double t0 = now_s();
      service::PoolOptions po;
      po.devices = shape.devices;
      po.workers = shape.workers;
      { service::SessionManager idle(po); }
      setup_samples.push_back(now_s() - t0);
    }
  }
  const int min_reps = o.trace ? 2 : 3;
  const double start = now_s();
  for (int i = 0;; ++i) {
    const bool traced = o.trace && i % 2 == 1;
    // Untraced runs change the m31 realization every repetition: the step
    // count to t_end depends on how deep a realization populates the
    // block-step hierarchy, so the end-to-end medians pool several
    // realizations of the seed. Traced runs repeat one realization, so
    // the .min/.max of their counts show only the run-to-run
    // nondeterminism (the wall-clock-fed rebuild policy).
    const auto realization = static_cast<std::uint64_t>(o.trace ? 0 : i);
    const std::uint64_t ic_seed = o.seed * 1000 + realization;
    if (pool) {
      reps.push_back(pool_rep(o, shape, traced, i));
    } else if (shape.shards > 1) {
      reps.push_back(
          m31_rep<nbody::ShardedSimulation>(o, shape, traced, ic_seed));
    } else {
      reps.push_back(m31_rep<nbody::Simulation>(o, shape, traced, ic_seed));
    }
    if (i + 1 >= min_reps && now_s() - start >= o.seconds) break;
  }
  // Every repetition starts fresh threads whose malloc arenas outlive
  // them, so the process high-water mark grows with the repetition count;
  // the first repetition's peak is what a one-run process reaches.
  const double rss_mb = reps.front().rss_mb;

  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> step_ms, session_ms, walls, rates, traced_walls;
  for (const Rep& r : reps) {
    attempted += r.attempted;
    failed += r.failed;
    if (r.traced) {
      traced_walls.push_back(r.wall_s);
      continue;
    }
    setup_samples.push_back(r.setup_s);
    walls.push_back(r.wall_s);
    rates.push_back(r.sessions_per_s);
    for (double s : r.step_s) step_ms.push_back(s * 1e3);
    for (double s : r.session_s) session_ms.push_back(s * 1e3);
  }

  std::vector<std::pair<std::string, std::pair<double, std::string>>> out;
  if (!o.trace) {
    const Percentiles st = percentiles(step_ms);
    const Percentiles se = percentiles(session_ms);
    out = {{"setup_s", {median(setup_samples), "s"}},
           {"wall_s", {median(walls), "s"}},
           {"step_ms_p50", {st.p50, "ms"}},
           {"step_ms_p90", {st.p90, "ms"}},
           {"sessions_per_s", {median(rates), "1/s"}},
           {"session_ms_p50", {se.p50, "ms"}},
           {"session_ms_p90", {se.p90, "ms"}},
           {"peak_rss_mb", {rss_mb, "MiB"}}};
    std::printf("# samples: reps=%zu setup n=%zu; step_ms n=%zu min=%.4f "
                "p50=%.4f p90=%.4f max=%.4f; session_ms n=%zu min=%.4f "
                "p50=%.4f p90=%.4f max=%.4f\n",
                walls.size(), setup_samples.size(), st.n, st.min, st.p50,
                st.p90, st.max, se.n, se.min, se.p50, se.p90, se.max);
  } else {
    Values agg;
    for (const auto& [name, unit] : layer_metrics()) agg[name] = 0.0;
    std::map<std::string, std::vector<double>> samples;
    for (const Rep& r : reps) {
      if (!r.traced) continue;
      Values v = r.layers;
      for (const auto& [name, value] : v) {
        if (!agg.contains(name)) throw std::logic_error("unlisted metric " + name);
        samples[name].push_back(value);
      }
    }
    if (pool) {
      for (const auto& [name, value] : pool_replay(o, shape)) {
        samples[name] = {value};
      }
      // Replayed interactions over the pooled walk seconds (summed over
      // the pool's devices again).
      std::vector<double>& rate = samples["gravity.interactions_per_s"];
      for (const double walk : samples["gravity.walk_tree_s"]) {
        rate.push_back(samples["gravity.interactions"].front() /
                       (walk * shape.devices));
      }
    }
    for (const auto& [name, vals] : samples) {
      agg[name] = median(vals);
      if (has_spread(name)) {
        agg[name + ".min"] = *std::min_element(vals.begin(), vals.end());
        agg[name + ".max"] = *std::max_element(vals.begin(), vals.end());
      }
    }
    agg["trace.overhead_s"] = median(traced_walls) - median(walls);
    for (const auto& [name, unit] : layer_metrics()) {
      out.push_back({name, {agg[name], unit}});
    }
    std::printf("# traced reps=%zu untraced reps=%zu (untraced wall_s %.6g, "
                "traced wall_s %.6g)\n",
                traced_walls.size(), walls.size(), median(walls),
                median(traced_walls));
  }

  std::printf("# env: nproc=%d l2_bytes=%ld l3_bytes=%ld devices=%d "
              "workers_per_device=%d shards=%d async=%d lanes=%d simd=%d "
              "ndebug=1 t_end=%g\n",
              shape.nproc, sysconf(_SC_LEVEL2_CACHE_SIZE),
              sysconf(_SC_LEVEL3_CACHE_SIZE), shape.devices, shape.workers,
              shape.shards, runtime::Device::default_async() ? 1 : 0,
              reps.front().lanes,
              simt::simd_enabled() ? 1 : 0, kM31TEnd);

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + out[i].first + "\": {\"value\": " + num(out[i].second.first) +
            ", \"unit\": \"" + out[i].second.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

} // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to time a build without NDEBUG "
                       "(configure with CMAKE_BUILD_TYPE=Release)\n");
  return 3;
#endif
  clear_gothic_env();
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
