// The GOTHIC step loop: makeTree / calcNode / walkTree / predict+correct
// with block time steps and auto-tuned rebuild intervals — the system
// whose per-function times the paper measures (Figs 3-5) — run over one
// shard on the ambient device or over K shards on owned devices.
#pragma once

#include "gravity/let.hpp"
#include "gravity/walk_tree.hpp"
#include "nbody/block_steps.hpp"
#include "nbody/diagnostics.hpp"
#include "nbody/particles.hpp"
#include "nbody/rebuild_policy.hpp"
#include "octree/calc_node.hpp"
#include "octree/partition.hpp"
#include "octree/tree_build.hpp"
#include "runtime/device.hpp"
#include "trace/flight_recorder.hpp"
#include "util/timer.hpp"

#include <array>
#include <memory>
#include <string>
#include <vector>

namespace gothic::nbody {

struct SimConfig {
  gravity::WalkConfig walk{};
  octree::BuildConfig build{};
  octree::CalcNodeConfig calc{};

  /// Time-step accuracy eta of dt = eta sqrt(eps/|a|).
  double eta = 0.25;
  /// Largest (level 0) block time step.
  double dt_max = 1.0 / 32.0;
  /// Depth of the block hierarchy (dt_min = dt_max/2^max_level).
  int max_level = 8;
  /// false = shared global time step (every particle fires every step).
  bool block_time_steps = true;

  /// true = GOTHIC's auto-tuned rebuild interval (fed modelled V100
  /// seconds, so deterministic); false = fixed interval.
  bool auto_rebuild = true;
  int fixed_rebuild_interval = 8;
  RebuildPolicy::Config policy{};

  /// Name of the scenario-registry entry this configuration came from
  /// (src/scenario); empty for hand-built configs. A workload label only —
  /// carried into bench scale fingerprints and error messages, never read
  /// by the step loop — so nbody stays independent of the registry.
  std::string scenario;

  /// Prefix of this simulation's stream names: "tree"/"integrate" become
  /// "<prefix>tree"/"<prefix>integrate" (sharded: "<prefix>shardK/tree").
  /// trace::TraceWriter keys Perfetto tracks by stream name, so a service
  /// pool running many simulations sets a per-session prefix ("s3/") and
  /// gets one clearly-labelled track group per session. Purely a label:
  /// stream *identity* is per-Stream-object either way.
  std::string stream_prefix;

  /// Set the simt scheduling mode of every kernel at once.
  void set_mode(simt::ExecMode mode) {
    walk.mode = mode;
    build.mode = mode;
    calc.mode = mode;
  }
};

/// Per-step record: what ran, how long it took (wall clock) and what it
/// executed (nvprof-style counts) — the raw material of every figure.
struct StepReport {
  double time = 0.0; ///< simulation time after the step
  double dt = 0.0;   ///< physical time advanced
  std::size_t n_active = 0;
  bool rebuilt = false;
  std::array<double, static_cast<std::size_t>(Kernel::Count)> seconds{};
  std::array<simt::OpCounts, static_cast<std::size_t>(Kernel::Count)> ops{};
  gravity::WalkStats walk_stats{};
  /// Span from the first launch body start to the last body end — the
  /// step's launch wall time under concurrent streams.
  double wall_seconds = 0.0;

  [[nodiscard]] double total_seconds() const {
    double s = 0;
    for (double v : seconds) s += v;
    return s;
  }

  /// Kernel seconds hidden by stream overlap this step (>= 0): the gap
  /// between sum-of-kernel-times and launch wall time.
  [[nodiscard]] double overlap_seconds() const {
    const double o = raw_overlap_seconds();
    return o > 0.0 ? o : 0.0;
  }

  /// The same gap, signed. A negative value is a scheduler anomaly (the
  /// step's wall span exceeded the work it contained) that the clamped
  /// accessor hides; the metrics registry counts such steps.
  [[nodiscard]] double raw_overlap_seconds() const {
    return total_seconds() - wall_seconds;
  }
};

/// Device shape of an engine that owns its shard devices. `shards` is K
/// (1..runtime::Device::kMaxWorkers); `workers` is forwarded to each
/// shard's runtime::Device constructor (0 = the GOTHIC_THREADS default).
struct ShardOptions {
  int shards = 1;
  int workers = 0;
};

/// Per-shard observability of the most recent step.
struct ShardStepStats {
  /// Summed launch-body seconds per shard (the shard's busy time).
  std::vector<double> busy_seconds;
  /// LET cells / bodies imported into each shard this step (all sources).
  std::vector<std::uint64_t> let_cells;
  std::vector<std::uint64_t> let_bodies;
  double busy_max = 0.0;
  double busy_mean = 0.0;
  std::uint64_t let_cells_total = 0;
  std::uint64_t let_bodies_total = 0;

  /// Cross-shard busy-time imbalance: max/mean, 1 = perfect balance.
  [[nodiscard]] double imbalance() const {
    return busy_mean > 0.0 ? busy_max / busy_mean : 0.0;
  }
};

/// The GOTHIC step engine over K shards (DESIGN.md, "Streams, events,
/// per-launch records" and "Sharding & local essential trees").
///
/// Each shard owns a contiguous range of the SFC-sorted bodies (split at
/// walk-group granularity, weighted by measured per-group walk cost) and
/// a device with its own streams. Per step, every shard predicts its
/// slice, summarises its tree nodes, walks its groups and corrects its
/// slice. With K > 1 the step adds the cross-shard phases: the
/// calcNode(top) pass over nodes straddling shard boundaries, and a
/// local-essential-tree import into each shard's NaN-poisoned tree view.
/// K = 1 walks the global tree directly and runs none of them, so it is
/// the independent reference the K > 1 bit-identity oracle compares the
/// LET machinery against: results are bit-identical for every K, worker
/// count and SIMD substrate.
///
/// Every launch runs synchronously. K > 1 runs its shard devices at once
/// through a host team of K threads (the calling thread is member 0): in
/// each per-shard phase — predict; calcNode; LET import + walk + correct
/// — member s drives shard s's device. The rebuild, calcNode(top) and the
/// group-activity pass run on the calling thread between phases.
class Simulation {
public:
  /// One shard on the ambient device: runtime::Device::current(), looked
  /// up at each call (so a caller may move the engine between devices
  /// under runtime::ScopedDevice between calls). Takes ownership of the
  /// particle set (any order) and runs the initial build + bootstrap force
  /// evaluation (opening-angle MAC, since no previous-step acceleration
  /// exists yet for Eq. 2).
  Simulation(Particles particles, SimConfig cfg);

  /// K = opt.shards shards on K owned devices; otherwise the same
  /// contract. The bootstrap runs unsharded on shard 0's device.
  Simulation(Particles particles, SimConfig cfg, ShardOptions opt);

  ~Simulation();
  Simulation(Simulation&&);
  Simulation& operator=(Simulation&&);

  /// Advance one block step (or one shared step). Returns the report; the
  /// MakeTree bucket also holds K > 1's letImport launches.
  ///
  /// Fault accounting: a step counts once its time advance happened. A
  /// step that throws has advanced time() and step_count() alike, so both
  /// stay in step with each other for every K; the flight-recorder dump
  /// names that step ("at step N" with N = step_count()).
  StepReport step();

  /// Advance `n` steps.
  void run(int n);

  /// Recompute forces/potentials of all particles at the current state
  /// (for diagnostics; uses the acceleration MAC with current aold).
  /// Runs unsharded on shard 0 for every K.
  void refresh_forces();

  [[nodiscard]] const Particles& particles() const { return particles_; }
  [[nodiscard]] Particles& particles() { return particles_; }
  [[nodiscard]] const octree::Octree& tree() const { return tree_; }
  [[nodiscard]] const SimConfig& config() const { return cfg_; }
  [[nodiscard]] double time() const { return steps_.time(); }
  [[nodiscard]] const KernelTimers& timers() const { return timers_; }
  [[nodiscard]] const RebuildPolicy& rebuild_policy() const { return policy_; }
  [[nodiscard]] int rebuild_count() const { return rebuilds_; }
  [[nodiscard]] int step_count() const { return step_count_; }
  [[nodiscard]] int shard_count() const {
    return static_cast<int>(shards_.size());
  }

  /// Accumulated per-kernel instruction counts since construction.
  [[nodiscard]] const simt::OpCounts& kernel_ops(Kernel k) const {
    return ops_[static_cast<std::size_t>(k)];
  }

  /// Shard s's device — the ambient device when the engine was built
  /// without ShardOptions. For tests installing schedule/fault
  /// controllers and for trace finalisation.
  [[nodiscard]] runtime::Device& shard_device(int s);

  /// Shard 0's launch records; step_records() spans the most recent
  /// step() (or refresh_forces()).
  [[nodiscard]] const runtime::InstrumentationSink& sink() const;

  /// Per-shard busy time and LET traffic of the most recent step().
  [[nodiscard]] const ShardStepStats& last_shard_stats() const {
    return last_stats_;
  }

  /// K+1 body boundaries of the current partition (SFC order).
  [[nodiscard]] const std::vector<index_t>& body_bounds() const {
    return body_bounds_;
  }
  /// K+1 walk-group boundaries of the current partition.
  [[nodiscard]] const std::vector<std::size_t>& group_bounds() const {
    return group_bounds_;
  }

  /// Attach an observability hook (e.g. trace::Session): `l` receives
  /// every LaunchRecord of a completed step() and then one StepMark, all
  /// forwarded serially after the step joined, until detached with
  /// nullptr. Per-record timestamps are in the issuing shard's device
  /// epoch, so cross-shard skew is expected in K > 1 traces. Set only
  /// between steps. When the flight recorder is enabled (GOTHIC_FLIGHT)
  /// it stays at the head of the chain and forwards to `l`.
  void set_instrumentation_listener(runtime::RecordListener* l) {
    if (flight_) {
      flight_->set_next(l);
    } else {
      listener_ = l;
    }
  }

  /// The GOTHIC_FLIGHT incident recorder; null when the env var is unset.
  /// Construction and step() dump it on their error paths, backfilling
  /// the aborted phase's records first (they never reached the listener
  /// chain); callers may dump() on demand (gothic_run --flight-dump).
  [[nodiscard]] trace::FlightRecorder* flight_recorder() {
    return flight_.get();
  }

  [[nodiscard]] Energies energies() const {
    return compute_energies(particles_);
  }
  [[nodiscard]] Momenta momenta() const { return compute_momenta(particles_); }

private:
  struct Shard;

  Simulation(Particles particles, SimConfig cfg, ShardOptions opt,
             bool own_devices);
  /// Name used in error and incident texts.
  [[nodiscard]] std::string engine_name() const;
  /// Run `phase(shard)` for every shard: inline for K = 1, else on the
  /// host team with member s driving shard s. Every shard finishes the
  /// phase before the first error (if any) is rethrown.
  template <typename Fn>
  void for_each_shard(Fn&& phase);
  /// The rebuild pair on shard 0: a read-only makeTree build and the
  /// makeTree(permute) that reorders the state. `with_pred`: the step's
  /// predicts ran, so the predicted positions are permuted too (false at
  /// construction).
  void rebuild(bool with_pred);
  void bootstrap_forces();
  /// Apply perm_ to a scratch array out-of-place via permute_buf_ (both
  /// retain capacity across rebuilds).
  void permute_scratch(std::vector<real>& v);
  void permute_cost();
  /// Recompute the partition (group/body boundaries; for K > 1 also the
  /// owned/top node ranges, per-shard views and cost slices). Called after
  /// every rebuild's permute join.
  void refresh_partition();
  /// Copy cell geometry / body positions into shard `sh`'s poisoned view
  /// (the body of the K > 1 letImport launch, running on sh's device).
  void let_import(Shard& sh);
  /// Fold a shard's phase records into timers_/ops_ (no listener).
  void absorb_records(const Shard& sh);
  /// Error-path incident dump: backfill every shard sink's step records
  /// into the flight recorder and dump with `reason`. No-op when
  /// GOTHIC_FLIGHT is unset.
  void dump_flight(const std::string& reason);
  /// Modelled V100 seconds of the makeTree/makeTree(permute) records of
  /// shard 0's current phase (excludes letImport, which shares
  /// Kernel::MakeTree).
  [[nodiscard]] double step_make_seconds() const;
  /// Scatter the global group costs back to per-body costs (uniform
  /// within a group) — K > 1's cost signal across reorderings.
  void scatter_body_cost();

  Particles particles_;
  SimConfig cfg_;
  octree::Octree tree_;
  BlockTimeSteps steps_;
  RebuildPolicy policy_;
  int rebuilds_ = 0;
  int step_count_ = 0;
  int steps_since_rebuild_ = 0;
  /// true = shards own their devices (ShardOptions); false = one shard on
  /// the ambient device.
  bool own_devices_ = false;

  // Scratch (predicted positions, fresh accelerations) — global arrays;
  // shards write disjoint slices / group slots.
  std::vector<real> px_, py_, pz_;
  std::vector<real> nax_, nay_, naz_, npot_;
  /// Rebuild scratch: the sort permutation handed from the build launch to
  /// the permute launch, and the out-of-place buffers of the permutes.
  std::vector<index_t> perm_;
  std::vector<real> permute_buf_;
  std::vector<double> cost_buf_;

  /// Tree-derived walk groups (refreshed on rebuild) and per-step flags;
  /// shards take contiguous sub-spans.
  std::vector<gravity::GroupSpan> groups_;
  std::vector<std::uint8_t> group_active_;
  /// Per-group walk state over all groups. K = 1 walks with it directly
  /// (its `active` list is the walk's queue, reused every step); the
  /// measured `cost` is re-seeded uniform at every rebuild and first
  /// measured by the bootstrap walk. K > 1 walks with per-shard slices of
  /// its `cost` (written back after each step) and carries it through
  /// reorderings as per-body costs, so the shard split tracks work.
  gravity::GroupCosts group_costs_;
  std::vector<double> body_cost_;

  // Partition state (refreshed each rebuild).
  std::vector<index_t> body_bounds_;
  std::vector<std::size_t> group_bounds_;
  std::vector<octree::NodeRange> top_;
  std::vector<gravity::LetRange> top_leaf_;
  std::size_t top_count_ = 0;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// K > 1 only: a K-worker device used solely for its host team
  /// (for_each_shard); null for K = 1.
  std::unique_ptr<runtime::Device> host_team_;

  // Aggregated observability over the shard sinks.
  KernelTimers timers_;
  std::array<simt::OpCounts, static_cast<std::size_t>(Kernel::Count)> ops_{};
  /// Always-on bounded incident recorder, created when GOTHIC_FLIGHT is
  /// set; it then heads the listener chain (user listeners chain behind
  /// it via set_next). Otherwise listener_ is the user's listener.
  std::unique_ptr<trace::FlightRecorder> flight_;
  runtime::RecordListener* listener_ = nullptr;
  ShardStepStats last_stats_;
};

} // namespace gothic::nbody
