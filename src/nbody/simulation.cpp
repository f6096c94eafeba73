#include "nbody/simulation.hpp"

#include "nbody/integrator.hpp"
#include "perfmodel/tuning.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>

namespace gothic::nbody {

namespace {

/// What the rebuild auto-tuner is fed: the V100 seconds the §4.2 execution
/// model predicts for a kernel's counted ops — a pure function of the
/// state, so the rebuild cadence is too. The Pascal view drops the
/// syncwarp/tile-sync counts, the only fields ExecMode changes, so both
/// modes tune alike.
double modelled_seconds(perfmodel::GothicKernel k, const simt::OpCounts& ops) {
  static const perfmodel::GpuSpec v100 = perfmodel::tesla_v100();
  return perfmodel::gothic_kernel_seconds(v100, k, perfmodel::pascal_view(ops));
}

} // namespace

/// One shard: a device with its own streams, a contiguous body/group
/// range of the global decomposition and its launch records. For K > 1
/// also the node ranges it owns and a NaN-poisoned view of the tree
/// (geometry + positions) holding exactly what its walk is entitled to
/// read: its own cells and bodies, the replicated top cells, and the
/// imported LETs.
struct Simulation::Shard {
  int id = 0;
  /// Stream names ("tree"/"integrate", or "shardK/tree"/"shardK/integrate"
  /// for owned devices) — per-shard trace tracks fall out of the
  /// stream-name keyed trace writer. Streams hold a const char* into these
  /// strings; Shard objects are never moved.
  std::string tree_name;
  std::string integrate_name;
  /// Null: the ambient Device::current(), resolved at each use.
  std::unique_ptr<runtime::Device> dev;
  runtime::InstrumentationSink sink;
  runtime::Stream tree_stream;
  runtime::Stream integrate_stream;

  // Partition state (refreshed each rebuild).
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
  std::size_t group_begin = 0;
  std::size_t group_end = 0;

  // K > 1 only: owned node ranges, and the tree view — topology copied
  // from the global tree at each rebuild, geometry re-poisoned and
  // re-imported every step.
  std::vector<octree::NodeRange> owned;
  std::size_t owned_count = 0;
  octree::Octree view;
  std::vector<real> vx, vy, vz;
  gravity::GroupCosts costs;
  gravity::LetBounds bounds;
  std::vector<gravity::LetExport> imports; ///< indexed by source shard
  std::uint64_t let_cells = 0;  ///< cells imported this step (all sources)
  std::uint64_t let_bodies = 0; ///< bodies imported this step

  gravity::WalkStats stats;
  /// This step's launches, the recorded DAG's cross-phase edges (null
  /// when the shard skipped the phase).
  runtime::Event e_pred, e_calc, e_let, e_walk;

  [[nodiscard]] runtime::Device& device() const {
    return dev ? *dev : runtime::Device::current();
  }
};

Simulation::Simulation(Particles particles, SimConfig cfg)
    : Simulation(std::move(particles), std::move(cfg), ShardOptions{},
                 /*own_devices=*/false) {}

Simulation::Simulation(Particles particles, SimConfig cfg, ShardOptions opt)
    : Simulation(std::move(particles), std::move(cfg), opt,
                 /*own_devices=*/true) {}

Simulation::Simulation(Particles particles, SimConfig cfg, ShardOptions opt,
                       bool own_devices)
    : particles_(std::move(particles)), cfg_(std::move(cfg)),
      steps_(cfg_.dt_max, cfg_.block_time_steps ? cfg_.max_level : 0),
      policy_(cfg_.policy), own_devices_(own_devices) {
  if (particles_.size() == 0) {
    throw std::invalid_argument(engine_name() + ": empty particle set");
  }
  if (opt.shards < 1) {
    throw std::invalid_argument(engine_name() + ": need at least one shard");
  }
  // One host-team member per shard, and a device holds at most kMaxWorkers.
  if (opt.shards > runtime::Device::kMaxWorkers) {
    throw std::invalid_argument(
        engine_name() + ": at most " +
        std::to_string(runtime::Device::kMaxWorkers) + " shards");
  }
  const std::size_t n = particles_.size();
  px_.resize(n);
  py_.resize(n);
  pz_.resize(n);
  nax_.resize(n);
  nay_.resize(n);
  naz_.resize(n);
  npot_.resize(n);

  // Flight recorder before the first launch, so the bootstrap DAG is
  // already on the ring if it faults. It heads the listener chain.
  if (trace::FlightRecorder::env_enabled()) {
    flight_ = std::make_unique<trace::FlightRecorder>();
    listener_ = flight_.get();
  }

  shards_.reserve(static_cast<std::size_t>(opt.shards));
  for (int s = 0; s < opt.shards; ++s) {
    auto sh = std::make_unique<Shard>();
    sh->id = s;
    const std::string dir =
        own_devices_ ? "shard" + std::to_string(s) + "/" : std::string();
    sh->tree_name = cfg_.stream_prefix + dir + "tree";
    sh->integrate_name = cfg_.stream_prefix + dir + "integrate";
    sh->tree_stream = runtime::Stream(sh->tree_name.c_str());
    sh->integrate_stream = runtime::Stream(sh->integrate_name.c_str());
    if (own_devices_) sh->dev = std::make_unique<runtime::Device>(opt.workers);
    shards_.push_back(std::move(sh));
  }
  if (opt.shards > 1) {
    host_team_ = std::make_unique<runtime::Device>(opt.shards);
  }

  try {
    rebuild(/*with_pred=*/false);
    bootstrap_forces();
  } catch (...) {
    dump_flight(engine_name() + " bootstrap error");
    throw;
  }
  policy_.record_rebuild(step_make_seconds());
  absorb_records(*shards_[0]);

  // Assign initial block levels from the bootstrap accelerations.
  std::vector<double> dt_req(n);
  for (std::size_t i = 0; i < n; ++i) {
    dt_req[i] = required_dt(cfg_.eta, cfg_.walk.eps, particles_.aold_mag[i]);
  }
  steps_.initialize(dt_req);

  if (shard_count() > 1) scatter_body_cost();
  refresh_partition();
}

Simulation::~Simulation() = default;
Simulation::Simulation(Simulation&&) = default;
Simulation& Simulation::operator=(Simulation&&) = default;

std::string Simulation::engine_name() const {
  return own_devices_ ? "ShardedSimulation" : "Simulation";
}

runtime::Device& Simulation::shard_device(int s) {
  if (s < 0 || s >= shard_count()) {
    throw std::out_of_range(engine_name() + ": shard index out of range");
  }
  return shards_[static_cast<std::size_t>(s)]->device();
}

const runtime::InstrumentationSink& Simulation::sink() const {
  return shards_[0]->sink;
}

void Simulation::permute_scratch(std::vector<real>& v) {
  permute_buf_.resize(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    permute_buf_[i] = v[perm_[i]];
  }
  v.swap(permute_buf_);
}

void Simulation::permute_cost() {
  if (body_cost_.size() != particles_.size()) return;
  cost_buf_.resize(body_cost_.size());
  for (std::size_t i = 0; i < body_cost_.size(); ++i) {
    cost_buf_[i] = body_cost_[perm_[i]];
  }
  body_cost_.swap(cost_buf_);
}

template <typename Fn>
void Simulation::for_each_shard(Fn&& phase) {
  if (!host_team_) {
    phase(*shards_[0]);
    return;
  }
  host_team_->for_workers([this, &phase](runtime::Worker& w) {
    phase(*shards_[static_cast<std::size_t>(w.id)]);
  });
}

void Simulation::rebuild(bool with_pred) {
  Shard& c = *shards_[0];
  runtime::Device& dev = c.device();

  // Build: read-only on the particle state (predict writes only the
  // predicted positions).
  runtime::LaunchDesc desc;
  desc.kernel = Kernel::MakeTree;
  desc.label = "makeTree";
  desc.items = particles_.size();
  desc.stream = &c.tree_stream;
  desc.sink = &c.sink;
  dev.launch(desc, [this](simt::OpCounts& ops) {
    octree::build_tree(particles_.x, particles_.y, particles_.z, tree_, perm_,
                       cfg_.build, &ops);
  });

  // Permute: the join of the streams. It reorders the particle state
  // (which predict reads) and the predicted positions (which predict
  // writes), so it follows every predict: shard 0's is a recorded
  // dependency, the other shards' finished with the predict phase (events
  // do not cross devices). Elementwise prediction commutes with the
  // permutation, so the result is identical to predicting after the
  // reorder.
  runtime::LaunchDesc jd;
  jd.kernel = Kernel::MakeTree;
  jd.label = "makeTree(permute)";
  jd.items = particles_.size();
  jd.stream = &c.tree_stream;
  jd.deps = {c.e_pred};
  jd.sink = &c.sink;
  const bool sharded = shard_count() > 1;
  dev.launch(jd, [this, with_pred, sharded](simt::OpCounts&) {
    particles_.apply_permutation(perm_);
    if (steps_.size() == particles_.size()) steps_.apply_permutation(perm_);
    if (with_pred) {
      permute_scratch(px_);
      permute_scratch(py_);
      permute_scratch(pz_);
    }
    groups_ = gravity::walk_groups(tree_, particles_.x, particles_.y,
                                   particles_.z);
    group_active_.assign(groups_.size(), 1);
    // The decomposition changed, so the measured per-group costs no
    // longer index anything meaningful — re-seed uniform. K > 1 then
    // rebuilds them from the permuted per-body costs, so the shard
    // split's cost signal survives the reorder.
    group_costs_.reset(groups_.size());
    if (!sharded) return;
    permute_cost();
    if (body_cost_.size() != particles_.size()) return;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      double sum = 0.0;
      const std::size_t lo = groups_[g].first;
      const std::size_t hi = lo + groups_[g].count;
      for (std::size_t i = lo; i < hi; ++i) sum += body_cost_[i];
      group_costs_.cost[g] = sum;
    }
  });
  ++rebuilds_;
  steps_since_rebuild_ = 0;
}

double Simulation::step_make_seconds() const {
  // letImport launches share Kernel::MakeTree (they are tree-data motion,
  // not walk/calc work) — filter by label so the rebuild auto-tuner only
  // sees the build + permute cost.
  simt::OpCounts ops;
  for (const runtime::LaunchRecord& rec : shards_[0]->sink.step_records()) {
    if (rec.kernel == Kernel::MakeTree &&
        std::strncmp(rec.label, "makeTree", 8) == 0) {
      ops += rec.ops;
    }
  }
  return modelled_seconds(perfmodel::GothicKernel::MakeTree, ops);
}

void Simulation::bootstrap_forces() {
  // First force evaluation: no previous acceleration exists, so Eq. 2 is
  // unusable; GOTHIC seeds with a geometric criterion. Unsharded on shard
  // 0, so the post-construction state is the same for every K.
  Shard& c = *shards_[0];
  runtime::Device& dev = c.device();

  runtime::LaunchDesc cd;
  cd.kernel = Kernel::CalcNode;
  cd.label = "calcNode(bootstrap)";
  cd.items = tree_.num_nodes();
  cd.stream = &c.tree_stream;
  cd.sink = &c.sink;
  dev.launch(cd, [this](simt::OpCounts& ops) {
    octree::calc_node(tree_, particles_.x, particles_.y, particles_.z,
                      particles_.m, cfg_.calc, &ops);
  });

  gravity::WalkConfig boot = cfg_.walk;
  boot.mac.type = gravity::MacType::OpeningAngle;
  boot.mac.theta = real(0.7);
  runtime::LaunchDesc wd;
  wd.kernel = Kernel::WalkTree;
  wd.label = "walkTree(bootstrap)";
  wd.items = particles_.size();
  wd.stream = &c.tree_stream;
  wd.sink = &c.sink;
  // Walk over the rebuild's group decomposition with the cost vector
  // attached: the bootstrap's measured per-group costs seed the first
  // shard split (K > 1).
  dev.launch(wd, [this, &boot](simt::OpCounts& ops) {
    gravity::walk_tree(tree_, particles_.x, particles_.y, particles_.z,
                       particles_.m, {}, boot, particles_.ax, particles_.ay,
                       particles_.az, particles_.pot, &ops, nullptr, {},
                       groups_, &group_costs_);
  });
  for (std::size_t i = 0; i < particles_.size(); ++i) {
    particles_.aold_mag[i] = std::sqrt(
        particles_.ax[i] * particles_.ax[i] +
        particles_.ay[i] * particles_.ay[i] +
        particles_.az[i] * particles_.az[i]);
  }
}

void Simulation::scatter_body_cost() {
  body_cost_.assign(particles_.size(), 1.0);
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const std::size_t lo = groups_[g].first;
    const std::size_t count = groups_[g].count;
    if (count == 0) continue;
    const double per = group_costs_.cost[g] / static_cast<double>(count);
    for (std::size_t i = lo; i < lo + count; ++i) body_cost_[i] = per;
  }
}

void Simulation::refresh_partition() {
  const std::size_t n = particles_.size();
  const int k = shard_count();

  if (k == 1) {
    body_bounds_ = {0, static_cast<index_t>(n)};
    group_bounds_ = {0, groups_.size()};
  } else {
    group_bounds_ = octree::partition_weighted(group_costs_.cost, k);
    body_bounds_.assign(static_cast<std::size_t>(k) + 1,
                        static_cast<index_t>(n));
    body_bounds_[0] = 0;
    for (int s = 1; s < k; ++s) {
      const std::size_t gb = group_bounds_[static_cast<std::size_t>(s)];
      body_bounds_[static_cast<std::size_t>(s)] =
          gb < groups_.size() ? groups_[gb].first : static_cast<index_t>(n);
    }

    top_ = octree::top_node_ranges(tree_, body_bounds_);
    top_count_ = 0;
    top_leaf_.clear();
    for (const octree::NodeRange& r : top_) {
      top_count_ += r.end - r.begin;
      for (index_t node = r.begin; node < r.end; ++node) {
        if (tree_.is_leaf(node) && tree_.body_count[node] > 0) {
          top_leaf_.push_back(
              {tree_.body_first[node], tree_.body_count[node]});
        }
      }
    }

    // Size the (shared) quadrupole arrays once here: the per-shard
    // calc_node_ranges sweeps must never reallocate shared storage.
    octree::prepare_quadrupole(tree_, cfg_.calc.compute_quadrupole);
  }

  for (int s = 0; s < k; ++s) {
    Shard& sh = *shards_[static_cast<std::size_t>(s)];
    sh.body_begin = body_bounds_[static_cast<std::size_t>(s)];
    sh.body_end = body_bounds_[static_cast<std::size_t>(s) + 1];
    sh.group_begin = group_bounds_[static_cast<std::size_t>(s)];
    sh.group_end = group_bounds_[static_cast<std::size_t>(s) + 1];
    if (k == 1) break;
    sh.owned = octree::owned_node_ranges(tree_, body_bounds_, s);
    sh.owned_count = 0;
    for (const octree::NodeRange& r : sh.owned) {
      sh.owned_count += r.end - r.begin;
    }
    sh.view = tree_; // topology + sized geometry arrays
    sh.vx.resize(n);
    sh.vy.resize(n);
    sh.vz.resize(n);
    sh.costs.cost.assign(group_costs_.cost.begin() +
                             static_cast<std::ptrdiff_t>(sh.group_begin),
                         group_costs_.cost.begin() +
                             static_cast<std::ptrdiff_t>(sh.group_end));
    sh.imports.resize(static_cast<std::size_t>(k));
    sh.bounds = gravity::LetBounds{};
  }
}

void Simulation::let_import(Shard& sh) {
  const index_t nn = tree_.num_nodes();
  const std::size_t n = particles_.size();
  const real qnan = std::numeric_limits<real>::quiet_NaN();
  octree::Octree& v = sh.view;
  const bool quad = tree_.has_quadrupole();

  // Poison everything the walk is not entitled to read. A poisoned node
  // is never MAC-accepted (NaN comparisons are false, so it is opened)
  // and its poisoned leaves spill NaN positions — a LET gap becomes NaN
  // accelerations the bit-identity oracle catches, never a silent error.
  v.mass.assign(nn, qnan);
  v.com_x.assign(nn, qnan);
  v.com_y.assign(nn, qnan);
  v.com_z.assign(nn, qnan);
  v.bmax.assign(nn, qnan);
  if (quad) {
    v.quad_xx.assign(nn, qnan);
    v.quad_xy.assign(nn, qnan);
    v.quad_xz.assign(nn, qnan);
    v.quad_yy.assign(nn, qnan);
    v.quad_yz.assign(nn, qnan);
    v.quad_zz.assign(nn, qnan);
  }
  sh.vx.assign(n, qnan);
  sh.vy.assign(n, qnan);
  sh.vz.assign(n, qnan);

  auto copy_cell = [&](index_t node) {
    v.mass[node] = tree_.mass[node];
    v.com_x[node] = tree_.com_x[node];
    v.com_y[node] = tree_.com_y[node];
    v.com_z[node] = tree_.com_z[node];
    v.bmax[node] = tree_.bmax[node];
    if (quad) {
      v.quad_xx[node] = tree_.quad_xx[node];
      v.quad_xy[node] = tree_.quad_xy[node];
      v.quad_xz[node] = tree_.quad_xz[node];
      v.quad_yy[node] = tree_.quad_yy[node];
      v.quad_yz[node] = tree_.quad_yz[node];
      v.quad_zz[node] = tree_.quad_zz[node];
    }
  };
  auto copy_bodies = [&](index_t first, index_t count) {
    for (index_t i = first; i < first + count; ++i) {
      sh.vx[i] = px_[i];
      sh.vy[i] = py_[i];
      sh.vz[i] = pz_[i];
    }
  };

  // Own slice + own cells, plus the replicated top cells and top-leaf
  // body ranges (a shard boundary may split a leaf; its spill reads the
  // whole leaf range).
  copy_bodies(static_cast<index_t>(sh.body_begin),
              static_cast<index_t>(sh.body_end - sh.body_begin));
  for (const gravity::LetRange& r : top_leaf_) copy_bodies(r.first, r.count);
  for (const octree::NodeRange& r : sh.owned) {
    for (index_t node = r.begin; node < r.end; ++node) copy_cell(node);
  }
  for (const octree::NodeRange& r : top_) {
    for (index_t node = r.begin; node < r.end; ++node) copy_cell(node);
  }

  // Import each remote shard's local essential tree.
  const int k = shard_count();
  for (int src = 0; src < k; ++src) {
    if (src == sh.id) continue;
    gravity::LetExport& imp = sh.imports[static_cast<std::size_t>(src)];
    imp.clear();
    gravity::build_let(tree_, cfg_.walk,
                       body_bounds_[static_cast<std::size_t>(src)],
                       body_bounds_[static_cast<std::size_t>(src) + 1],
                       sh.bounds, imp);
    for (const index_t cell : imp.cells) copy_cell(cell);
    for (const gravity::LetRange& r : imp.bodies) {
      copy_bodies(r.first, r.count);
    }
    sh.let_cells += imp.cells.size();
    sh.let_bodies += imp.body_total();
  }
}

void Simulation::absorb_records(const Shard& sh) {
  for (const runtime::LaunchRecord& rec : sh.sink.step_records()) {
    timers_.add(rec.kernel, rec.seconds);
    ops_[static_cast<std::size_t>(rec.kernel)] += rec.ops;
  }
}

void Simulation::dump_flight(const std::string& reason) {
  if (!flight_) return;
  // An aborted phase's records never reached the listener chain (records
  // are forwarded only after a successful step), so backfill the shard
  // sinks into the ring — record_only keeps the downstream listener out
  // of the error path — then dump the incident.
  for (auto& sh : shards_) {
    for (const runtime::LaunchRecord& rec : sh->sink.step_records()) {
      flight_->record_only(rec);
    }
  }
  flight_->dump(reason);
}

StepReport Simulation::step() {
  StepReport report;
  const int k = shard_count();
  const bool sharded = k > 1;
  for (auto& sh : shards_) {
    sh->sink.begin_step();
    sh->stats = gravity::WalkStats{};
    sh->let_cells = 0;
    sh->let_bodies = 0;
    sh->e_pred = sh->e_calc = sh->e_let = sh->e_walk = runtime::Event{};
  }

  report.dt = steps_.advance();
  ++step_count_;

  try {
    // --- predict: each shard drifts its own contiguous body slice ------
    for_each_shard([this](Shard& sh) {
      if (sh.body_end <= sh.body_begin) return;
      runtime::LaunchDesc pd;
      pd.kernel = Kernel::PredictCorrect;
      pd.label = "predict";
      pd.items = sh.body_end - sh.body_begin;
      pd.stream = &sh.integrate_stream;
      pd.sink = &sh.sink;
      const std::size_t b0 = sh.body_begin;
      const std::size_t b1 = sh.body_end;
      sh.e_pred = sh.device().launch(pd, [this, b0, b1](simt::OpCounts& ops) {
        predict_positions_range(particles_, steps_, px_, py_, pz_, b0, b1,
                                &ops);
      });
    });

    // --- rebuild, either auto-tuned (GOTHIC) or on a fixed cadence -------
    const bool due = cfg_.auto_rebuild
                         ? policy_.should_rebuild()
                         : steps_since_rebuild_ >= cfg_.fixed_rebuild_interval;
    if (due) {
      rebuild(/*with_pred=*/true);
      report.rebuilt = true;
      refresh_partition();
    }

    // --- calcNode: refresh the node multipoles from the predicted
    // positions — the whole tree (K = 1) or each shard's owned node
    // ranges. The dependency on predict orders the cross-stream read. ---
    for_each_shard([this, sharded](Shard& sh) {
      if (sharded && sh.owned_count == 0) return;
      runtime::LaunchDesc cd;
      cd.kernel = Kernel::CalcNode;
      cd.label = "calcNode";
      cd.items = sharded ? sh.owned_count : tree_.num_nodes();
      cd.stream = &sh.tree_stream;
      cd.deps = {sh.e_pred};
      cd.sink = &sh.sink;
      const Shard* shp = &sh;
      sh.e_calc =
          sh.device().launch(cd, [this, shp, sharded](simt::OpCounts& ops) {
            if (sharded) {
              octree::calc_node_ranges(tree_, px_, py_, pz_, particles_.m,
                                       cfg_.calc, shp->owned, &ops);
            } else {
              octree::calc_node(tree_, px_, py_, pz_, particles_.m,
                                cfg_.calc, &ops);
            }
          });
    });

    // --- top pass (K > 1): finish the nodes straddling shard boundaries,
    // once every shard summarised its own -------------------------------
    if (sharded && top_count_ > 0) {
      Shard& c = *shards_[0];
      runtime::LaunchDesc td;
      td.kernel = Kernel::CalcNode;
      td.label = "calcNode(top)";
      td.items = top_count_;
      td.stream = &c.tree_stream;
      td.sink = &c.sink;
      c.device().launch(td, [this](simt::OpCounts& ops) {
        octree::calc_node_ranges(tree_, px_, py_, pz_, particles_.m, cfg_.calc,
                                 top_, &ops);
      });
    }

    // --- group activity: flag the groups containing fired particles
    // (host-side bookkeeping) -------------------------------------------
    report.n_active = 0;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      std::uint8_t any = 0;
      const std::size_t lo = groups_[g].first;
      const std::size_t hi = lo + groups_[g].count;
      for (std::size_t i = lo; i < hi; ++i) {
        if (steps_.active(i)) {
          any = 1;
          ++report.n_active;
        }
      }
      group_active_[g] = any;
    }

    // --- per shard: LET bounds + import (K > 1), then the walk over the
    // global tree (K = 1) or the shard's view, then correct --------------
    for_each_shard([this, sharded](Shard& sh) {
      const std::size_t gb = sh.group_begin;
      const std::size_t gcount = sh.group_end - gb;
      const std::span<const std::uint8_t> active =
          std::span<const std::uint8_t>(group_active_).subspan(gb, gcount);
      const std::span<const gravity::GroupSpan> groups =
          std::span<const gravity::GroupSpan>(groups_).subspan(gb, gcount);
      if (sharded) sh.bounds = gravity::LetBounds{};
      if (sharded && gcount > 0) {
        sh.bounds = gravity::let_bounds(px_, py_, pz_, particles_.aold_mag,
                                        groups, active, cfg_.walk.mode);
        runtime::LaunchDesc ld;
        ld.kernel = Kernel::MakeTree;
        ld.label = "letImport";
        ld.items = tree_.num_nodes();
        ld.stream = &sh.tree_stream;
        ld.sink = &sh.sink;
        Shard* shp = &sh;
        sh.e_let = sh.device().launch(ld, [this, shp](simt::OpCounts& ops) {
          let_import(*shp);
          // Data motion: poison + copy of the view arrays.
          ops.bytes_store +=
              (static_cast<std::uint64_t>(shp->view.num_nodes()) * 20 +
               static_cast<std::uint64_t>(shp->vx.size()) * 12);
        });
      }

      if (gcount > 0) {
        runtime::LaunchDesc wd;
        wd.kernel = Kernel::WalkTree;
        wd.label = "walkTree";
        wd.items = gcount;
        wd.stream = &sh.tree_stream;
        wd.deps = {sh.e_pred, sharded ? sh.e_let : sh.e_calc};
        wd.sink = &sh.sink;
        Shard* shp = &sh;
        sh.e_walk = sh.device().launch(
            wd, [this, shp, sharded, active, groups](simt::OpCounts& ops) {
              gravity::walk_tree(
                  sharded ? shp->view : tree_, sharded ? shp->vx : px_,
                  sharded ? shp->vy : py_, sharded ? shp->vz : pz_,
                  particles_.m, particles_.aold_mag, cfg_.walk, nax_, nay_,
                  naz_, npot_, &ops, &shp->stats, active, groups,
                  sharded ? &shp->costs : &group_costs_);
            });
      }

      if (sh.body_end <= sh.body_begin) return;
      runtime::LaunchDesc kd;
      kd.kernel = Kernel::PredictCorrect;
      kd.label = "correct";
      kd.items = sh.body_end - sh.body_begin;
      kd.stream = &sh.integrate_stream;
      kd.deps = {sh.e_walk};
      kd.sink = &sh.sink;
      const std::size_t b0 = sh.body_begin;
      const std::size_t b1 = sh.body_end;
      sh.device().launch(kd, [this, b0, b1](simt::OpCounts& ops) {
        correct_active_range(particles_, steps_, px_, py_, pz_, nax_, nay_,
                             naz_, npot_, cfg_.eta, cfg_.walk.eps, b0, b1,
                             &ops);
      });
    });
  } catch (...) {
    // Every shard finished the faulting phase (for_each_shard joins its
    // team before rethrowing), so the devices are quiescent and the
    // aborted phase's records are complete for the incident dump.
    ++steps_since_rebuild_;
    dump_flight(engine_name() + "::step error at step " +
                std::to_string(step_count_));
    throw;
  }
  ++steps_since_rebuild_;

  // --- harvest: the rebuild and walk ops feed the interval auto-tuner,
  // and the report's per-kernel seconds/ops are the step's records ------
  last_stats_.busy_seconds.assign(static_cast<std::size_t>(k), 0.0);
  last_stats_.let_cells.assign(static_cast<std::size_t>(k), 0);
  last_stats_.let_bodies.assign(static_cast<std::size_t>(k), 0);
  last_stats_.busy_max = 0.0;
  last_stats_.let_cells_total = 0;
  last_stats_.let_bodies_total = 0;

  simt::OpCounts walk_ops;
  double busy_sum = 0.0;
  double mark_lo = 0.0;
  double mark_hi = 0.0;
  bool mark_first = true;
  for (int s = 0; s < k; ++s) {
    Shard& sh = *shards_[static_cast<std::size_t>(s)];
    double& busy = last_stats_.busy_seconds[static_cast<std::size_t>(s)];
    double lo = 0.0;
    double hi = 0.0;
    bool first = true;
    for (const runtime::LaunchRecord& rec : sh.sink.step_records()) {
      const auto ki = static_cast<std::size_t>(rec.kernel);
      report.seconds[ki] += rec.seconds;
      report.ops[ki] += rec.ops;
      timers_.add(rec.kernel, rec.seconds);
      ops_[ki] += rec.ops;
      if (rec.kernel == Kernel::WalkTree) walk_ops += rec.ops;
      busy += rec.seconds;
      if (first || rec.t_begin < lo) lo = rec.t_begin;
      if (first || rec.t_end > hi) hi = rec.t_end;
      first = false;
    }
    // Per-shard span in that shard's device epoch; the step's wall time
    // is the slowest shard's span (epochs are not comparable across
    // devices).
    if (!first) {
      report.wall_seconds = std::max(report.wall_seconds, hi - lo);
      if (mark_first || lo < mark_lo) mark_lo = lo;
      if (mark_first || hi > mark_hi) mark_hi = hi;
      mark_first = false;
    }
    busy_sum += busy;
    last_stats_.busy_max = std::max(last_stats_.busy_max, busy);
    report.walk_stats += sh.stats;
    last_stats_.let_cells[static_cast<std::size_t>(s)] = sh.let_cells;
    last_stats_.let_bodies[static_cast<std::size_t>(s)] = sh.let_bodies;
    last_stats_.let_cells_total += sh.let_cells;
    last_stats_.let_bodies_total += sh.let_bodies;
    if (!sharded) continue;
    // Cost writeback: the shard's measured per-group costs update the
    // global vector the next partition (and this shard's next walk) use.
    for (std::size_t gi = sh.group_begin; gi < sh.group_end; ++gi) {
      group_costs_.cost[gi] = sh.costs.cost[gi - sh.group_begin];
    }
  }
  last_stats_.busy_mean = busy_sum / static_cast<double>(k);
  if (sharded) scatter_body_cost();
  if (report.rebuilt) policy_.record_rebuild(step_make_seconds());
  // Every shard's walk ops summed and modelled as one launch: the same
  // seconds for every K, so the cadence is shard-count invariant too.
  policy_.record_walk(
      modelled_seconds(perfmodel::GothicKernel::WalkTree, walk_ops));

  report.time = steps_.time();
  if (listener_ != nullptr) {
    for (auto& sh : shards_) {
      for (const runtime::LaunchRecord& rec : sh->sink.step_records()) {
        listener_->on_record(rec);
      }
    }
    runtime::StepMark mark;
    mark.index = static_cast<std::uint64_t>(step_count_);
    mark.rebuilt = report.rebuilt;
    mark.t_begin = mark_lo;
    mark.t_end = mark_hi;
    mark.kernel_seconds = report.total_seconds();
    mark.wall_seconds = report.wall_seconds;
    mark.walk_imbalance = report.walk_stats.imbalance();
    mark.walk_seconds =
        report.seconds[static_cast<std::size_t>(Kernel::WalkTree)];
    if (own_devices_) {
      mark.shards = k;
      mark.shard_busy_max = last_stats_.busy_max;
      mark.shard_busy_mean = last_stats_.busy_mean;
      mark.let_cells = last_stats_.let_cells_total;
      mark.let_bodies = last_stats_.let_bodies_total;
    }
    listener_->on_step(mark);
  }
  return report;
}

void Simulation::run(int n) {
  for (int i = 0; i < n; ++i) (void)step();
}

void Simulation::refresh_forces() {
  // Diagnostics path: unsharded on shard 0, like the bootstrap —
  // bit-identical for every K because the global tree and particle state
  // are.
  Shard& c = *shards_[0];
  runtime::Device& dev = c.device();
  c.sink.begin_step();

  runtime::LaunchDesc cd;
  cd.kernel = Kernel::CalcNode;
  cd.label = "calcNode(refresh)";
  cd.items = tree_.num_nodes();
  cd.stream = &c.tree_stream;
  cd.sink = &c.sink;
  const runtime::Event e_calc = dev.launch(cd, [this](simt::OpCounts& ops) {
    octree::calc_node(tree_, particles_.x, particles_.y, particles_.z,
                      particles_.m, cfg_.calc, &ops);
  });

  runtime::LaunchDesc wd;
  wd.kernel = Kernel::WalkTree;
  wd.label = "walkTree(refresh)";
  wd.items = particles_.size();
  wd.stream = &c.tree_stream;
  wd.deps = {e_calc};
  wd.sink = &c.sink;
  dev.launch(wd, [this](simt::OpCounts& ops) {
    gravity::walk_tree(tree_, particles_.x, particles_.y, particles_.z,
                       particles_.m, particles_.aold_mag, cfg_.walk,
                       particles_.ax, particles_.ay, particles_.az,
                       particles_.pot, &ops);
  });
  absorb_records(c);
}

} // namespace gothic::nbody
