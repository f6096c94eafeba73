#include "testkit/fuzz.hpp"

#include "nbody/simulation.hpp"
#include "runtime/device.hpp"
#include "simt/simd.hpp"
#include "trace/flight_recorder.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

namespace gothic::testkit {

std::string hex_seed(std::uint64_t seed) {
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(seed));
  return buf;
}

nbody::Particles fuzz_cloud(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  nbody::Particles p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.x[i] = static_cast<real>(rng.uniform(-1.0, 1.0));
    p.y[i] = static_cast<real>(rng.uniform(-1.0, 1.0));
    p.z[i] = static_cast<real>(rng.uniform(-1.0, 1.0));
    p.vx[i] = static_cast<real>(rng.uniform(-0.1, 0.1));
    p.vy[i] = static_cast<real>(rng.uniform(-0.1, 0.1));
    p.vz[i] = static_cast<real>(rng.uniform(-0.1, 0.1));
    p.m[i] = real(1.0 / static_cast<double>(n));
  }
  return p;
}

nbody::SimConfig fuzz_sim_config(int rebuild_interval) {
  nbody::SimConfig cfg;
  // Shared global step with a fixed rebuild cadence, for coverage: at fuzz
  // sizes the auto-tuner's cadence sits at its 64-step cap, so only a
  // fixed interval puts the makeTree/permute join (racing the in-flight
  // predicts) into every few steps of a short run.
  cfg.block_time_steps = false;
  cfg.dt_max = 1.0 / 4096.0;
  cfg.auto_rebuild = false;
  cfg.fixed_rebuild_interval = rebuild_interval;
  return cfg;
}

std::vector<real> pack_state(const nbody::Particles& p) {
  std::vector<real> out;
  out.reserve(p.size() * 11);
  for (const std::vector<real>* v :
       {&p.x, &p.y, &p.z, &p.vx, &p.vy, &p.vz, &p.ax, &p.ay, &p.az, &p.pot,
        &p.aold_mag}) {
    out.insert(out.end(), v->begin(), v->end());
  }
  return out;
}

std::vector<real> run_controlled(const FuzzConfig& cfg,
                                 runtime::ScheduleController* controller) {
  runtime::Device dev(cfg.workers);
  runtime::ScopedDevice scope(dev);
  if (controller != nullptr) dev.set_schedule_controller(controller);
  nbody::Simulation sim(fuzz_cloud(cfg.n, cfg.workload_seed),
                        fuzz_sim_config(cfg.rebuild_interval));
  for (int i = 0; i < cfg.steps; ++i) (void)sim.step();
  // Every launch has returned, so the device is idle here and the
  // controller can be detached before it goes out of the caller's scope.
  if (controller != nullptr) dev.set_schedule_controller(nullptr);
  return pack_state(sim.particles());
}

namespace {

std::string leg_name(bool simd, int shards) {
  return std::string(simd ? "simd" : "scalar") + " K=" +
         std::to_string(shards);
}

void append_divergence(SweepReport& rep, std::uint64_t seed,
                       const std::string& leg) {
  rep.failing_seeds.push_back(seed);
  rep.failures.push_back("seed " + hex_seed(seed) + " (" + leg +
                         "): state diverged from the reference");
}

} // namespace

RunOutcome replay_seed(const FuzzConfig& cfg, std::uint64_t seed,
                       const std::vector<real>& reference) {
  // Bit 4 of the replay token picks the SIMD substrate, so every sweep
  // cross-checks the AVX2 and scalar paths against the one reference (the
  // bit is a no-op on hosts without AVX2 — set_simd_enabled clamps to
  // availability). Bits 0-3 are unused, so existing tokens keep their leg.
  const bool simd_on = ((seed >> 4) & 1) != 0;
  simt::ScopedSimd simd(simd_on);
  RunOutcome out;
  out.leg = leg_name(simd_on, 1);
  out.state = run_controlled(cfg, nullptr);
  out.bit_identical = out.state == reference;
  return out;
}

SweepReport sweep_seeds(const FuzzConfig& cfg, std::uint64_t base_seed,
                        std::size_t count) {
  SweepReport rep;
  const std::vector<real> ref = run_controlled(cfg, nullptr);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t seed = base_seed + i;
    const RunOutcome out = replay_seed(cfg, seed, ref);
    ++rep.runs;
    rep.legs.insert(out.leg);
    if (!out.bit_identical) append_divergence(rep, seed, out.leg);
  }
  return rep;
}

namespace {

std::size_t count_in_dag(const std::vector<std::uint64_t>& ids) {
  std::size_t k = 0;
  for (std::uint64_t id : ids) k += (id >= 1 && id <= kFaultLaunches) ? 1 : 0;
  return k;
}

} // namespace

FaultOutcome run_fault_plan(const FuzzConfig& cfg, const FaultPlan& plan) {
  FaultOutcome out;
  FaultController ctrl(plan);
  runtime::Device dev(cfg.workers);
  dev.set_schedule_controller(&ctrl);

  // GOTHIC_FLIGHT turns every fault-plan failure into a self-describing
  // incident report: the recorder rides the device's default sink and is
  // dumped the moment the first injected fault propagates, so the dump
  // holds the faulted launch with its stream and dependency edges.
  std::unique_ptr<trace::FlightRecorder> flight;
  if (trace::FlightRecorder::env_enabled()) {
    flight = std::make_unique<trace::FlightRecorder>();
    dev.sink().set_listener(flight.get());
  }

  runtime::Stream a("fault-a");
  runtime::Stream b("fault-b");
  int ran = 0;
  std::vector<std::uint64_t> surfaced; // ids of the InjectedFaults caught
  bool foreign_error = false;
  bool records_complete = true;
  auto issue = [&](const char* label, runtime::Stream* s, runtime::Event dep) {
    runtime::LaunchDesc desc;
    desc.label = label;
    desc.items = 1;
    desc.stream = s;
    desc.deps = {dep, runtime::Event{}, runtime::Event{}, runtime::Event{}};
    try {
      return dev.launch(desc, [&ran](simt::OpCounts&) { ++ran; });
    } catch (const InjectedFault& f) {
      surfaced.push_back(f.launch_id());
      // The faulting launch's record is already in the sink, complete.
      const runtime::LaunchRecord& rec = dev.sink().last();
      if (rec.id != f.launch_id() || rec.t_end < rec.t_begin ||
          rec.seconds != rec.t_end - rec.t_begin) {
        records_complete = false;
      }
      if (flight && surfaced.size() == 1) {
        flight->dump("gothic_fuzz fault plan: injected fault at launch " +
                     std::to_string(f.launch_id()));
      }
    } catch (...) {
      foreign_error = true;
      if (flight) {
        flight->dump("gothic_fuzz fault plan: non-injected exception");
      }
    }
    // A faulted launch is still a node of the DAG: later launches may
    // depend on it.
    return s->last();
  };

  // The fixed DAG (kFaultLaunches = 8): two streams with cross-stream
  // dependencies, so an injected stall or throw sits upstream of work on
  // the other stream.
  const runtime::Event e1 = issue("fault-a0", &a, runtime::Event{});
  const runtime::Event e2 = issue("fault-b0", &b, runtime::Event{});
  const runtime::Event e3 = issue("fault-a1", &a, e2);
  const runtime::Event e4 = issue("fault-b1", &b, e1);
  (void)issue("fault-a2", &a, runtime::Event{});
  (void)issue("fault-b2", &b, e3);
  (void)issue("fault-a3", &a, e4);
  (void)issue("fault-b3", &b, runtime::Event{});
  const std::size_t dag_faults = surfaced.size();

  const int before_reuse = ran;
  const runtime::Event er = issue("fault-reuse", &a, runtime::Event{});
  const bool reuse_ok = er.valid() && surfaced.size() == dag_faults &&
                        ran == before_reuse + 1;
  dev.set_schedule_controller(nullptr);
  if (flight) dev.sink().set_listener(nullptr);

  std::vector<std::uint64_t> distinct = surfaced;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  bool all_planned = true;
  for (const std::uint64_t id : surfaced) {
    all_planned = all_planned && std::find(plan.throw_at.begin(),
                                           plan.throw_at.end(),
                                           id) != plan.throw_at.end();
  }

  out.injected_throws = ctrl.injected_throws();
  out.injected_stalls = ctrl.injected_stalls();
  out.error_thrown = !surfaced.empty();
  out.single_error =
      distinct.size() == surfaced.size() &&
      surfaced.size() == static_cast<std::size_t>(out.injected_throws);
  out.record_complete = records_complete;
  out.device_reusable = reuse_ok;
  const auto expect_throws = static_cast<int>(count_in_dag(plan.throw_at));
  const auto expect_stalls = static_cast<int>(count_in_dag(plan.stall_at));
  const int expect_ran =
      static_cast<int>(kFaultLaunches) + 1 - out.injected_throws;
  out.bodies_consistent = ran == expect_ran;

  std::string d;
  if (foreign_error) d += "a launch raised a non-injected exception; ";
  if (out.error_thrown != (expect_throws > 0)) {
    d += out.error_thrown ? "a launch raised an error with no throw planned; "
                          : "planned throw did not propagate out of its "
                            "launch; ";
  }
  if (!all_planned) d += "a propagated fault id was not in the plan; ";
  if (out.injected_throws != expect_throws) {
    d += "injected " + std::to_string(out.injected_throws) + " throws, plan " +
         std::to_string(expect_throws) + "; ";
  }
  if (out.injected_stalls != expect_stalls) {
    d += "injected " + std::to_string(out.injected_stalls) + " stalls, plan " +
         std::to_string(expect_stalls) + "; ";
  }
  if (!out.single_error) {
    d += std::to_string(surfaced.size()) + " errors surfaced for " +
         std::to_string(out.injected_throws) + " injected throws; ";
  }
  if (!records_complete) d += "a faulting launch's record was incomplete; ";
  if (!reuse_ok) d += "device not reusable after the fault; ";
  if (!out.bodies_consistent) {
    d += "ran " + std::to_string(ran) + " bodies, expected " +
         std::to_string(expect_ran) + "; ";
  }
  if (d.size() >= 2) d.resize(d.size() - 2); // drop trailing "; "
  out.detail = d;
  return out;
}

FaultSweepReport sweep_faults(const FuzzConfig& cfg, std::uint64_t base_seed,
                              std::size_t count) {
  FaultSweepReport rep;
  Xoshiro256 rng(base_seed);
  auto pick_ids = [&rng](std::vector<std::uint64_t>& ids, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(1 + rng.next() % kFaultLaunches);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  };
  for (std::size_t i = 0; i < count; ++i) {
    FaultPlan plan;
    // Cycle the fault classes: throw-only, stall-only, mixed.
    const std::size_t kind = i % 3;
    if (kind != 1) pick_ids(plan.throw_at, 1 + rng.next() % 2);
    if (kind != 0) pick_ids(plan.stall_at, 1 + rng.next() % 2);
    const FaultOutcome out = run_fault_plan(cfg, plan);
    ++rep.plans;
    if (!plan.throw_at.empty()) ++rep.with_throws;
    if (!plan.stall_at.empty()) ++rep.with_stalls;
    if (!out.ok()) {
      rep.failures.push_back("plan " + std::to_string(i) + " (base seed " +
                             hex_seed(base_seed) + "): " + out.detail);
    }
  }
  return rep;
}

// --- Sharded pipeline sweeps ----------------------------------------------

ShardRunOutcome run_sharded(const FuzzConfig& cfg, std::uint64_t seed,
                            const std::vector<real>& reference) {
  ShardRunOutcome out;
  // Low bits so short sequential seed ranges already cover the matrix:
  // bits 3+ shard count, bit 5 the SIMD substrate (clamped to a no-op on
  // hosts without AVX2). Bits 0-2 are unused, so existing tokens keep
  // their shard count and substrate.
  const int shard_choices[] = {1, 2, 4};
  out.shards = shard_choices[(seed >> 3) % 3];
  const bool simd_on = ((seed >> 5) & 1) != 0;
  simt::ScopedSimd simd(simd_on);
  out.leg = leg_name(simd_on, out.shards);

  nbody::ShardOptions opt;
  opt.shards = out.shards;
  opt.workers = cfg.workers;
  nbody::Simulation sim(fuzz_cloud(cfg.n, cfg.workload_seed),
                        fuzz_sim_config(cfg.rebuild_interval), opt);
  for (int i = 0; i < cfg.steps; ++i) (void)sim.step();
  out.bit_identical = pack_state(sim.particles()) == reference;
  return out;
}

SweepReport sweep_shard_seeds(const FuzzConfig& cfg, std::uint64_t base_seed,
                              std::size_t count) {
  SweepReport rep;
  const std::vector<real> ref = run_controlled(cfg, nullptr);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t seed = base_seed + i;
    const ShardRunOutcome out = run_sharded(cfg, seed, ref);
    ++rep.runs;
    rep.legs.insert(out.leg);
    if (!out.bit_identical) append_divergence(rep, seed, out.leg);
  }
  return rep;
}

// --- Scenario-registry sweeps ---------------------------------------------

nbody::SimConfig scenario_fuzz_config(const scenario::Scenario& sc,
                                      int rebuild_interval) {
  nbody::SimConfig cfg = fuzz_sim_config(rebuild_interval);
  sc.configure(cfg);
  // The scenario owns the force law and accuracy; the fuzzer re-pins the
  // cadence fields so every scenario gets the rebuild-dense coverage above
  // whatever its production defaults are.
  cfg.block_time_steps = false;
  cfg.dt_max = 1.0 / 4096.0;
  cfg.auto_rebuild = false;
  cfg.fixed_rebuild_interval = rebuild_interval;
  return cfg;
}

std::vector<real> scenario_reference(const FuzzConfig& cfg,
                                     const scenario::Scenario& sc) {
  runtime::Device dev(cfg.workers);
  runtime::ScopedDevice scope(dev);
  nbody::Simulation sim(
      sc.make(cfg.n, cfg.workload_seed),
      scenario_fuzz_config(sc, cfg.rebuild_interval));
  for (int i = 0; i < cfg.steps; ++i) (void)sim.step();
  return pack_state(sim.particles());
}

ScenarioRunOutcome run_scenario(const FuzzConfig& cfg, std::uint64_t seed,
                                const std::vector<real>& reference) {
  const scenario::Scenario& sc = scenario::scenario_from_seed(seed);
  ScenarioRunOutcome out;
  out.scenario = sc.name;
  // Same seed-bit encoding as run_sharded (bits 3+ shard count, bit 5
  // SIMD) so one token language covers both sweeps; the scenario is an
  // independent hash of the whole seed.
  const int shard_choices[] = {1, 2, 4};
  out.shards = shard_choices[(seed >> 3) % 3];
  const bool simd_on = ((seed >> 5) & 1) != 0;
  simt::ScopedSimd simd(simd_on);
  out.leg = leg_name(simd_on, out.shards);

  nbody::ShardOptions opt;
  opt.shards = out.shards;
  opt.workers = cfg.workers;
  nbody::Simulation sim(sc.make(cfg.n, cfg.workload_seed),
                        scenario_fuzz_config(sc, cfg.rebuild_interval), opt);
  for (int i = 0; i < cfg.steps; ++i) (void)sim.step();
  out.bit_identical = pack_state(sim.particles()) == reference;
  return out;
}

ScenarioRunOutcome replay_scenario_seed(const FuzzConfig& cfg,
                                        std::uint64_t seed) {
  return run_scenario(
      cfg, seed, scenario_reference(cfg, scenario::scenario_from_seed(seed)));
}

SweepReport sweep_scenario_seeds(const FuzzConfig& cfg,
                                 std::uint64_t base_seed, std::size_t count) {
  SweepReport rep;
  // One reference per scenario the seed range actually hits
  // (IC generation can dwarf the run itself, e.g. the M31 model).
  std::map<std::string, std::vector<real>> refs;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t seed = base_seed + i;
    const scenario::Scenario& sc = scenario::scenario_from_seed(seed);
    auto it = refs.find(sc.name);
    if (it == refs.end()) {
      it = refs.emplace(sc.name, scenario_reference(cfg, sc)).first;
    }
    const ScenarioRunOutcome out = run_scenario(cfg, seed, it->second);
    ++rep.runs;
    const std::string leg = out.scenario + ": " + out.leg;
    rep.legs.insert(leg);
    if (!out.bit_identical) append_divergence(rep, seed, leg);
  }
  return rep;
}

ShardFaultOutcome run_shard_fault(const FuzzConfig& cfg, std::uint64_t seed) {
  ShardFaultOutcome out;
  out.shards = 2 + static_cast<int>((seed >> 8) % 3); // 2..4
  out.target_shard = static_cast<int>(seed % static_cast<std::uint64_t>(
                                                 out.shards));

  nbody::ShardOptions opt;
  opt.shards = out.shards;
  opt.workers = cfg.workers;
  nbody::Simulation sim(fuzz_cloud(cfg.n, cfg.workload_seed),
                        fuzz_sim_config(cfg.rebuild_interval), opt);
  (void)sim.step(); // a healthy step first, so the fault hits steady state

  // Target one of the shard's upcoming step launches (its per-device
  // launch ids are monotonic; a step issues up to ~5 launches per shard).
  runtime::Device& target = sim.shard_device(out.target_shard);
  FaultPlan plan;
  plan.throw_at.push_back(target.launch_count() + 1 + seed % 4);
  FaultController ctrl(plan);
  target.set_schedule_controller(&ctrl);

  bool threw = false;
  bool foreign_error = false;
  try {
    (void)sim.step();
  } catch (const InjectedFault&) {
    threw = true;
  } catch (...) {
    foreign_error = true;
  }
  // Every shard finished its phase before step() returned or threw, so
  // the devices are idle and the controller can be detached.
  target.set_schedule_controller(nullptr);
  out.injected_throws = ctrl.injected_throws();
  out.error_thrown = threw;

  // Every shard device — faulted one included — must accept and complete
  // new work: one shard's failure must not poison the other devices.
  bool reusable = true;
  std::string stuck;
  for (int s = 0; s < out.shards; ++s) {
    runtime::Stream probe("fault-probe");
    int ran = 0;
    runtime::LaunchDesc desc;
    desc.label = "fault-probe";
    desc.items = 1;
    desc.stream = &probe;
    try {
      (void)sim.shard_device(s).launch(desc,
                                       [&ran](simt::OpCounts&) { ++ran; });
      if (ran != 1) {
        reusable = false;
        stuck += " shard " + std::to_string(s) + " probe body did not run;";
      }
    } catch (...) {
      reusable = false;
      stuck += " shard " + std::to_string(s) + " raised on reuse;";
    }
  }
  out.devices_reusable = reusable;

  std::string d;
  if (foreign_error) d += "step raised a non-injected exception; ";
  if (threw != (out.injected_throws > 0)) {
    d += threw ? "step raised an error with no injected throw; "
               : "injected throw did not propagate out of step; ";
  }
  if (!reusable) d += "post-fault reuse failed:" + stuck + "; ";
  if (d.size() >= 2) d.resize(d.size() - 2);
  out.detail = d;
  return out;
}

FaultSweepReport sweep_shard_faults(const FuzzConfig& cfg,
                                    std::uint64_t base_seed,
                                    std::size_t count) {
  FaultSweepReport rep;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t seed = base_seed + i;
    const ShardFaultOutcome out = run_shard_fault(cfg, seed);
    ++rep.plans;
    if (out.injected_throws > 0) ++rep.with_throws;
    if (!out.ok()) {
      rep.failures.push_back("shard-fault seed " + hex_seed(seed) + " (K=" +
                             std::to_string(out.shards) + ", target " +
                             std::to_string(out.target_shard) +
                             "): " + out.detail);
    }
  }
  return rep;
}

} // namespace gothic::testkit
