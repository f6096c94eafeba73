// walkTree correctness: tree forces against the double-precision direct
// reference, MAC accuracy ordering, and mode accounting.
#include "gravity/direct.hpp"
#include "gravity/walk_tree.hpp"
#include "octree/calc_node.hpp"
#include "octree/tree_build.hpp"
#include "runtime/device.hpp"
#include "simt/simd.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace gothic::gravity {
namespace {

using octree::BuildConfig;
using octree::build_tree;
using octree::calc_node;
using octree::Octree;

struct System {
  std::vector<real> x, y, z, m;
  Octree tree;

  void build() {
    std::vector<index_t> perm;
    build_tree(x, y, z, tree, perm, BuildConfig{});
    auto apply = [&perm](std::vector<real>& v) {
      std::vector<real> out(v.size());
      octree::gather(v, perm, out);
      v = std::move(out);
    };
    apply(x);
    apply(y);
    apply(z);
    apply(m);
    calc_node(tree, x, y, z, m);
  }

  [[nodiscard]] std::size_t n() const { return x.size(); }
};

/// Plummer sphere — centrally concentrated like real stellar systems, so
/// the tree is deep where it matters.
System plummer(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
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
  return s;
}

struct ForceResult {
  std::vector<real> ax, ay, az, pot;
};

ForceResult run_walk(System& s, const WalkConfig& cfg,
                     std::span<const real> aold = {},
                     simt::OpCounts* ops = nullptr,
                     WalkStats* stats = nullptr) {
  ForceResult r;
  r.ax.resize(s.n());
  r.ay.resize(s.n());
  r.az.resize(s.n());
  r.pot.resize(s.n());
  walk_tree(s.tree, s.x, s.y, s.z, s.m, aold, cfg, r.ax, r.ay, r.az, r.pot,
            ops, stats);
  return r;
}

/// Median relative force error against the double-precision direct sum.
double median_force_error(const System& s, const ForceResult& r,
                          double eps) {
  const std::size_t n = s.n();
  std::vector<double> ax(n), ay(n), az(n);
  direct_forces_ref(s.x, s.y, s.z, s.m, eps, 1.0, ax, ay, az);
  std::vector<double> err(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = r.ax[i] - ax[i];
    const double dy = r.ay[i] - ay[i];
    const double dz = r.az[i] - az[i];
    const double ref = std::sqrt(ax[i] * ax[i] + ay[i] * ay[i] + az[i] * az[i]);
    err[i] = std::sqrt(dx * dx + dy * dy + dz * dz) / std::max(ref, 1e-12);
  }
  std::nth_element(err.begin(), err.begin() + static_cast<long>(n / 2),
                   err.end());
  return err[n / 2];
}

constexpr real kEps = real(0.03);

TEST(WalkTree, OpeningAngleMatchesDirectToMacAccuracy) {
  System s = plummer(4096, 1);
  s.build();
  WalkConfig cfg;
  cfg.eps = kEps;
  cfg.mac.type = MacType::OpeningAngle;
  cfg.mac.theta = real(0.5);
  const ForceResult r = run_walk(s, cfg);
  EXPECT_LT(median_force_error(s, r, kEps), 2e-3);
}

TEST(WalkTree, AccelerationMacMatchesDirect) {
  System s = plummer(4096, 2);
  s.build();
  // Bootstrap |a| with an opening-angle walk, as the Simulation driver does.
  WalkConfig boot;
  boot.eps = kEps;
  boot.mac.type = MacType::OpeningAngle;
  boot.mac.theta = real(0.8);
  const ForceResult b = run_walk(s, boot);
  std::vector<real> amag(s.n());
  for (std::size_t i = 0; i < s.n(); ++i) {
    amag[i] = std::sqrt(b.ax[i] * b.ax[i] + b.ay[i] * b.ay[i] +
                        b.az[i] * b.az[i]);
  }
  WalkConfig cfg;
  cfg.eps = kEps;
  cfg.mac.type = MacType::Acceleration;
  cfg.mac.dacc = real(1.0 / 512); // the paper's fiducial 2^-9
  const ForceResult r = run_walk(s, cfg, amag);
  EXPECT_LT(median_force_error(s, r, kEps), 2e-3);
}

TEST(WalkTree, ErrorDecreasesWithDacc) {
  System s = plummer(4096, 3);
  s.build();
  WalkConfig boot;
  boot.eps = kEps;
  boot.mac.type = MacType::OpeningAngle;
  const ForceResult b = run_walk(s, boot);
  std::vector<real> amag(s.n());
  for (std::size_t i = 0; i < s.n(); ++i) {
    amag[i] = std::sqrt(b.ax[i] * b.ax[i] + b.ay[i] * b.ay[i] +
                        b.az[i] * b.az[i]);
  }
  double prev = 1e9;
  for (const double dacc : {0.5, 1.0 / 32, 1.0 / 512, 1.0 / 8192}) {
    WalkConfig cfg;
    cfg.eps = kEps;
    cfg.mac.dacc = static_cast<real>(dacc);
    const ForceResult r = run_walk(s, cfg, amag);
    const double err = median_force_error(s, r, kEps);
    EXPECT_LT(err, prev * 1.5) << "dacc=" << dacc; // no error regression
    prev = err;
  }
  EXPECT_LT(prev, 5e-4); // the tightest setting is nearly exact
}

TEST(WalkTree, InteractionsGrowAsDaccShrinks) {
  System s = plummer(8192, 4);
  s.build();
  WalkConfig boot;
  boot.eps = kEps;
  boot.mac.type = MacType::OpeningAngle;
  const ForceResult b = run_walk(s, boot);
  std::vector<real> amag(s.n());
  for (std::size_t i = 0; i < s.n(); ++i) {
    amag[i] = std::sqrt(b.ax[i] * b.ax[i] + b.ay[i] * b.ay[i] +
                        b.az[i] * b.az[i]);
  }
  std::uint64_t prev = 0;
  for (const double dacc : {0.5, 1.0 / 512, 1.0 / 65536}) {
    WalkConfig cfg;
    cfg.eps = kEps;
    cfg.mac.dacc = static_cast<real>(dacc);
    WalkStats stats;
    (void)run_walk(s, cfg, amag, nullptr, &stats);
    EXPECT_GT(stats.interactions, prev);
    prev = stats.interactions;
  }
  // The tightest walk still does far fewer interactions than direct N^2.
  EXPECT_LT(prev, static_cast<std::uint64_t>(s.n()) * s.n());
}

TEST(WalkTree, PotentialMatchesDirectReference) {
  System s = plummer(2048, 5);
  s.build();
  WalkConfig cfg;
  cfg.eps = kEps;
  cfg.mac.type = MacType::OpeningAngle;
  cfg.mac.theta = real(0.4);
  const ForceResult r = run_walk(s, cfg);
  std::vector<double> ax(s.n()), ay(s.n()), az(s.n()), pot(s.n());
  direct_forces_ref(s.x, s.y, s.z, s.m, kEps, 1.0, ax, ay, az, pot);
  double num = 0, den = 0;
  for (std::size_t i = 0; i < s.n(); ++i) {
    num += std::fabs(r.pot[i] - pot[i]);
    den += std::fabs(pot[i]);
  }
  EXPECT_LT(num / den, 2e-3);
}

TEST(WalkTree, TotalMomentumNearlyConserved) {
  // Newton's third law holds exactly for direct; the tree walk breaks
  // pairwise symmetry only at MAC level.
  System s = plummer(4096, 6);
  s.build();
  WalkConfig cfg;
  cfg.eps = kEps;
  cfg.mac.type = MacType::OpeningAngle;
  cfg.mac.theta = real(0.5);
  const ForceResult r = run_walk(s, cfg);
  double fx = 0, fy = 0, fz = 0, fnorm = 0;
  for (std::size_t i = 0; i < s.n(); ++i) {
    fx += s.m[i] * r.ax[i];
    fy += s.m[i] * r.ay[i];
    fz += s.m[i] * r.az[i];
    fnorm += s.m[i] * std::sqrt(r.ax[i] * r.ax[i] + r.ay[i] * r.ay[i] +
                                r.az[i] * r.az[i]);
  }
  const double drift = std::sqrt(fx * fx + fy * fy + fz * fz) / fnorm;
  EXPECT_LT(drift, 1e-2);
}

TEST(WalkTree, GadgetMacNeedsMoreInteractionsForSameError) {
  // The acceleration MAC reaches a given accuracy with fewer interactions
  // than the cell-edge (Gadget-style) variant — the advantage [14, 18]
  // report and §1 cites.
  System s = plummer(8192, 7);
  s.build();
  WalkConfig boot;
  boot.eps = kEps;
  boot.mac.type = MacType::OpeningAngle;
  const ForceResult b = run_walk(s, boot);
  std::vector<real> amag(s.n());
  for (std::size_t i = 0; i < s.n(); ++i) {
    amag[i] = std::sqrt(b.ax[i] * b.ax[i] + b.ay[i] * b.ay[i] +
                        b.az[i] * b.az[i]);
  }

  WalkConfig acc;
  acc.eps = kEps;
  acc.mac.type = MacType::Acceleration;
  acc.mac.dacc = real(1.0 / 512);
  WalkStats acc_stats;
  const ForceResult ra = run_walk(s, acc, amag, nullptr, &acc_stats);
  const double err_acc = median_force_error(s, ra, kEps);

  WalkConfig gad = acc;
  gad.mac.type = MacType::Gadget;
  WalkStats gad_stats;
  const ForceResult rg = run_walk(s, gad, amag, nullptr, &gad_stats);
  const double err_gad = median_force_error(s, rg, kEps);

  // Same parameter: the cell edge over-estimates the group size, so the
  // Gadget variant is at least as accurate but strictly more expensive.
  EXPECT_LE(err_gad, err_acc * 1.5);
  EXPECT_GT(gad_stats.interactions, acc_stats.interactions);
}

TEST(WalkTree, VoltaModeCountsSyncsOnly) {
  System s = plummer(4096, 8);
  s.build();
  WalkConfig cfg;
  cfg.eps = kEps;
  cfg.mac.type = MacType::OpeningAngle;
  simt::OpCounts pascal, volta;
  cfg.mode = simt::ExecMode::Pascal;
  (void)run_walk(s, cfg, {}, &pascal);
  cfg.mode = simt::ExecMode::Volta;
  (void)run_walk(s, cfg, {}, &volta);
  EXPECT_EQ(pascal.syncwarp, 0u);
  EXPECT_GT(volta.syncwarp, 0u);
  EXPECT_EQ(pascal.fp32_fma, volta.fp32_fma);
  EXPECT_EQ(pascal.fp32_mul, volta.fp32_mul);
  EXPECT_EQ(pascal.int_ops, volta.int_ops);
}

TEST(WalkTree, StatsAreInternallyConsistent) {
  System s = plummer(4096, 9);
  s.build();
  WalkConfig cfg;
  cfg.eps = kEps;
  cfg.mac.type = MacType::OpeningAngle;
  WalkStats stats;
  simt::OpCounts ops;
  (void)run_walk(s, cfg, {}, &ops, &stats);
  const auto groups = walk_groups(s.tree, s.x, s.y, s.z);
  EXPECT_EQ(stats.groups, groups.size());
  // Tree-derived groups cover every body exactly once.
  std::size_t covered = 0;
  for (const GroupSpan& g : groups) {
    EXPECT_LE(g.count, static_cast<index_t>(kWarpSize));
    covered += g.count;
  }
  EXPECT_EQ(covered, s.n());
  // Every appended source is consumed by at least one interaction row.
  EXPECT_EQ(stats.interactions % 1, 0u);
  EXPECT_GT(stats.mac_evals, 0u);
  EXPECT_GT(stats.pseudo_appended, 0u);
  EXPECT_GT(stats.body_appended, 0u);
  // Interactions = sum over flushes of gn * list_size <= gn * appended.
  EXPECT_LE(stats.interactions,
            (stats.pseudo_appended + stats.body_appended) * kWarpSize);
  // The FP32 FMA count is dominated by pairs * kPairFma.
  EXPECT_GE(ops.fp32_fma, stats.interactions * 6);
}

TEST(WalkTree, ListCapacitySweepsAreEquivalent) {
  System s = plummer(2048, 10);
  s.build();
  WalkConfig a;
  a.eps = kEps;
  a.mac.type = MacType::OpeningAngle;
  a.list_capacity = 64;
  WalkConfig b = a;
  b.list_capacity = 512;
  WalkStats sa, sb;
  const ForceResult ra = run_walk(s, a, {}, nullptr, &sa);
  const ForceResult rb = run_walk(s, b, {}, nullptr, &sb);
  // Same interactions, different flush granularity.
  EXPECT_EQ(sa.interactions, sb.interactions);
  EXPECT_GT(sa.flushes, sb.flushes);
  for (std::size_t i = 0; i < s.n(); i += 97) {
    EXPECT_NEAR(ra.ax[i], rb.ax[i], 1e-4 * (std::fabs(ra.ax[i]) + 1e-3));
  }
}

TEST(WalkTree, EmptyAoldDegeneratesToNearDirect) {
  System s = plummer(512, 11);
  s.build();
  WalkConfig cfg;
  cfg.eps = kEps;
  cfg.mac.type = MacType::Acceleration;
  WalkStats stats;
  const ForceResult r = run_walk(s, cfg, {}, nullptr, &stats);
  // amin = 0 rejects every node with a non-zero size; only single-body
  // leaves (bmax = 0, exact as pseudo-particles) can be accepted, so the
  // result is accurate to FP32 round-off.
  EXPECT_LT(stats.pseudo_appended, stats.body_appended);
  EXPECT_LT(median_force_error(s, r, kEps), 1e-4);
}

TEST(WalkTree, RejectsNonPositiveEps) {
  System s = plummer(256, 13);
  s.build();
  std::vector<real> ax(s.n()), ay(s.n()), az(s.n());
  for (const real eps :
       {real(0), real(-1), std::numeric_limits<real>::quiet_NaN()}) {
    WalkConfig cfg;
    cfg.eps = eps;
    EXPECT_THROW(walk_tree(s.tree, s.x, s.y, s.z, s.m, {}, cfg, ax, ay, az),
                 std::invalid_argument)
        << "eps = " << eps;
  }
}

TEST(WalkTree, SchedulesAreBitIdenticalAcrossWorkerCounts) {
  // The work queue picks who walks a group, never what it computes: every
  // activity mask must give the 1-worker bits at 3 and 4 workers.
  System s = plummer(4096, 14);
  s.build();
  const auto groups = walk_groups(s.tree, s.x, s.y, s.z);
  const std::size_t ng = groups.size();
  ASSERT_GE(ng, 64u);

  // Masks: every group active; two thirds active; one contiguous active
  // run shorter than one chunk of a queue over *all* groups at 4 workers
  // (ng / 32 groups) — the clustered sparse block step, which such a queue
  // hands to a single worker; no group active.
  std::vector<std::uint8_t> two_thirds(ng, 1);
  for (std::size_t g = 2; g < ng; g += 3) two_thirds[g] = 0;
  std::vector<std::uint8_t> short_run(ng, 0);
  const std::size_t run_len = ng / 32 - 1;
  ASSERT_GE(run_len, 2u);
  for (std::size_t g = ng / 2; g < ng / 2 + run_len; ++g) short_run[g] = 1;
  const std::vector<std::uint8_t> none(ng, 0);
  const std::vector<std::vector<std::uint8_t>> masks = {
      {}, two_thirds, short_run, none};

  WalkConfig cfg;
  cfg.eps = kEps;
  cfg.mac.type = MacType::OpeningAngle;

  auto run = [&](int workers, std::span<const std::uint8_t> active) {
    runtime::Device dev(workers);
    runtime::ScopedDevice scope(dev);
    ForceResult r;
    r.ax.assign(s.n(), real(0));
    r.ay.assign(s.n(), real(0));
    r.az.assign(s.n(), real(0));
    r.pot.assign(s.n(), real(0));
    GroupCosts costs;
    // Two walks on one cost state: the second reuses the retained queue.
    for (int rep = 0; rep < 2; ++rep) {
      walk_tree(s.tree, s.x, s.y, s.z, s.m, {}, cfg, r.ax, r.ay, r.az, r.pot,
                nullptr, nullptr, active, groups, &costs);
    }
    return r;
  };

  for (std::size_t mi = 0; mi < masks.size(); ++mi) {
    const ForceResult ref = run(1, masks[mi]);
    for (const int workers : {3, 4}) {
      const ForceResult r = run(workers, masks[mi]);
      EXPECT_TRUE(r.ax == ref.ax && r.ay == ref.ay && r.az == ref.az &&
                  r.pot == ref.pot)
          << "mask = " << mi << ", workers = " << workers;
    }
  }
}

TEST(WalkTree, ActiveQueueReusesRetainedCapacity) {
  System s = plummer(2048, 18);
  s.build();
  const auto groups = walk_groups(s.tree, s.x, s.y, s.z);
  ASSERT_GE(groups.size(), 4u);
  std::vector<std::uint8_t> active(groups.size(), 1);
  active[1] = 0;

  WalkConfig cfg;
  cfg.eps = kEps;
  cfg.mac.type = MacType::OpeningAngle;
  std::vector<real> ax(s.n()), ay(s.n()), az(s.n());
  GroupCosts costs;
  walk_tree(s.tree, s.x, s.y, s.z, s.m, {}, cfg, ax, ay, az, {}, nullptr,
            nullptr, active, groups, &costs);
  // The queue holds exactly the active group indices, in group order.
  ASSERT_EQ(costs.active.size(), groups.size() - 1);
  EXPECT_EQ(costs.active[0], 0u);
  EXPECT_EQ(costs.active[1], 2u);

  // A later walk over no more active groups reuses the same storage.
  const std::size_t* storage = costs.active.data();
  const std::size_t capacity = costs.active.capacity();
  active.assign(groups.size(), 0);
  active[3] = 1;
  walk_tree(s.tree, s.x, s.y, s.z, s.m, {}, cfg, ax, ay, az, {}, nullptr,
            nullptr, active, groups, &costs);
  EXPECT_EQ(costs.active, std::vector<std::size_t>{3});
  EXPECT_EQ(costs.active.data(), storage);
  EXPECT_EQ(costs.active.capacity(), capacity);
}

TEST(WalkTree, CostVectorIsRecordedReseededAndRetained) {
  System s = plummer(2048, 15);
  s.build();
  const auto groups = walk_groups(s.tree, s.x, s.y, s.z);
  ASSERT_GE(groups.size(), 4u);
  std::vector<std::uint8_t> active(groups.size(), 1);
  active[1] = 0;

  WalkConfig cfg;
  cfg.eps = kEps;
  cfg.mac.type = MacType::OpeningAngle;

  // Wrong-sized vector: the walk must re-seed it to the decomposition.
  GroupCosts costs;
  costs.reset(3);
  std::vector<real> ax(s.n()), ay(s.n()), az(s.n());
  walk_tree(s.tree, s.x, s.y, s.z, s.m, {}, cfg, ax, ay, az, {}, nullptr,
            nullptr, active, groups, &costs);
  ASSERT_EQ(costs.cost.size(), groups.size());
  // Active groups got a measured cost (at least one MAC evaluation each);
  // the inactive group kept its (re-seeded uniform) value.
  EXPECT_GT(costs.cost[0], 0.0);
  EXPECT_EQ(costs.cost[1], 1.0);

  // A sentinel on an inactive group survives the next walk untouched.
  costs.cost[1] = 7.5;
  const double cost0 = costs.cost[0];
  walk_tree(s.tree, s.x, s.y, s.z, s.m, {}, cfg, ax, ay, az, {}, nullptr,
            nullptr, active, groups, &costs);
  EXPECT_EQ(costs.cost[1], 7.5);
  // Re-walked active groups re-record the same deterministic cost.
  EXPECT_EQ(costs.cost[0], cost0);
}

TEST(WalkTree, StatsReportWorkerTimingAndImbalance) {
  System s = plummer(4096, 16);
  s.build();
  WalkConfig cfg;
  cfg.eps = kEps;
  cfg.mac.type = MacType::OpeningAngle;
  WalkStats stats;
  (void)run_walk(s, cfg, {}, nullptr, &stats);
  EXPECT_GT(stats.workers, 0u);
  EXPECT_GT(stats.worker_sum_seconds, 0.0);
  EXPECT_GE(stats.worker_max_seconds, stats.worker_sum_seconds /
                                          static_cast<double>(stats.workers));
  // max/mean >= 1 by construction whenever timing was recorded.
  EXPECT_GE(stats.imbalance(), 1.0);
  EXPECT_LE(stats.imbalance(), static_cast<double>(stats.workers) + 1e-9);
}

TEST(WalkTree, ThrowsWithoutCalcNode) {
  System s = plummer(256, 12);
  std::vector<index_t> perm;
  build_tree(s.x, s.y, s.z, s.tree, perm, BuildConfig{});
  // calc_node not run: geometry arrays are zeroed but sized; mass[0]==0
  // would silently produce garbage, so size check alone is insufficient —
  // the zero-mass root is however rejected by every MAC and the walk
  // still terminates; we only require no crash here.
  WalkConfig cfg;
  cfg.eps = kEps;
  std::vector<real> ax(s.n()), ay(s.n()), az(s.n());
  EXPECT_NO_THROW(
      walk_tree(s.tree, s.x, s.y, s.z, s.m, {}, cfg, ax, ay, az));
}

TEST(WalkTree, SimdAndScalarWalksAreBitIdenticalWithEqualCounts) {
  // GOTHIC_SIMD=1 vs =0 must be invisible: accelerations, potentials, op
  // tallies and traversal stats all bit/count-identical. Sizes are chosen
  // so groups hit every lane-block shape of the AVX2 flush — n=5 is pure
  // scalar remainder, n=61 mixes full 8-lane blocks with remainders, the
  // larger ones exercise full 32-lane groups — with the quadrupole term
  // both off and on.
  if (!simt::simd_available()) {
    GTEST_SKIP() << "AVX2 unavailable on this host";
  }
  for (const std::size_t n : {std::size_t{5}, std::size_t{61},
                              std::size_t{1000}, std::size_t{4096}}) {
    System s = plummer(n, 9100 + n);
    std::vector<index_t> perm;
    build_tree(s.x, s.y, s.z, s.tree, perm, BuildConfig{});
    auto apply = [&perm](std::vector<real>& v) {
      std::vector<real> out(v.size());
      octree::gather(v, perm, out);
      v = std::move(out);
    };
    apply(s.x);
    apply(s.y);
    apply(s.z);
    apply(s.m);
    octree::CalcNodeConfig nc;
    nc.compute_quadrupole = true;
    calc_node(s.tree, s.x, s.y, s.z, s.m, nc);
    for (const bool quad : {false, true}) {
      WalkConfig cfg;
      cfg.mac.type = MacType::OpeningAngle;
      cfg.use_quadrupole = quad;
      simt::OpCounts scalar_ops, simd_ops;
      WalkStats scalar_stats, simd_stats;
      ForceResult scalar_r, simd_r;
      {
        simt::ScopedSimd off(false);
        scalar_r = run_walk(s, cfg, {}, &scalar_ops, &scalar_stats);
      }
      {
        simt::ScopedSimd on(true);
        simd_r = run_walk(s, cfg, {}, &simd_ops, &simd_stats);
      }
      ASSERT_EQ(scalar_ops, simd_ops) << "n=" << n << " quad=" << quad;
      EXPECT_EQ(scalar_stats.interactions, simd_stats.interactions);
      EXPECT_EQ(scalar_stats.mac_evals, simd_stats.mac_evals);
      EXPECT_EQ(scalar_stats.flushes, simd_stats.flushes);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(scalar_r.ax[i], simd_r.ax[i]) << "n=" << n << " i=" << i;
        ASSERT_EQ(scalar_r.ay[i], simd_r.ay[i]) << "n=" << n << " i=" << i;
        ASSERT_EQ(scalar_r.az[i], simd_r.az[i]) << "n=" << n << " i=" << i;
        ASSERT_EQ(scalar_r.pot[i], simd_r.pot[i]) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(WalkTree, GroupBoundingRadiusRoundsUpAtTheFloatBoundary) {
  // The double→float cast of the group radius rounds to nearest, so about
  // half of all runs used to report a radius *below* the true double
  // radius — the compactness rule then certified slightly-too-wide groups
  // and the MAC judged cells against an undersized sphere. The fixed
  // radius must always cover the exact double radius, taking the next
  // float up exactly when (and only when) the plain cast rounds down.
  Xoshiro256 rng(20260808);
  int rounded_up = 0;
  for (int trial = 0; trial < 256; ++trial) {
    std::vector<real> x(3), y(3), z(3);
    for (int i = 0; i < 3; ++i) {
      x[i] = static_cast<real>(rng.uniform(-1.0, 1.0));
      y[i] = static_cast<real>(rng.uniform(-1.0, 1.0));
      z[i] = static_cast<real>(rng.uniform(-1.0, 1.0));
    }
    double cx, cy, cz;
    const float r = group_bounding_radius(x, y, z, 0, 3, cx, cy, cz);
    // Exact double radius, recomputed the same way.
    double r2 = 0;
    for (int i = 0; i < 3; ++i) {
      const double dx = x[i] - cx, dy = y[i] - cy, dz = z[i] - cz;
      r2 = std::max(r2, dx * dx + dy * dy + dz * dz);
    }
    const double rd = std::sqrt(r2);
    ASSERT_GE(static_cast<double>(r), rd) << "trial " << trial;
    const float cast = static_cast<float>(rd);
    if (static_cast<double>(cast) < rd) {
      // The boundary case the old code got wrong.
      ++rounded_up;
      EXPECT_EQ(r, std::nextafterf(cast,
                                   std::numeric_limits<float>::infinity()))
          << "trial " << trial;
    } else {
      EXPECT_EQ(r, cast) << "trial " << trial;
    }
  }
  // Round-to-nearest rounds down about half the time; 256 random radii
  // must produce many boundary cases or the regression test tests nothing.
  EXPECT_GT(rounded_up, 32);
}

// --- Lennard-Jones over the same tree walk --------------------------------
// The force-law seam (ForceLaw::LennardJones): culling with the cutoff MAC
// must stay conservative, the flush kernel must reproduce the direct pair
// sum exactly up to summation order, and the AVX2 substrate must remain
// bit-identical to the scalar one (the same contract gravity has).

System uniform_cloud(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  System s;
  s.x.resize(n);
  s.y.resize(n);
  s.z.resize(n);
  s.m.assign(n, real(1.0 / static_cast<double>(n)));
  for (std::size_t i = 0; i < n; ++i) {
    s.x[i] = static_cast<real>(rng.uniform(-1.0, 1.0));
    s.y[i] = static_cast<real>(rng.uniform(-1.0, 1.0));
    s.z[i] = static_cast<real>(rng.uniform(-1.0, 1.0));
  }
  return s;
}

WalkConfig lj_config() {
  WalkConfig cfg;
  cfg.law = ForceLaw::LennardJones;
  cfg.lj.sigma = real(0.1);
  cfg.lj.epsilon = real(1);
  cfg.lj.cutoff = real(0.25);
  return cfg;
}

TEST(WalkTreeLJ, MatchesDirectSummationUpToOrder) {
  System s = uniform_cloud(1024, 11);
  s.build();
  const WalkConfig cfg = lj_config();
  const ForceResult r = run_walk(s, cfg);

  const std::size_t n = s.n();
  std::vector<real> ax(n), ay(n), az(n), pot(n);
  direct_forces_lj(s.x, s.y, s.z, s.m, cfg.lj, cfg.g, ax, ay, az, pot);

  double a_rms = 0;
  for (std::size_t i = 0; i < n; ++i) {
    a_rms += static_cast<double>(ax[i]) * ax[i] +
             static_cast<double>(ay[i]) * ay[i] +
             static_cast<double>(az[i]) * az[i];
  }
  a_rms = std::sqrt(a_rms / static_cast<double>(n));
  ASSERT_GT(a_rms, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = r.ax[i] - ax[i];
    const double dy = r.ay[i] - ay[i];
    const double dz = r.az[i] - az[i];
    const double ref = std::sqrt(static_cast<double>(ax[i]) * ax[i] +
                                 static_cast<double>(ay[i]) * ay[i] +
                                 static_cast<double>(az[i]) * az[i]);
    EXPECT_LT(std::sqrt(dx * dx + dy * dy + dz * dz) /
                  std::max(ref, 0.05 * a_rms),
              1e-4)
        << "particle " << i;
    EXPECT_NEAR(r.pot[i], pot[i],
                1e-4 * (std::fabs(pot[i]) + 1e-6))
        << "particle " << i;
  }
}

TEST(WalkTreeLJ, BodiesBeyondCutoffContributeExactlyZero) {
  // A compact cloud plus one probe far outside the cutoff: truncation is
  // exact (not a smooth decay), so the probe's force and potential must be
  // exactly zero — any drip-through means the cutoff MAC over-accepted.
  System s = uniform_cloud(256, 12);
  s.x.push_back(real(10));
  s.y.push_back(real(0));
  s.z.push_back(real(0));
  s.m.push_back(real(1.0 / 256.0));
  s.build();
  const ForceResult r = run_walk(s, lj_config());
  // Locate the probe in the Morton-sorted order.
  std::size_t probe = s.n();
  for (std::size_t i = 0; i < s.n(); ++i) {
    if (s.x[i] == real(10)) probe = i;
  }
  ASSERT_LT(probe, s.n());
  EXPECT_EQ(r.ax[probe], real(0));
  EXPECT_EQ(r.ay[probe], real(0));
  EXPECT_EQ(r.az[probe], real(0));
  EXPECT_EQ(r.pot[probe], real(0));
}

TEST(WalkTreeLJ, ScalarAndSimdSubstratesBitIdentical) {
  System s = uniform_cloud(768, 13);
  s.build();
  const WalkConfig cfg = lj_config();
  ForceResult scalar, simd;
  {
    simt::ScopedSimd off(false);
    scalar = run_walk(s, cfg);
  }
  {
    simt::ScopedSimd on(true); // no-op on hosts without AVX2
    simd = run_walk(s, cfg);
  }
  for (std::size_t i = 0; i < s.n(); ++i) {
    ASSERT_EQ(scalar.ax[i], simd.ax[i]) << "particle " << i;
    ASSERT_EQ(scalar.ay[i], simd.ay[i]) << "particle " << i;
    ASSERT_EQ(scalar.az[i], simd.az[i]) << "particle " << i;
    ASSERT_EQ(scalar.pot[i], simd.pot[i]) << "particle " << i;
  }
}

TEST(WalkTreeLJ, RejectsQuadrupoleAndNonPositiveParameters) {
  System s = uniform_cloud(64, 14);
  s.build();
  WalkConfig quad = lj_config();
  quad.use_quadrupole = true;
  EXPECT_THROW((void)run_walk(s, quad), std::invalid_argument);
  WalkConfig sig = lj_config();
  sig.lj.sigma = real(0);
  EXPECT_THROW((void)run_walk(s, sig), std::invalid_argument);
  WalkConfig cut = lj_config();
  cut.lj.cutoff = real(-1);
  EXPECT_THROW((void)run_walk(s, cut), std::invalid_argument);
}

} // namespace
} // namespace gothic::gravity
