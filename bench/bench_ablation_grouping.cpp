// Ablation — warp-group compactness (the DESIGN.md-called-out departure
// from a naive fixed 32-consecutive-body split).
//
// walk_groups() halves any run whose bounding sphere violates
// r_grp <= max(edge * fraction, 0.2 * distance-to-centroid). Sweeping the
// absolute floor shows the trade: loose groups (large fraction) fill whole
// warps but their spheres swallow the dense bulk, forcing near-direct
// summation through the leaf-spill path; overly tight groups waste warp
// lanes on traversal overhead.
#include "support/experiment.hpp"

#include "gravity/walk_tree.hpp"
#include "octree/calc_node.hpp"
#include "octree/tree_build.hpp"

#include <cmath>
#include <iostream>

int main() {
  using namespace gothic;
  using namespace gothic::bench;

  const BenchScale scale = BenchScale::from_env();
  auto p = m31_workload(scale.n);
  octree::Octree tree;
  std::vector<index_t> perm;
  octree::build_tree(p.x, p.y, p.z, tree, perm, octree::BuildConfig{});
  p.apply_permutation(perm);
  octree::calc_node(tree, p.x, p.y, p.z, p.m);

  const std::size_t n = p.size();
  std::vector<real> ax(n), ay(n), az(n);
  gravity::WalkConfig boot;
  boot.eps = real(0.0156);
  boot.mac.type = gravity::MacType::OpeningAngle;
  gravity::walk_tree(tree, p.x, p.y, p.z, p.m, {}, boot, ax, ay, az);
  std::vector<real> amag(n);
  for (std::size_t i = 0; i < n; ++i) {
    amag[i] = std::sqrt(ax[i] * ax[i] + ay[i] * ay[i] + az[i] * az[i]);
  }

  const auto v100 = perfmodel::tesla_v100();

  Table t("ablation: group compactness floor (M31, N = " +
              std::to_string(scale.n) + ", dacc = 2^-9)",
          {"floor (box/x)", "groups", "mean size", "interactions",
           "MAC evals", "V100 walk [s]"});
  for (const double denom : {8.0, 32.0, 128.0, 512.0}) {
    const auto groups = gravity::walk_groups(
        tree, p.x, p.y, p.z, static_cast<real>(1.0 / denom));
    gravity::WalkConfig cfg;
    cfg.eps = real(0.0156);
    cfg.mac.dacc = real(1.0 / 512);
    simt::OpCounts ops;
    gravity::WalkStats stats;
    gravity::walk_tree(tree, p.x, p.y, p.z, p.m, amag, cfg, ax, ay, az, {},
                       &ops, &stats, {}, groups);
    const double tw = perfmodel::gothic_kernel_seconds(
        v100, perfmodel::GothicKernel::WalkTree, ops);
    t.add_row({"1/" + Table::num(static_cast<long long>(denom)),
               Table::num(static_cast<long long>(groups.size())),
               Table::fix(static_cast<double>(n) / groups.size(), 1),
               Table::sci(static_cast<double>(stats.interactions)),
               Table::sci(static_cast<double>(stats.mac_evals)),
               Table::sci(tw)});
  }
  t.print(std::cout);
  std::cout << "expected: interactions blow up as the floor loosens "
               "(spill-dominated); MAC evaluations grow as it tightens "
               "(per-group traversal overhead); the default 1/128 sits "
               "near the time minimum.\n";
  return 0;
}
