// Ablation — leaf capacity of the octree build.
//
// Small leaves give tight groups and accurate pseudo-particles but a
// deeper, pointer-heavier tree (more MAC evaluations and calcNode work);
// large leaves spill more bodies into the interaction lists. The sweep
// exposes the trade-off behind the default of 16.
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
  const auto base = m31_workload(scale.n);
  const auto v100 = perfmodel::tesla_v100();

  Table t("ablation: leaf capacity (M31, N = " + std::to_string(scale.n) +
              ", dacc = 2^-9)",
          {"leaf cap", "tree nodes", "MAC evals", "interactions",
           "V100 walk [s]", "V100 calc [s]"});
  for (const int cap : {4, 8, 16, 32, 64}) {
    auto p = base;
    octree::Octree tree;
    std::vector<index_t> perm;
    octree::BuildConfig bc;
    bc.leaf_capacity = cap;
    octree::build_tree(p.x, p.y, p.z, tree, perm, bc);
    p.apply_permutation(perm);
    simt::OpCounts calc_ops;
    octree::calc_node(tree, p.x, p.y, p.z, p.m, {}, &calc_ops);

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
    gravity::WalkConfig cfg;
    cfg.eps = real(0.0156);
    cfg.mac.dacc = real(1.0 / 512);
    simt::OpCounts walk_ops;
    gravity::WalkStats stats;
    gravity::walk_tree(tree, p.x, p.y, p.z, p.m, amag, cfg, ax, ay, az, {},
                       &walk_ops, &stats);

    using perfmodel::GothicKernel;
    t.add_row(
        {Table::num(cap), Table::num(tree.num_nodes()),
         Table::sci(static_cast<double>(stats.mac_evals)),
         Table::sci(static_cast<double>(stats.interactions)),
         Table::sci(perfmodel::gothic_kernel_seconds(
             v100, GothicKernel::WalkTree, walk_ops)),
         Table::sci(perfmodel::gothic_kernel_seconds(
             v100, GothicKernel::CalcNode, calc_ops))});
  }
  t.print(std::cout);
  std::cout << "expected: node count (and calcNode cost) falls with leaf "
               "capacity while spill interactions grow; the minimum of the "
               "walk+calc sum motivates the default of 16.\n";
  return 0;
}
