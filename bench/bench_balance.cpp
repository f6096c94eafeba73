// Load balancing — the gravity walk's work queue across block-time-step
// activity fractions.
//
// With block time steps only a fraction of the groups is active per step,
// and the active ones cluster in the dense bulk (Miki & Umemura 2017;
// Bédorf et al. 2012). walk_tree compacts the active groups into an index
// list and hands it out in chunks from one atomic queue, so an idle worker
// keeps claiming work the way the GPU block scheduler hands the next
// walkTree block to whichever SM frees first.
//
// The queue is numerically invisible (each group writes disjoint output
// slots): this bench compares every walk bitwise against a 1-worker
// device's walk and exits nonzero on a mismatch. It reports walk seconds
// plus the imbalance ratio (max worker time / mean worker time) per
// activity fraction.
#include "support/experiment.hpp"
#include "support/report.hpp"

#include "gravity/walk_tree.hpp"
#include "octree/calc_node.hpp"
#include "octree/tree_build.hpp"
#include "runtime/device.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

namespace {

using namespace gothic;

struct Forces {
  std::vector<real> ax, ay, az, pot;

  explicit Forces(std::size_t n)
      : ax(n, real(0)), ay(n, real(0)), az(n, real(0)), pot(n, real(0)) {}

  [[nodiscard]] bool same_bits(const Forces& o) const {
    const std::size_t bytes = ax.size() * sizeof(real);
    return std::memcmp(ax.data(), o.ax.data(), bytes) == 0 &&
           std::memcmp(ay.data(), o.ay.data(), bytes) == 0 &&
           std::memcmp(az.data(), o.az.data(), bytes) == 0 &&
           std::memcmp(pot.data(), o.pot.data(), bytes) == 0;
  }
};

} // namespace

int main() {
  using namespace gothic;
  using namespace gothic::bench;

  const BenchScale scale = BenchScale::from_env();
  const int reps = std::max(2, scale.steps);
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

  const auto groups = gravity::walk_groups(tree, p.x, p.y, p.z);

  gravity::WalkConfig cfg;
  cfg.eps = real(0.0156);
  cfg.mac.dacc = real(1.0 / 512);

  std::cout << "# runtime workers = " << scale.threads
            << " (override with GOTHIC_THREADS), groups = " << groups.size()
            << ", reps = " << reps << "\n";
  BenchReport rep("balance");
  rep.set_scale(scale);
  Table t("walk work queue: seconds per walk and imbalance ratio "
          "(M31, N = " + std::to_string(scale.n) + ", dacc = 2^-9)",
          {"active frac", "active groups", "walk [s]", "imbalance",
           "identical"});

  // Block-time-step proxy: the f*n particles with the largest |a| have the
  // smallest required time step, so they fire (and their groups walk) most
  // often. Ranking by |a| concentrates the active set in the dense bulk.
  std::vector<std::size_t> by_amag(n);
  std::iota(by_amag.begin(), by_amag.end(), std::size_t{0});
  std::sort(by_amag.begin(), by_amag.end(),
            [&](std::size_t a, std::size_t b) { return amag[a] > amag[b]; });

  runtime::Device serial(1);
  bool all_identical = true;
  for (const double frac : {1.0, 0.5, 0.2, 0.05}) {
    const auto n_active =
        std::max<std::size_t>(1, static_cast<std::size_t>(frac * n));
    std::vector<std::uint8_t> body_active(n, 0);
    for (std::size_t i = 0; i < n_active; ++i) body_active[by_amag[i]] = 1;
    std::vector<std::uint8_t> group_active(groups.size(), 0);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const std::size_t lo = groups[g].first;
      const std::size_t hi = lo + groups[g].count;
      for (std::size_t i = lo; i < hi; ++i) {
        if (body_active[i] != 0) {
          group_active[g] = 1;
          break;
        }
      }
    }
    const auto active_groups = static_cast<std::size_t>(
        std::count(group_active.begin(), group_active.end(), 1));

    Forces ref(n);
    {
      runtime::ScopedDevice scope(serial);
      gravity::walk_tree(tree, p.x, p.y, p.z, p.m, amag, cfg, ref.ax, ref.ay,
                         ref.az, ref.pot, nullptr, nullptr, group_active,
                         groups);
    }

    Forces r(n);
    gravity::GroupCosts costs;
    double seconds = 0.0;
    double imb_sum = 0.0;
    for (int i = 0; i < reps; ++i) {
      // Fresh stats per rep: imbalance() is a per-walk ratio, and
      // accumulating reps first would compare reps to each other instead
      // of workers within one walk.
      gravity::WalkStats s;
      const Stopwatch clock;
      gravity::walk_tree(tree, p.x, p.y, p.z, p.m, amag, cfg, r.ax, r.ay,
                         r.az, r.pot, nullptr, &s, group_active, groups,
                         &costs);
      seconds += clock.seconds();
      imb_sum += s.imbalance();
    }
    const bool identical = r.same_bits(ref);
    all_identical = all_identical && identical;
    t.add_row({Table::fix(frac, 2), std::to_string(active_groups),
               Table::sci(seconds / reps), Table::fix(imb_sum / reps, 3),
               identical ? "yes" : "NO"});
  }

  t.print(std::cout);
  std::cout << "imbalance = busiest worker / mean worker (1 = perfect, "
            << runtime::Device::current().workers()
            << " = serialized); identical = bitwise equal to the 1-worker "
               "walk.\n";
  std::cout << "bitwise identity with the 1-worker walk: "
            << (all_identical ? "PASS" : "FAIL") << "\n";

  rep.add_table(t);
  rep.add_note(std::string("bitwise identity with the 1-worker walk: ") +
               (all_identical ? "PASS" : "FAIL"));
  rep.write(std::cout);
  return all_identical ? 0 : 1;
}
