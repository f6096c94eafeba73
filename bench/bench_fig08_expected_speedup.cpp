// Figure 8 — the paper's analytic prediction of the V100/P100 speed-up:
//   * magenta line: theoretical-peak ratio (~1.48)
//   * black line:   measured-bandwidth ratio (~1.55)
//   * blue curve:   "hiding" ratio (int+FP32)/max(int,FP32) from Fig 7
//   * red curve:    peak ratio x hiding ratio = the expected speed-up
// alongside the speed-up our full model actually produces (the Fig 2
// quantity), which falls below the expectation at large dacc exactly as
// the paper observes (§4.2).
#include "support/experiment.hpp"
#include "support/report.hpp"

#include <iostream>

int main() {
  using namespace gothic;
  using namespace gothic::bench;

  const BenchScale scale = BenchScale::from_env();
  const auto init = m31_workload(scale.n);
  const auto v100 = perfmodel::tesla_v100();
  const auto p100 = perfmodel::tesla_p100();

  std::cout << "# M31 model, N = " << scale.n << "\n";
  BenchReport rep("fig08_expected_speedup");
  rep.set_scale(scale);
  Table t("Fig 8 - expected V100/P100 speed-up decomposition (walkTree)",
          {"dacc", "peak ratio", "BW ratio", "hiding ratio", "expected",
           "full model"});
  for (const double dacc : dacc_sweep(scale.dacc_min_exp)) {
    const StepProfile p = profile_step(init, dacc, scale.steps);
    rep.add_profile(dacc_label(dacc), p);
    const auto s = perfmodel::expected_speedup(v100, p100,
                                               perfmodel::pascal_view(p.walk));
    const double observed = predict_step_time(p, p100, false).walk /
                            predict_step_time(p, v100, false).walk;
    t.add_row({dacc_label(dacc), Table::fix(s.peak_ratio, 2),
               Table::fix(s.bw_ratio, 2), Table::fix(s.hiding_ratio, 3),
               Table::fix(s.expected, 2), Table::fix(observed, 2)});
  }
  t.print(std::cout);
  std::cout << "paper: expected ~2.2-2.7 (rising with dacc); observed "
               "agrees at dacc <~ 1e-3 and falls below the expectation at "
               "larger dacc (memory/latency effects).\n";
  rep.add_table(t);
  rep.add_note("paper: expected ~2.2-2.7; observed falls below at large "
               "dacc");
  rep.write(std::cout);
  return 0;
}
