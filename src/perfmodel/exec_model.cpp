#include "perfmodel/exec_model.hpp"

#include <algorithm>

namespace gothic::perfmodel {

KernelTiming predict_kernel_time(const GpuSpec& gpu,
                                 const simt::OpCounts& ops,
                                 const KernelLaunchInfo& info) {
  KernelTiming t;

  const Occupancy occ = compute_occupancy(gpu, info.resources);
  const double eff =
      gpu.issue_efficiency * occupancy_efficiency(occ.fraction);
  // A kernel that cannot place a single block never runs; treat as the
  // minimum occupancy instead of dividing by zero.
  const double safe_eff = std::max(eff, 1e-3);

  const auto fp_instr = static_cast<double>(ops.fp32_core_instructions());
  const auto int_instr = static_cast<double>(ops.int_ops);
  const auto sfu_instr = static_cast<double>(ops.fp32_special);

  t.fp_time_s = fp_instr / (gpu.fp32_issue_rate() * safe_eff);
  t.int_time_s = int_instr / (gpu.int32_issue_rate() * safe_eff);
  t.sfu_time_s = sfu_instr / (gpu.sfu_issue_rate() * safe_eff);

  // SFU work overlaps the FP32 pipe; §4.2 assumes rsqrt fully hidden
  // whenever FP32 work dominates, which max() captures.
  const double fp_pipe = std::max(t.fp_time_s, t.sfu_time_s);

  if (gpu.independent_int_fp()) {
    // Volta: INT32 executes on its own units and overlaps FP32 work.
    t.compute_s = std::max(t.int_time_s, fp_pipe);
  } else {
    // Pascal and earlier: integer instructions occupy the CUDA cores, so
    // busy times accumulate.
    t.compute_s = t.int_time_s + fp_pipe;
  }

  t.memory_s = static_cast<double>(ops.total_bytes()) /
               (gpu.mem_bw_measured_gbs * 1e9);

  // Explicit-synchronisation overhead (Volta mode only; the simt layer
  // counts zero under Pascal mode). Pre-Volta devices run legacy shuffles
  // with no barrier semantics at all.
  if (gpu.arch == Arch::Volta) {
    const double syncs =
        static_cast<double>(ops.syncwarp + ops.tile_sync);
    t.sync_s = syncs * kSyncwarpCycles /
               (static_cast<double>(gpu.num_sm) * kSchedulersPerSm *
                gpu.clock_ghz * 1e9 *
                std::max(occupancy_efficiency(occ.fraction), 1e-3));
  }

  t.latency_s = info.invocations * gpu.launch_latency_s +
                static_cast<double>(ops.global_barrier) *
                    kGlobalBarrierSeconds;

  t.total_s = std::max(t.compute_s, t.memory_s) + t.latency_s + t.sync_s;
  return t;
}

simt::OpCounts pascal_view(const simt::OpCounts& volta_counts) {
  simt::OpCounts c = volta_counts;
  c.syncwarp = 0;
  c.tile_sync = 0;
  return c;
}

double sustained_tflops(const simt::OpCounts& ops, double elapsed_s,
                        double sfu_flops) {
  if (elapsed_s <= 0.0) return 0.0;
  return static_cast<double>(
             ops.flops(static_cast<std::uint64_t>(sfu_flops))) /
         elapsed_s * 1e-12;
}

SpeedupPrediction expected_speedup(const GpuSpec& fast, const GpuSpec& slow,
                                   const simt::OpCounts& ops) {
  SpeedupPrediction s;
  s.peak_ratio = fast.fp32_peak_tflops() / slow.fp32_peak_tflops();
  s.bw_ratio = fast.mem_bw_measured_gbs / slow.mem_bw_measured_gbs;
  const auto fp = static_cast<double>(ops.fp32_core_instructions());
  const auto in = static_cast<double>(ops.int_ops);
  const double mx = std::max(fp, in);
  s.hiding_ratio = mx > 0.0 ? (fp + in) / mx : 1.0;
  s.expected = s.peak_ratio * s.hiding_ratio;
  return s;
}

} // namespace gothic::perfmodel
