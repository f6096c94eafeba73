// Kernel timing model — the analytical core of the reproduction.
//
// The paper's §4.2 explains V100's >1.5x speed-up over P100 with a simple
// execution model over nvprof instruction counts:
//
//   * pre-Volta (unified cores):  t_compute ∝ N_int + N_fp32
//   * Volta (separate INT32 pipe): t_compute ∝ max(N_int, N_fp32)
//
// combined with the theoretical-peak and measured-bandwidth ratios
// (Fig 8). We implement exactly that model, extended with a roofline
// memory bound, an SFU pipe (rsqrt hidden under FP32 work, as assumed in
// §4.2), a per-launch latency floor (the flat small-N region of Fig 3)
// and a Volta-mode synchronisation overhead term priced from the counted
// syncwarp/tile-sync events (§4.1).
//
// The model consumes the *measured* OpCounts produced by the simt-
// instrumented kernels, so all accuracy/size dependences in Figs 1-10
// originate from real traversal statistics.
#pragma once

#include "perfmodel/gpu_spec.hpp"
#include "perfmodel/occupancy.hpp"
#include "simt/op_counter.hpp"

namespace gothic::perfmodel {

/// Launch-shape metadata accompanying a kernel's OpCounts.
struct KernelLaunchInfo {
  KernelResources resources{};
  /// Number of kernel launches contributing to the counts (latency floor).
  int invocations = 1;
  /// Flop credited per SFU instruction when converting to Flop/s
  /// (rsqrt = 4 Flop, §4.2).
  double sfu_flops = 4.0;
};

struct KernelTiming {
  double fp_time_s = 0.0;   ///< FP32-core pipe busy time
  double int_time_s = 0.0;  ///< INT32 pipe busy time
  double sfu_time_s = 0.0;  ///< SFU pipe busy time
  double compute_s = 0.0;   ///< combined compute bound
  double memory_s = 0.0;    ///< bandwidth bound
  double sync_s = 0.0;      ///< explicit-synchronisation overhead (Volta mode)
  double latency_s = 0.0;   ///< per-launch latency floor
  double total_s = 0.0;     ///< max(compute, memory) + latency + sync

  [[nodiscard]] const char* bound() const {
    if (latency_s > compute_s && latency_s > memory_s) return "latency";
    return compute_s >= memory_s ? "compute" : "memory";
  }
};

/// Cost of one counted warp-synchronisation event in cycles (explicit
/// __syncwarp or the implicit barrier of a *_sync collective). Calibrated
/// so the Pascal-vs-Volta-mode gap lands in the paper's 1.1-1.2x band with
/// walkTree ~15% and calcNode ~23% (Fig 5); see EXPERIMENTS.md.
inline constexpr double kSyncwarpCycles = 5.0;

/// Warp schedulers per SM (sync retire rate).
inline constexpr int kSchedulersPerSm = 4;

/// Cost of one grid-wide (inter-block) synchronisation using GOTHIC's
/// lock-free barrier. Appendix A back-solves the *additional* cost of the
/// Cooperative-Groups barrier as 2.3e-5 s per sync; the lock-free baseline
/// is a few microseconds (it also sets calcNode's small-N floor in Fig 3).
inline constexpr double kGlobalBarrierSeconds = 1.5e-6;

/// Predict the execution time of one kernel on `gpu` from measured counts.
/// Volta-mode overhead enters through ops.syncwarp/tile_sync, which the
/// simt layer only accumulates under ExecMode::Volta; pre-Volta GPUs
/// ignore those fields (legacy shuffles carry no barrier).
[[nodiscard]] KernelTiming predict_kernel_time(const GpuSpec& gpu,
                                               const simt::OpCounts& ops,
                                               const KernelLaunchInfo& info);

/// The Pascal-mode view of Volta-mode counts: the same arithmetic with the
/// synchronisation events (the only fields ExecMode changes) cleared.
[[nodiscard]] simt::OpCounts pascal_view(const simt::OpCounts& volta_counts);

/// Sustained single-precision performance (TFlop/s) implied by counts and
/// a time, with the paper's rsqrt = 4 Flop convention (Figs 9-10).
[[nodiscard]] double sustained_tflops(const simt::OpCounts& ops,
                                      double elapsed_s,
                                      double sfu_flops = 4.0);

/// The Fig 8 decomposition of the expected V100/P100 speed-up.
struct SpeedupPrediction {
  double peak_ratio = 0.0;    ///< TPP(V100)/TPP(P100), the magenta line
  double bw_ratio = 0.0;      ///< measured-bandwidth ratio, the black line
  double hiding_ratio = 0.0;  ///< (int+fp)/max(int,fp), the blue squares
  double expected = 0.0;      ///< peak_ratio * hiding_ratio, the red circles
};

[[nodiscard]] SpeedupPrediction expected_speedup(const GpuSpec& fast,
                                                 const GpuSpec& slow,
                                                 const simt::OpCounts& ops);

} // namespace gothic::perfmodel
