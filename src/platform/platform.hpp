#pragma once

// Simulated GPU platform models for the paper's three systems (Table 1).
// Functional runs on the xsycl substrate produce instrumented op counts;
// these models price each primitive per architecture so the evaluation's
// SHAPE (which variant wins where, by what factor) reproduces the paper
// without vendor hardware.  All primitive costs are expressed in
// FP32-flop-equivalents per counted unit.

#include <string>
#include <vector>

namespace hacc::platform {

struct PlatformModel {
  std::string name;      // "Aurora" / "Polaris" / "Frontier"
  std::string system;    // facility blurb for Table 1
  std::string cpu;
  int cpu_sockets = 1;
  std::string gpu;
  int gpus_per_node = 4;
  double fp32_peak_tflops = 0.0;  // per GPU (Table 1)
  int ranks_per_node = 8;

  // Devices per rank exposed to one MPI rank (GCD / stack / whole GPU).
  double rank_peak_tflops = 0.0;
  // Fraction of peak a well-tuned kernel sustains (absorbs Polaris' ~11%
  // sharing loss, §3.4.2).
  double base_efficiency = 0.25;

  // Sub-group sizes the architecture supports (paper §4.3).
  std::vector<int> subgroup_sizes;
  int preferred_subgroup = 32;
  bool supports_visa = false;      // inline vISA: Intel only
  bool supports_cuda_hip = false;  // native CUDA/HIP toolchain

  // ---- Communication primitive costs (flop-equivalents) ----
  double select_word_cost = 1.0;     // per 32-bit word-lane moved by select
  double broadcast_cost = 1.0;       // per broadcast word
  double butterfly_word_cost = 1.0;  // per word-lane via the 4-mov sequence
  double local_word_cost = 1.0;      // per word-lane through local memory
  double local_byte_cost = 0.25;     // per byte for the object exchange
  double barrier_cost = 8.0;         // per sub-group barrier
  double reduce_cost = 8.0;          // per word reduced over the sub-group

  // ---- Atomics ----
  double atomic_add_cost = 4.0;
  double atomic_minmax_cost = 4.0;  // CAS-emulated on NVIDIA (§5.1)

  // ---- Register model ----
  // 32-bit registers available per work-item at full occupancy, at the
  // preferred sub-group size.  Smaller sub-groups and (on Intel) the large
  // GRF mode multiply this.
  int regs_per_item = 96;
  bool has_large_grf = false;        // Intel's 256-register mode
  double large_grf_occupancy = 0.8;  // occupancy factor when enabled
  // Spill penalty: flop-equivalents per interaction = c1*spill + c2*spill^2.
  double spill_cost_linear = 1.5;
  double spill_cost_quadratic = 0.0;

  // NVIDIA-style shared-memory/L1 trade-off: extra multiplier on local-
  // memory variants that scale with the exchanged state size.
  double lds_l1_tradeoff = 0.0;

  // Speedup of the math-heavy portion under -ffast-math style flags.
  double fast_math_speedup = 1.35;

  // Relative compiler factor for native CUDA/HIP versus SYCL on the same
  // hardware (paper §4.4: SYCL slightly faster even with fast math).
  double cuda_hip_factor = 1.0;

  // Registers available to one work-item for a given configuration.
  int regs_available(int sg_size, bool large_grf) const;
};

// Factory functions for the three systems of Table 1.
PlatformModel aurora();
PlatformModel polaris();
PlatformModel frontier();

std::vector<PlatformModel> all_platforms();

}  // namespace hacc::platform
