#include "platform/cost_model.hpp"

// Calibration of the three platform models and the per-kernel statics.
// The constants below were tuned so that the evaluation reproduces the
// SHAPE of the paper's results (§4.4, §5.4, §6.1):
//   - Aurora: a sub-group select compiles to indirect register access
//     (~1 cycle/lane, Fig. 5) -> high select cost; broadcasts via register
//     regioning are nearly free (Fig. 6); the vISA butterfly is 4 movs.
//   - Polaris: native warp shuffles make Select best everywhere; float
//     atomicMin/Max are CAS-emulated; a shared-memory/L1 trade-off hits
//     local-memory variants; heavy spills make Broadcast up to ~10x slower.
//   - Frontier: dedicated cross-lane instructions (like NVIDIA) on a SIMD
//     architecture (like Intel); Memory is "almost always second best";
//     Broadcast sits near 0.6 efficiency.

namespace hacc::platform {

PlatformModel aurora() {
  PlatformModel p;
  p.name = "Aurora";
  p.system = "ALCF Aurora";
  p.cpu = "Intel Xeon CPU Max 9470C, 52 cores";
  p.cpu_sockets = 2;
  p.gpu = "Intel Data Center GPU Max 1550";
  p.gpus_per_node = 6;
  p.fp32_peak_tflops = 45.9;
  p.rank_peak_tflops = 45.9 / 2.0;  // one stack per MPI rank (§3.4.2)
  p.base_efficiency = 0.145;
  p.subgroup_sizes = {16, 32};
  p.preferred_subgroup = 32;
  p.supports_visa = true;
  p.supports_cuda_hip = false;

  p.select_word_cost = 10.0;  // indirect register access: ~1 cycle per lane
  p.broadcast_cost = 0.7;     // register regioning folds into the consumer
  p.butterfly_word_cost = 1.25;  // 4 movs per register
  p.local_word_cost = 2.0;  // SLM is close on PVC
  p.local_byte_cost = 0.55;
  p.barrier_cost = 10.0;
  p.reduce_cost = 10.0;

  p.atomic_add_cost = 16.0;     // native, but SLM/L2 round trips are real
  p.atomic_minmax_cost = 16.0;  // native float min/max

  p.regs_per_item = 84;  // 128-register GRF at sg32
  p.has_large_grf = true;
  p.large_grf_occupancy = 0.86;  // 4 threads/EU instead of 8 (§5.2)
  p.spill_cost_linear = 2.2;
  p.spill_cost_quadratic = 0.03;
  p.lds_l1_tradeoff = 0.0;
  p.fast_math_speedup = 1.5;
  return p;
}

PlatformModel polaris() {
  PlatformModel p;
  p.name = "Polaris";
  p.system = "ALCF Polaris";
  p.cpu = "AMD EPYC 7543P, 32 cores";
  p.cpu_sockets = 1;
  p.gpu = "NVIDIA A100-SXM4-40GB";
  p.gpus_per_node = 4;
  p.fp32_peak_tflops = 19.5;
  p.rank_peak_tflops = 19.5 / 2.0;  // two ranks share one A100 (§3.4.2)
  p.base_efficiency = 0.22;         // includes the ~11% sharing loss
  p.subgroup_sizes = {32};
  p.preferred_subgroup = 32;
  p.supports_visa = false;
  p.supports_cuda_hip = true;

  p.select_word_cost = 0.9;  // native __shfl
  p.broadcast_cost = 26.0;  // a broadcast IS a shuffle instruction on NVIDIA
  p.butterfly_word_cost = 1.1;   // no advantage without register regioning
  p.local_word_cost = 2.4;
  p.local_byte_cost = 0.60;
  p.barrier_cost = 6.0;
  p.reduce_cost = 9.0;

  p.atomic_add_cost = 4.0;      // native red.global.add
  p.atomic_minmax_cost = 14.0;  // CAS loop for float min/max (§5.1)

  p.regs_per_item = 126;  // occupancy-limited register budget
  p.has_large_grf = false;
  p.spill_cost_linear = 4.0;
  p.spill_cost_quadratic = 2.5;  // spills hit local memory: superlinear pain
  p.lds_l1_tradeoff = 0.9;        // shared memory eats into L1
  p.fast_math_speedup = 1.45;
  p.cuda_hip_factor = 1.08;  // SYCL slightly faster than nvcc (§4.4)
  return p;
}

PlatformModel frontier() {
  PlatformModel p;
  p.name = "Frontier";
  p.system = "OLCF Frontier";
  p.cpu = "AMD EPYC 7A53, 64 cores";
  p.cpu_sockets = 1;
  p.gpu = "AMD Instinct MI250X";
  p.gpus_per_node = 4;
  p.fp32_peak_tflops = 53.0;
  p.rank_peak_tflops = 53.0 / 2.0;  // one GCD per MPI rank (§3.4.2)
  p.base_efficiency = 0.125;
  p.subgroup_sizes = {32, 64};
  p.preferred_subgroup = 64;
  p.supports_visa = false;
  p.supports_cuda_hip = true;  // via the HIP wrapper (§3.1)

  p.select_word_cost = 1.2;  // ds_permute / DPP cross-lane ops
  p.broadcast_cost = 12.0;  // v_readlane: scalar path, cheaper than a full shuffle
  p.butterfly_word_cost = 1.4;
  p.local_word_cost = 1.9;  // LDS is fast
  p.local_byte_cost = 0.48;
  p.barrier_cost = 5.0;
  p.reduce_cost = 6.0;

  p.atomic_add_cost = 6.0;
  p.atomic_minmax_cost = 7.0;

  p.regs_per_item = 132;  // large VGPR file at wave64
  p.has_large_grf = false;
  p.spill_cost_linear = 3.0;
  p.spill_cost_quadratic = 0.4;
  p.lds_l1_tradeoff = 0.15;
  p.fast_math_speedup = 1.5;
  p.cuda_hip_factor = 1.08;  // SYCL slightly faster than hipcc (§4.4)
  return p;
}

const KernelStatics& kernel_statics(const std::string& kernel) {
  // flops/interaction, state words, accumulator words, base registers.
  static const std::map<std::string, KernelStatics> table = {
      {"upGeo", {24.0, 6, 1, 20}},
      {"upCor", {220.0, 8, 40, 46}},
      {"upBarEx", {190.0, 30, 10, 40}},
      {"upBarAc", {320.0, 30, 4, 58}},
      {"upBarAcF", {320.0, 30, 4, 58}},
      {"upBarDu", {240.0, 30, 1, 70}},
      {"upBarDuF", {240.0, 30, 1, 70}},
      {"grav_pp", {40.0, 6, 3, 18}},
  };
  static const KernelStatics fallback;
  const auto it = table.find(kernel);
  return it != table.end() ? it->second : fallback;
}

double cuda_hip_kernel_factor(const std::string& kernel) {
  // <1: the native compiler wins that kernel; >1: SYCL wins (§4.4).
  static const std::map<std::string, double> table = {
      {"upGeo", 0.92},    {"upCor", 1.12},    {"upBarEx", 0.94},
      {"upBarAc", 1.12},  {"upBarAcF", 1.12}, {"upBarDu", 1.15},
      {"upBarDuF", 1.15}, {"grav_pp", 0.92},
  };
  const auto it2 = table.find(kernel);
  return it2 != table.end() ? it2->second : 1.0;
}

}  // namespace hacc::platform
