#pragma once

// Instrumentation counters for every communication and synchronization
// primitive the kernels execute.  These counts are the bridge between the
// functional CPU execution and the simulated GPU platforms: the cost model
// (src/platform) prices each primitive per architecture, reproducing the
// paper's variant-affinity results without vendor hardware.
//
// Concurrency discipline: plain (non-atomic) counters on the hot path, made
// race-free by ownership, not locks — every launch chunk increments its own
// OpCounters block and Queue::submit_impl merges the blocks under a mutex
// after the chunk finishes (per-thread accumulate + merge).  Sharing one
// block across workers is a data race; the TSan CI job enforces this.

#include <cstdint>
#include <string>

namespace hacc::xsycl {

struct OpCounters {
  // Cross-lane communication.
  std::uint64_t select_ops = 0;       // sub-group selects (Select exchanges)
  std::uint64_t select_words = 0;     // 32-bit words moved by selects
  std::uint64_t local32_words = 0;    // 32-bit words through work-group local memory
  std::uint64_t local32_barriers = 0; // barriers issued by the 32-bit exchange
  std::uint64_t localobj_bytes = 0;   // bytes through local memory (object exchange)
  std::uint64_t localobj_barriers = 0;
  std::uint64_t broadcast_ops = 0;    // broadcast words (register regioning)
  std::uint64_t butterfly_words = 0;  // words moved by the specialized vISA shuffle
  std::uint64_t reduce_ops = 0;       // words reduced over the sub-group (Broadcast)

  // Synchronization and atomics.  The pair kernels commit with plain adds
  // under a leaf flag and charge the atomics a device commit would issue
  // (charge_commit).  SYCL 2020 exposes floating-point fetch_min/fetch_max
  // on all hardware, but devices without native support (NVIDIA) emulate
  // them with a compare-and-swap loop (paper §5.1), so min/max are counted
  // apart from adds and the platform model prices the two per architecture.
  std::uint64_t barriers = 0;
  std::uint64_t atomic_f32_add = 0;
  std::uint64_t atomic_f32_minmax = 0;

  // Work accounting.
  std::uint64_t interactions = 0;     // candidate lane pairs, reached or not
  std::uint64_t m2p_ops = 0;          // multipole-to-particle far-field evaluations
  std::uint64_t lanes_launched = 0;   // work-items spanned by launches
  std::uint64_t sub_groups = 0;
  std::uint64_t work_groups = 0;
  std::uint64_t global_loads = 0;     // per-lane gathers from global arrays
  std::uint64_t global_stores = 0;

  void merge(const OpCounters& o);
  bool operator==(const OpCounters&) const = default;
  std::string summary() const;
};

}  // namespace hacc::xsycl
