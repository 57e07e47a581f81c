#pragma once

// SubGroup: the execution context handed to every kernel invocation.  One
// SubGroup models one SYCL sub-group (CUDA warp / HIP wavefront) executing
// in lockstep; lanes live in Varying<T> registers.  Sub-groups of a
// work-group share a local-memory arena, with a non-overlapping slice
// reserved per sub-group exactly as the paper's launch wrapper does
// (§5.3.1: "the memory reserved for each sub-group is guaranteed not to
// overlap").

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

#include "xsycl/op_counters.hpp"
#include "xsycl/varying.hpp"

namespace hacc::xsycl {

// Sub-group sizes the emulation runs: powers of two in [2, kMaxLanes].
inline bool valid_sub_group_size(int size) {
  return size >= 2 && size <= kMaxLanes && (size & (size - 1)) == 0;
}

// Throws std::invalid_argument unless valid_sub_group_size(size).
inline void check_sub_group_size(int size) {
  if (!valid_sub_group_size(size)) {
    throw std::invalid_argument("sub-group size " + std::to_string(size) +
                                " is not a power of two in [2, " +
                                std::to_string(kMaxLanes) + "]");
  }
}

class SubGroup {
 public:
  // `size` passed check_sub_group_size (Queue::submit checks every launch).
  SubGroup(int size, std::uint64_t global_sg_index, std::span<std::byte> local_slice,
           OpCounters& counters)
      : size_(size), index_(global_sg_index), local_(local_slice), counters_(&counters) {
    assert(valid_sub_group_size(size));
  }

  // Number of work-items in this sub-group (16 / 32 / 64 in the paper).
  int size() const { return size_; }
  // Lanes in each half of the half-warp algorithm.
  int half() const { return size_ / 2; }

  // Flat index of this sub-group across the whole launch; kernels use it to
  // locate their slice of the iteration space (leaf-pair tiles, particles).
  std::uint64_t index() const { return index_; }

  OpCounters& counters() { return *counters_; }

  // Work-group local memory reserved for this sub-group.
  std::span<std::byte> local() { return local_; }

  // Sub-group barrier.  Lockstep emulation makes it a no-op functionally,
  // but it is counted so the cost model prices the synchronization.
  void barrier() { ++counters_->barriers; }

 private:
  int size_;
  std::uint64_t index_;
  std::span<std::byte> local_;
  OpCounters* counters_;
};

// Per-lane gather from a global array: out[l] = base[idx[l]] for active lanes.
template <typename T>
inline Varying<T> gather(SubGroup& sg, const T* base, const Varying<std::int32_t>& idx,
                         const Varying<bool>& active) {
  Varying<T> out;
  for (int l = 0; l < sg.size(); ++l) {
    if (active[l]) out[l] = base[idx[l]];
  }
  sg.counters().global_loads += static_cast<std::uint64_t>(sg.size());
  return out;
}

// Per-lane scatter (non-atomic; caller guarantees index disjointness).
template <typename T>
inline void scatter(SubGroup& sg, T* base, const Varying<std::int32_t>& idx,
                    const Varying<T>& val, const Varying<bool>& active) {
  for (int l = 0; l < sg.size(); ++l) {
    if (active[l]) base[idx[l]] = val[l];
  }
  sg.counters().global_stores += static_cast<std::uint64_t>(sg.size());
}

}  // namespace hacc::xsycl
