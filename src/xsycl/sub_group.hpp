#pragma once

// SubGroup: the execution context handed to every kernel invocation.  One
// SubGroup models one SYCL sub-group (CUDA warp / HIP wavefront) executing
// in lockstep; lanes live in Varying<T> registers.  The emulation reads a
// partner lane in place, so a sub-group holds no local-memory arena: the
// exchange variants that stage through one on the device charge its
// traffic to the counters instead (group_algorithms.hpp).

#include <cassert>
#include <cstdint>
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
  SubGroup(int size, std::uint64_t global_sg_index, OpCounters& counters)
      : size_(size), index_(global_sg_index), counters_(&counters) {
    assert(valid_sub_group_size(size));
  }

  // Number of work-items in this sub-group (16 / 32 / 64 in the paper).
  int size() const { return size_; }

  // Flat index of this sub-group across the whole launch; kernels use it to
  // locate their slice of the iteration space (leaf-pair tiles, particles).
  std::uint64_t index() const { return index_; }

  OpCounters& counters() { return *counters_; }

 private:
  int size_;
  std::uint64_t index_;
  OpCounters* counters_;
};

}  // namespace hacc::xsycl
