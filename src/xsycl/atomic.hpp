#pragma once

// sycl::atomic_ref equivalent (paper §5.1).  SYCL 2020 exposes fetch_min /
// fetch_max for floating-point types on all hardware; devices without native
// support (NVIDIA) emulate them with a compare-and-swap loop.  We do the
// same here — the op counters record which flavor ran so the platform model
// can price native vs. CAS-emulated atomics.  The migration rewrites
// (src/migrate) target it; the pair kernels commit with plain adds under a
// leaf flag instead and charge these atomics (sph/half_warp.hpp).
//
// Thread-safety: the target word is mutated through std::atomic_ref, so
// concurrent fetch_* from any number of pool workers is race-free (relaxed
// ordering — these are commutative accumulations, never synchronization).
// The counter increments are deliberately NOT atomic: `counters` must be the
// launch chunk's private OpCounters block (SubGroup::counters()), merged
// under a lock by Queue::submit_impl — never a block shared across workers.

#include <atomic>
#include <cstdint>

#include "xsycl/sub_group.hpp"

namespace hacc::xsycl {

template <typename T>
class atomic_ref {
  static_assert(std::is_arithmetic_v<T>);

 public:
  atomic_ref(T& target, OpCounters& counters) : ref_(target), counters_(&counters) {}

  T fetch_add(T v) {
    if constexpr (std::is_floating_point_v<T>) {
      ++counters_->atomic_f32_add;
    } else {
      ++counters_->atomic_i32;
    }
    return ref_.fetch_add(v, std::memory_order_relaxed);
  }

  T fetch_min(T v) {
    if constexpr (std::is_floating_point_v<T>) {
      ++counters_->atomic_f32_minmax;
      // CAS loop: the emulation path SYCL generates on devices without
      // native floating-point min/max.
      T cur = ref_.load(std::memory_order_relaxed);
      while (v < cur &&
             !ref_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
      }
      return cur;
    } else {
      ++counters_->atomic_i32;
      T cur = ref_.load(std::memory_order_relaxed);
      while (v < cur &&
             !ref_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
      }
      return cur;
    }
  }

  T fetch_max(T v) {
    if constexpr (std::is_floating_point_v<T>) {
      ++counters_->atomic_f32_minmax;
    } else {
      ++counters_->atomic_i32;
    }
    T cur = ref_.load(std::memory_order_relaxed);
    while (v > cur && !ref_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    return cur;
  }

  T load() const { return ref_.load(std::memory_order_relaxed); }

 private:
  std::atomic_ref<T> ref_;
  OpCounters* counters_;
};

}  // namespace hacc::xsycl
