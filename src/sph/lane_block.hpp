#pragma once

// Four-lane vector blocks of the pair harness (half_warp.hpp).  A launch
// gathers the lanes of every tile once into per-field arrays (LaneArrays),
// so that four lanes of a half-tile read one field with one aligned vector
// load, and four lanes' partners in one round are one or two aligned loads
// and a fixed shuffle.  The lane types are those of lanes.hpp.

#include <array>
#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

#include "sph/lanes.hpp"
#include "xsycl/comm_variant.hpp"

namespace hacc::sph {

// Four lanes of the float members a Traits' four-lane form reads (its
// kLaneFields, in order).
template <std::size_t N>
struct LaneBlock {
  std::array<Floats4, N> f;
};

// Lane k takes lane k ^ S: one of the four fixed shuffles of the Select
// schedule, and its own inverse.
template <int S, typename V>
V xor_shuffled(const V& v) {
  return V([&](auto k) { return v[k ^ S]; });
}

// Lane k takes lane k + S of the eight lanes a, b: the vISA rotation of four
// lanes that run on from block a into block b.
template <int S, typename V>
V rotated(const V& a, const V& b) {
  return V([&](auto k) {
    constexpr int i = decltype(k)::value + S;
    if constexpr (i < kBlockLanes) {
      return a[i];
    } else {
      return b[i - kBlockLanes];
    }
  });
}

// Four lanes of a lane array from a four-aligned element.
inline Floats4 load4(const float* p) { return Floats4(p, stdx::vector_aligned); }

// The lanes of one half-tile in a launch's per-field arrays: lane j of the
// half is element j of each.  A half holds a multiple of four lanes from a
// four-aligned first element; lanes past its leaf's end are empty (valid 0,
// idx 0, every field 0).
template <std::size_t N>
struct HalfLanes {
  std::array<const float*, N> f;
  const std::int32_t* idx;
  const std::int32_t* valid;

  // Lanes [j, j + 4), j a multiple of four.
  LaneBlock<N> load(int j) const {
    LaneBlock<N> b;
    for (std::size_t i = 0; i < N; ++i) b.f[i] = load4(f[i] + j);
    return b;
  }
};

// The lanes of a launch, per field: `Fields` lists the float members of
// State to store, as pointers to members.  Every element starts empty.
template <typename State, auto Fields>
class LaneArrays {
  static constexpr std::size_t N = Fields.size();
  // std::vector's storage comes from operator new, aligned for a Floats4.
  static_assert(stdx::memory_alignment_v<Floats4> <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

 public:
  // `n` elements, a multiple of four.
  explicit LaneArrays(std::size_t n = 0) : idx_(n, 0), valid_(n, 0) {
    for (auto& f : f_) f.assign(n, 0.f);
  }

  void store(std::size_t at, const State& s) {
    for (std::size_t i = 0; i < N; ++i) f_[i][at] = s.*Fields[i];
    idx_[at] = s.idx;
    valid_[at] = s.valid;
  }

  // The half-tile whose lane 0 is element `first`, a multiple of four.
  HalfLanes<N> half(std::size_t first) const {
    HalfLanes<N> h;
    for (std::size_t i = 0; i < N; ++i) h.f[i] = f_[i].data() + first;
    h.idx = idx_.data() + first;
    h.valid = valid_.data() + first;
    return h;
  }

 private:
  std::array<std::vector<float>, N> f_;
  std::vector<std::int32_t> idx_;
  std::vector<std::int32_t> valid_;
};

}  // namespace hacc::sph
