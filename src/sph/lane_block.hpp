#pragma once

// Four-lane vector blocks of the pair harness (half_warp.hpp).  After a
// tile loads, its lane states are written once into per-field arrays, so
// that four own lanes read one partner round of every field with one
// vector load.  Written with <experimental/simd>: on baseline x86-64 a
// Floats4 is one SSE register, and its sqrt and division are the correctly
// rounded sqrtps and divps, so a lane of a block computes exactly what the
// scalar code computes.

#include <array>
#include <cstdint>
#include <experimental/simd>
#include <type_traits>

#include "util/periodic.hpp"
#include "util/vec3.hpp"
#include "xsycl/comm_variant.hpp"
#include "xsycl/varying.hpp"

namespace hacc::sph {

namespace stdx = std::experimental;

inline constexpr int kBlockLanes = 4;
using Floats4 = stdx::simd<float, stdx::simd_abi::deduce_t<float, kBlockLanes>>;
using Ints4 = stdx::simd<std::int32_t, stdx::simd_abi::deduce_t<std::int32_t, kBlockLanes>>;
using Mask4 = Floats4::mask_type;

// The float mask of the lanes set in an int mask.
inline Mask4 float_mask(Ints4::mask_type m) {
  Ints4 bits(0);
  where(m, bits) = 1;
  return stdx::static_simd_cast<Floats4>(bits) != 0.f;
}

// util::min_image of four lanes: d + 0 inside the identity bound, else
// d - box * round(d / box), the same float operations lane by lane.  The
// SSE2 stdx::round may return +0 where std::round returns -0, which does
// not change d - box * round(d / box): past the bound d is not zero.
inline Floats4 min_image(const Floats4& d, float box) {
  Floats4 wrapped = d - box * stdx::round(d / box);
  where(stdx::abs(d) < util::min_image_identity_bound(box), wrapped) = d + 0.f;
  return wrapped;
}

// The same for a displacement, with a fast path for the common block that
// has every lane of every axis inside the bound.
inline util::Vec3<Floats4> min_image(const util::Vec3<Floats4>& d, float box) {
  const float bound = util::min_image_identity_bound(box);
  if (stdx::all_of(stdx::abs(d.x) < bound && stdx::abs(d.y) < bound &&
                   stdx::abs(d.z) < bound)) {
    return {d.x + 0.f, d.y + 0.f, d.z + 0.f};
  }
  return {min_image(d.x, box), min_image(d.y, box), min_image(d.z, box)};
}

// Four lanes of a lane state: the float members a Traits' four-lane form
// reads (its kLaneFields, in order), then idx and valid.
template <std::size_t N>
struct LaneBlock {
  std::array<Floats4, N> f;
  Ints4 idx;
  Ints4 valid;

  // Lane k takes lane k ^ S: one of the four fixed shuffles of the Select
  // schedule.
  template <int S>
  LaneBlock xor_shuffled() const {
    const auto shuffle = [](const auto& v) {
      return std::remove_cvref_t<decltype(v)>([&](auto k) { return v[k ^ S]; });
    };
    LaneBlock out;
    for (std::size_t i = 0; i < N; ++i) out.f[i] = shuffle(f[i]);
    out.idx = shuffle(idx);
    out.valid = shuffle(valid);
    return out;
  }
};

// A tile of lane states as per-field arrays.  Each half is stored twice,
// [lower | lower | upper | upper], so that the vISA rotation of four lanes
// is one unaligned load.  `Fields` lists the float members of State to
// store, as pointers to members.
template <typename State, auto Fields>
class LaneTile {
 public:
  using Block = LaneBlock<Fields.size()>;

  LaneTile(const xsycl::Varying<State>& lanes, int sg_size) : half_(sg_size / 2) {
    for (int l = 0; l < sg_size; ++l) {
      const int h = l < half_ ? 0 : 1;
      const int at = 2 * half_ * h + (l - half_ * h);
      for (const int copy : {at, at + half_}) {
        for (std::size_t i = 0; i < Fields.size(); ++i) f_[i][copy] = lanes[l].*Fields[i];
        idx_[copy] = lanes[l].idx;
        valid_[copy] = lanes[l].valid;
      }
    }
  }

  // Lanes [j, j + 4) of half `h` (0 lower, 1 upper) read from the half's
  // doubled copy: j ranges over [0, 2H - 4], and is a multiple of 4 under
  // stdx::vector_aligned.
  template <typename Flags = stdx::element_aligned_tag>
  Block load(int h, int j, Flags flags = {}) const {
    const int at = 2 * half_ * h + j;
    Block b;
    for (std::size_t i = 0; i < Fields.size(); ++i) b.f[i].copy_from(&f_[i][at], flags);
    b.idx.copy_from(&idx_[at], flags);
    b.valid.copy_from(&valid_[at], flags);
    return b;
  }

  // The partners in round `r` of lanes [j, j + 4) of half `h`, j a multiple
  // of 4: lane for lane, the states xsycl::partner_lane names.
  Block partners(xsycl::CommVariant v, int h, int j, int r) const {
    if (v == xsycl::CommVariant::kVISA) {
      // Lane j of the lower half meets lane (j + r) mod H of the upper one,
      // which meets lane (j - r) mod H of the lower one.
      return load(1 - h, h == 0 ? j + r : j + half_ - r);
    }
    // Select: lane j of either half meets lane j ^ r of the other.
    const Block b = load(1 - h, j ^ (r & ~3), stdx::vector_aligned);
    switch (r & 3) {
      case 1: return b.template xor_shuffled<1>();
      case 2: return b.template xor_shuffled<2>();
      case 3: return b.template xor_shuffled<3>();
      default: return b;
    }
  }

 private:
  static constexpr std::size_t kAlign = stdx::memory_alignment_v<Floats4>;
  static constexpr int kSlots = 2 * xsycl::kMaxLanes;

  int half_;
  alignas(kAlign) float f_[Fields.size()][kSlots];
  alignas(kAlign) std::int32_t idx_[kSlots];
  alignas(kAlign) std::int32_t valid_[kSlots];
};

}  // namespace hacc::sph
