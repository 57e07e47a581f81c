#pragma once

// Four-lane vector blocks of the pair harness (half_warp.hpp).  After a
// tile loads, its lane states are written once into per-field arrays, so
// that four own lanes read one partner round of every field with one
// vector load.  The lane types are those of lanes.hpp.

#include <array>
#include <cstdint>
#include <type_traits>

#include "sph/lanes.hpp"
#include "xsycl/comm_variant.hpp"
#include "xsycl/varying.hpp"

namespace hacc::sph {

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
