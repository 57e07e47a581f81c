#pragma once

// Varying<T> is a per-lane "register": one value per work-item of a
// sub-group executing in lockstep.  This realizes the SIMD lane data layout
// of the paper's half-warp algorithm (Fig. 3) directly on the CPU: compute
// phases are explicit lane loops, and a lane reads its partner's register in
// place while the charges in group_algorithms.hpp count the communication
// the device would do, so the platform cost model can price each variant.

#include <array>
#include <cstdint>
#include <type_traits>

namespace hacc::xsycl {

// Largest sub-group size of interest: AMD wavefronts are 64 wide (paper §4.3).
inline constexpr int kMaxLanes = 64;

template <typename T>
class Varying {
  static_assert(std::is_trivially_copyable_v<T>,
                "lane registers hold trivially copyable values only");

 public:
  Varying() = default;
  explicit Varying(const T& uniform) { v_.fill(uniform); }

  T& operator[](int lane) { return v_[static_cast<std::size_t>(lane)]; }
  const T& operator[](int lane) const { return v_[static_cast<std::size_t>(lane)]; }

  T* data() { return v_.data(); }
  const T* data() const { return v_.data(); }

 private:
  std::array<T, kMaxLanes> v_{};
};

using VaryingF = Varying<float>;
using VaryingI = Varying<std::int32_t>;
using VaryingB = Varying<bool>;

}  // namespace hacc::xsycl
