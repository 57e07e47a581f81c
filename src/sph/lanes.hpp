#pragma once

// The lane types the pair physics is written over.  Every equation in
// kernel.hpp, crk.hpp and physics.hpp is a template over `Real`: float for
// one lane of the xsycl kernels, double for the scalar reference, and
// Floats4 for four lanes of the pair harness's vector paths.  Written with
// <experimental/simd>: on baseline x86-64 a Floats4 is one SSE register,
// and its sqrt and division are the correctly rounded sqrtps and divps, so
// a lane of a Floats4 computes exactly what the float code computes.
//
// A branch of the physics becomes a lanes::select, which evaluates both
// arms; lanes::max and lanes::min keep std::max's and std::min's operand
// order, so NaN and ±0 pass through them as through the std functions.

#include <array>
#include <cstdint>
#include <experimental/simd>
#include <functional>

#include "util/periodic.hpp"
#include "util/vec3.hpp"

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

namespace lanes {

// The type of one lane of `Real`, which literals convert to:
// lanes::Scalar<Real>(0.5) is a float for float and Floats4.
template <typename Real>
struct ScalarOf {
  using type = Real;
};
template <typename T, typename Abi>
struct ScalarOf<stdx::simd<T, Abi>> {
  using type = T;
};
template <typename Real>
using Scalar = typename ScalarOf<Real>::type;

// c ? a : b, lane by lane.
template <typename Real>
inline Real select(bool c, const Real& a, const Real& b) {
  return c ? a : b;
}
inline Floats4 select(const Mask4& m, const Floats4& a, Floats4 b) {
  where(m, b) = a;
  return b;
}

// std::max's (a < b) ? b : a and std::min's (b < a) ? b : a.
template <typename Real>
inline Real max(const Real& a, const Real& b) {
  return select(a < b, b, a);
}
template <typename Real>
inline Real min(const Real& a, const Real& b) {
  return select(b < a, b, a);
}

// Lane k of a value: the value itself for one lane.
template <typename Real>
inline Real lane(Real x, int) {
  return x;
}
inline float lane(const Floats4& x, int k) { return x[k]; }

}  // namespace lanes

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

// Four lane states, read one float field at a time: lane k of each Floats4
// read from a Gather4 comes from state k.
template <typename State>
struct Gather4 {
  std::array<const State*, kBlockLanes> s;
};

// Field `f` (a pointer to a float member, or a callable returning a float)
// of one lane state, or of four.
template <typename State, typename F>
inline float read(const State& s, F f) {
  return std::invoke(f, s);
}
template <typename State, typename F>
inline Floats4 read(const Gather4<State>& g, F f) {
  return Floats4([&](auto k) { return std::invoke(f, *g.s[k]); });
}

// The state type behind one lane state or a Gather4 of them.
template <typename Lanes>
struct StateOf {
  using type = Lanes;
};
template <typename State>
struct StateOf<Gather4<State>> {
  using type = State;
};

}  // namespace hacc::sph
