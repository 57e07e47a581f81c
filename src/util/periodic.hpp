#pragma once

// Minimum-image displacement in a periodic box: the one definition every
// pair kernel, drift check and far-field walk shares.

#include <cmath>

#include "util/vec3.hpp"

namespace hacc::util {

// Below this bound on |d|, min_image(d, box) is d + 0.
template <typename Real>
inline Real min_image_identity_bound(Real box) {
  return Real(0.4999) * box;
}

// Returns exactly d - box * round(d / box), bit for bit, for every d
// (±0, ±inf and NaN included) and every positive finite box.  Below
// 0.4999 * box, round(d / box) is ±0, so the formula returns d, except
// that it turns -0 into +0; d + 0 does the same without the division.
template <typename Real>
inline Real min_image(Real d, Real box) {
  if (std::fabs(d) < min_image_identity_bound(box)) return d + Real(0);
  return d - box * std::round(d / box);
}

template <typename Real>
inline Vec3<Real> min_image(Vec3<Real> d, Real box) {
  for (int a = 0; a < 3; ++a) d[a] = min_image(d[a], box);
  return d;
}

}  // namespace hacc::util
