#pragma once

// The SPH interpolation kernel: the cubic B-spline (M4) with compact
// support at r = 2h.  Templated on the lane type (lanes.hpp) so the float
// GPU-style kernels, their four-lane form and the double-precision scalar
// reference share one definition.

#include <cmath>

#include "sph/lanes.hpp"
#include "util/vec3.hpp"

namespace hacc::sph {

// Support radius multiplier: W(r, h) == 0 for r >= kSupport * h.
inline constexpr double kSupport = 2.0;

// Smoothing-length scale relative to the local volume, h = kEta * V^(1/3).
inline constexpr double kEta = 1.3;

// Cubic spline W(r, h) in 3-D with sigma = 1/(pi h^3); q = r/h in [0, 2).
template <typename Real>
inline Real kernel_w(Real r, Real h) {
  using S = lanes::Scalar<Real>;
  const Real q = r / h;
  const Real sigma = S(M_1_PI) / (h * h * h);
  const Real t = Real(2) - q;
  return lanes::select(q < Real(1),
                       sigma * (Real(1) - S(1.5) * q * q + S(0.75) * q * q * q),
                       lanes::select(q < Real(2), sigma * S(0.25) * t * t * t, Real(0)));
}

// dW/dr (scalar radial derivative; <= 0 everywhere).
template <typename Real>
inline Real kernel_dwdr(Real r, Real h) {
  using S = lanes::Scalar<Real>;
  const Real q = r / h;
  const Real sigma = S(M_1_PI) / (h * h * h);
  const Real t = Real(2) - q;
  return lanes::select(q < Real(1), sigma / h * (Real(-3) * q + S(2.25) * q * q),
                       lanes::select(q < Real(2), sigma / h * (S(-0.75) * t * t), Real(0)));
}

// ∇_i W(|x_i - x_j|, h): gradient with respect to x_i given x_ij = x_i - x_j;
// +0 at r <= 0.
template <typename Real>
inline util::Vec3<Real> kernel_grad(const util::Vec3<Real>& xij, Real r, Real h) {
  const util::Vec3<Real> g = xij * (kernel_dwdr(r, h) / r);
  const auto at_origin = r <= Real(0);
  return {lanes::select(at_origin, Real(0), g.x), lanes::select(at_origin, Real(0), g.y),
          lanes::select(at_origin, Real(0), g.z)};
}

// W(0, h): the self contribution used by Geometry and the density estimate.
template <typename Real>
inline Real kernel_self(Real h) {
  return kernel_w(Real(0), h);
}

// Symmetrized pair smoothing length.
template <typename Real>
inline Real pair_h(Real hi, Real hj) {
  return lanes::Scalar<Real>(0.5) * (hi + hj);
}

}  // namespace hacc::sph
