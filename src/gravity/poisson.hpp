#pragma once

/// \file
/// Spectral Poisson solver with HACC-style Gaussian force splitting (§3.1):
/// gravity is separated into a long-range component solved on the mesh
/// (k-space filter exp(-k^2 r_s^2)) and a short-range component evaluated by
/// direct particle-particle interactions inside a cutoff.
///
///     total: a(r) = G m x / r^3  (softened)
///     long : l(r) = (1 - s(r)) / r^3         — smooth at r = 0
///     short: s(r)/r^3, s(r) = erfc(r/2r_s) + (r / (r_s sqrt(pi))) exp(-r^2/4r_s^2)
///
/// The short-range profile used in kernels subtracts a polynomial fit of
/// l(r) in r^2 from Newton, mirroring CRK-HACC's HACC_CUDA_POLY_ORDER=5
/// (paper Appendix A).

#include <array>
#include <cmath>
#include <vector>

namespace hacc::gravity {

/// Exact splitting functions for the Gaussian/Ewald decomposition.
class SplitForce {
 public:
  explicit SplitForce(double r_split) : rs_(r_split) {}

  double r_split() const { return rs_; }

  /// s(r): fraction of the 1/r^2 force assigned to the short-range side.
  double short_fraction(double r) const;
  double long_fraction(double r) const { return 1.0 - short_fraction(r); }

  /// l(r) = (1 - s(r))/r^3: the smooth grid-force profile (finite at r=0).
  double long_profile(double r) const;

  /// k-space filter applied to the mesh potential.
  double k_filter(double k) const;

 private:
  double rs_;
};

/// Degree-`order` polynomial fit (in r^2) of the long-range force profile
/// l(r) over [0, r_cut]; the short-range kernel then evaluates
///     f_short(r) = 1/(r^2 + eps^2)^{3/2} - poly(r^2),
/// which is exactly how HACC's short-range CUDA kernel removes the grid
/// contribution.  Order 5 matches HACC_CUDA_POLY_ORDER=5.
class PolyShortForce {
 public:
  PolyShortForce(double r_split, double r_cut, int order = 5);

  /// Degenerate profile with poly == 0: short_profile reduces to pure
  /// (softened) Newton up to r_cut.  Used by the tree-only fmm backend,
  /// whose far field is carried by multipoles instead of a mesh.
  static PolyShortForce newtonian(double r_cut);

  double r_cut() const { return rcut_; }
  int order() const { return order_; }
  const std::vector<double>& coefficients() const { return coef_; }

  /// poly(r^2) ~= l(r).  Real is float or a float simd: the scalar and the
  /// four-lane short-range kernels share this one definition.
  template <typename Real>
  Real poly(Real r2) const {
    Real acc = Real(coef32_.back());
    for (int i = static_cast<int>(coef32_.size()) - 2; i >= 0; --i) {
      acc = acc * r2 + Real(coef32_[i]);
    }
    return acc;
  }

  /// Short-range radial profile: multiply by the displacement vector.
  template <typename Real>
  Real short_profile(Real r2, Real eps2) const {
    using std::sqrt;
    const Real newton = Real(1.0f) / (sqrt(r2 + eps2) * (r2 + eps2));
    return newton - poly(r2);
  }

  /// Max |poly(r^2) - l(r)| over the fit interval (diagnostics and tests).
  double max_abs_error(int n_samples = 512) const;

 private:
  PolyShortForce() = default;  // for newtonian(): no fit to run

  double rs_ = 0.0;
  double rcut_ = 0.0;
  int order_ = 0;
  std::vector<double> coef_;  // coef_[i] multiplies (r^2)^i
  std::vector<float> coef32_;  // coef_ rounded once to the kernels' float
};

}  // namespace hacc::gravity
