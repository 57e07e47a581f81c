#pragma once

// Pair physics shared by the GPU-style xsycl kernels (float, and Floats4 for
// their four-lane form) and the scalar double-precision reference: one
// templated definition guarantees the paths implement identical equations.
// Branches are lanes::select (lanes.hpp): a term is computed in full, then
// replaced by +0 where the scalar code would have returned early.
//
// Discretization (linear CRKSPH, adiabatic mode):
//   Geometry:     m0_i = Σ_j W(r_ij, h_i)            ->  V_i = 1/m0_i
//   Corrections:  moments m0,m1,m2 and gradients     ->  A, B, ∇A, ∇B
//   Extras:       rho_i = Σ_j m_j WR_ij ;  ∇v_i = Σ_j V_j (v_j - v_i) ⊗ ∇WR_ij
//   Acceleration: a_i = -(1/m_i) Σ_j V_i V_j (P_i + P_j + Q_ij) ΔΓ_ij
//   Energy:       du_i/dt = (1/2m_i) Σ_j V_i V_j (P_i + P_j + Q_ij) (v_i - v_j)·ΔΓ_ij
// with ΔΓ_ij = ½(∇WR_ij - ∇WR_ji) antisymmetric, so momentum is conserved
// pair-wise and total energy is conserved exactly in the flat-space limit.

#include "sph/crk.hpp"
#include "sph/eos.hpp"
#include "sph/kernel.hpp"
#include "util/periodic.hpp"
#include "util/vec3.hpp"

namespace hacc::sph {

// Monaghan-Gingold artificial viscosity parameters.
template <typename Real>
struct ViscosityParams {
  Real alpha = Real(1.0);
  Real beta = Real(2.0);
  Real eps = Real(0.01);  // softening of r^2 in mu
};

// One interaction side: everything a lane knows about a particle.
template <typename Real>
struct HydroSide {
  util::Vec3<Real> pos;
  util::Vec3<Real> vel;
  Real mass{}, h{}, V{}, rho{}, P{}, cs{};
  CrkCoeffs<Real> crk;
};

using util::min_image;

// The periodic box a term wraps in: a float for float and Floats4 sides.
template <typename Real>
using Box = lanes::Scalar<Real>;

// ---- Support tests ----
// Each is false only where its kernels' pair term is exactly zero, so the
// pair harness may skip such pairs without changing a bit of the result.

// Geometry, Corrections and Extras: zero unless x_j lies inside i's own
// support, kernel_w's q = r / h_i < 2.
template <typename Real>
inline auto in_own_support(Real r, Real hi) {
  return r / hi < lanes::Scalar<Real>(kSupport);
}

// Acceleration and Energy: zero unless 0 < r < 2 max(h_i, h_j).
template <typename Real>
inline auto in_pair_support(Real r, Real hi, Real hj) {
  const Real support = lanes::Scalar<Real>(kSupport) * lanes::max(hi, hj);
  return !(r <= Real(0) || r >= support);
}

// ---- Geometry ----
template <typename Real>
inline Real geometry_term(const HydroSide<Real>& own, const HydroSide<Real>& other,
                          Box<Real> box) {
  const auto xij = min_image(own.pos - other.pos, box);
  return kernel_w(norm(xij), own.h);
}

// ---- Corrections ----
// The moments' pair term; all +0 where W underflows or vanishes.
template <typename Real>
inline CrkMoments<Real> corrections_term(const HydroSide<Real>& own,
                                         const HydroSide<Real>& other, Box<Real> box) {
  const auto xij = min_image(own.pos - other.pos, box);
  const Real r = norm(xij);
  const Real w = kernel_w(r, own.h);
  CrkMoments<Real> m = CrkMoments<Real>::pair_term(other.V, xij, w, kernel_grad(xij, r, own.h));
  const auto none = w == Real(0);
  for (Real& x : m.v) x = lanes::select(none, Real(0), x);
  return m;
}

// Self contribution to the moments (x_ij = 0, ∇W = 0).
template <typename Real>
inline void corrections_self(CrkMoments<Real>& m, Real vi, Real hi) {
  const Real w0 = kernel_self(hi);
  m.m0() += vi * w0;
  for (int a = 0; a < 3; ++a) m.dm1(a, a) += vi * w0;
}

// ---- Extras ----
template <typename Real>
struct ExtrasTerm {
  Real rho{};
  Real dv[3][3] = {{0, 0, 0}, {0, 0, 0}, {0, 0, 0}};  // ∂c v_r -> dv[r][c]

  // Adds lane k of a pair term (the whole of a one-lane term).
  template <typename From>
  void add(const ExtrasTerm<From>& t, int k = 0) {
    rho += lanes::lane(t.rho, k);
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 3; ++c) dv[r][c] += lanes::lane(t.dv[r][c], k);
    }
  }
};

// All +0 where W underflows or vanishes.
template <typename Real>
inline ExtrasTerm<Real> extras_term(const HydroSide<Real>& own,
                                    const HydroSide<Real>& other, Box<Real> box) {
  ExtrasTerm<Real> out;
  const auto xij = min_image(own.pos - other.pos, box);
  const Real r = norm(xij);
  const Real w = kernel_w(r, own.h);
  const auto gw = kernel_grad(xij, r, own.h);
  const auto none = w == Real(0);
  out.rho = lanes::select(none, Real(0), other.mass * crk_w(own.crk, xij, w));
  const auto gwr = crk_grad(own.crk, xij, w, gw);
  const auto dvel = other.vel - own.vel;
  for (int rr = 0; rr < 3; ++rr) {
    for (int cc = 0; cc < 3; ++cc) {
      out.dv[rr][cc] = lanes::select(none, Real(0), other.V * dvel[rr] * gwr[cc]);
    }
  }
  return out;
}

// ---- Shared force machinery ----

// Antisymmetrized corrected-kernel gradient ½(∇WR_ij - ∇WR_ji).
template <typename Real>
inline util::Vec3<Real> delta_gamma(const HydroSide<Real>& own,
                                    const HydroSide<Real>& other,
                                    const util::Vec3<Real>& xij, Real r) {
  const Real wi = kernel_w(r, own.h);
  const Real wj = kernel_w(r, other.h);
  const auto gwi = kernel_grad(xij, r, own.h);
  const auto gwj = kernel_grad(-xij, r, other.h);
  const auto gri = crk_grad(own.crk, xij, wi, gwi);
  const auto grj = crk_grad(other.crk, -xij, wj, gwj);
  return (gri - grj) * lanes::Scalar<Real>(0.5);
}

// Symmetric Monaghan viscosity pressure Q_ij (zero for receding pairs).
template <typename Real>
inline Real viscosity_q(const HydroSide<Real>& own, const HydroSide<Real>& other,
                        const util::Vec3<Real>& xij, Real r,
                        const ViscosityParams<lanes::Scalar<Real>>& vp) {
  using S = lanes::Scalar<Real>;
  const auto vij = own.vel - other.vel;
  const Real vdotx = dot(vij, xij);
  const Real hbar = pair_h(own.h, other.h);
  const Real mu = hbar * vdotx / (r * r + vp.eps * hbar * hbar);
  const Real cbar = S(0.5) * (own.cs + other.cs);
  const Real rhobar = S(0.5) * (own.rho + other.rho);
  return lanes::select(vdotx >= Real(0), Real(0),
                       rhobar * (-vp.alpha * cbar * mu + vp.beta * mu * mu));
}

// ---- Acceleration ----
template <typename Real>
struct AccelTerm {
  util::Vec3<Real> accel{};
  Real vsig{};  // pair signal velocity; reduced with fetch_max

  // Adds lane k of a pair term (the whole of a one-lane term): forces add,
  // signal velocities combine by max.
  template <typename From>
  void add(const AccelTerm<From>& t, int k = 0) {
    for (int a = 0; a < 3; ++a) accel[a] += lanes::lane(t.accel[a], k);
    vsig = lanes::max(vsig, lanes::lane(t.vsig, k));
  }
};

// All +0 outside the pair support.
template <typename Real>
inline AccelTerm<Real> accel_term(const HydroSide<Real>& own,
                                  const HydroSide<Real>& other, Box<Real> box,
                                  const ViscosityParams<lanes::Scalar<Real>>& vp) {
  const auto xij = min_image(own.pos - other.pos, box);
  const Real r = norm(xij);
  const auto dg = delta_gamma(own, other, xij, r);
  const Real q = viscosity_q(own, other, xij, r, vp);
  const Real coef = -(own.V * other.V / own.mass) * (own.P + other.P + q);
  const auto accel = dg * coef;
  const Real mu_ish = dot(own.vel - other.vel, xij) / r;
  const auto in = in_pair_support(r, own.h, other.h);
  AccelTerm<Real> out;
  for (int a = 0; a < 3; ++a) out.accel[a] = lanes::select(in, accel[a], Real(0));
  out.vsig = lanes::select(
      in, own.cs + other.cs - Real(3) * lanes::min(Real(0), mu_ish), Real(0));
  return out;
}

// ---- Energy ----
// +0 outside the pair support.
template <typename Real>
inline Real energy_term(const HydroSide<Real>& own, const HydroSide<Real>& other,
                        Box<Real> box, const ViscosityParams<lanes::Scalar<Real>>& vp) {
  const auto xij = min_image(own.pos - other.pos, box);
  const Real r = norm(xij);
  const auto dg = delta_gamma(own, other, xij, r);
  const Real q = viscosity_q(own, other, xij, r, vp);
  const Real coef = (own.V * other.V / (Real(2) * own.mass)) * (own.P + other.P + q);
  return lanes::select(in_pair_support(r, own.h, other.h),
                       coef * dot(own.vel - other.vel, dg), Real(0));
}

}  // namespace hacc::sph
