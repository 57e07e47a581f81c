#pragma once

// Conservative Reproducing Kernel machinery (Frontiere, Raskin & Owen 2017).
// The linear-order CRK interpolant replaces W_ij with
//     WR_ij = A_i (1 + B_i · x_ij) W_ij,          x_ij = x_i - x_j,
// whose coefficients are solved from the local moments so that constant and
// linear fields are reproduced exactly.  The corrected gradient additionally
// needs ∇A and ∇B, which follow from the moment gradients.

#include "core/particles.hpp"
#include "sph/kernel.hpp"
#include "util/vec3.hpp"

namespace hacc::sph {

// CRK coefficients for one particle.
template <typename Real>
struct CrkCoeffs {
  Real A{1};
  util::Vec3<Real> B{};
  util::Vec3<Real> dA{};
  // dB[row][col] = ∂_col B_row.
  Real dB[3][3] = {{0, 0, 0}, {0, 0, 0}, {0, 0, 0}};
};

// Local moments accumulated over neighbors (incl. self):
//   m0 = Σ V_j W_ij, m1 = Σ V_j x_ij W_ij, m2 = Σ V_j x_ij⊗x_ij W_ij,
// plus their gradients with respect to x_i.  Stored flat in the
// per-particle core::mom_idx layout, so the float kernels accumulate pair
// terms straight into the block they commit.
template <typename Real>
struct CrkMoments {
  Real v[core::mom_idx::kCount] = {};

  // Copies a flat block of any precision (the float kernels' scratch).
  template <typename From>
  static CrkMoments from_flat(const From* in) {
    CrkMoments m;
    for (int k = 0; k < core::mom_idx::kCount; ++k) m.v[k] = in[k];
    return m;
  }

  Real& m0() { return v[core::mom_idx::kM0]; }
  Real m0() const { return v[core::mom_idx::kM0]; }
  util::Vec3<Real> m1() const { return vec(core::mom_idx::kM1); }
  util::Sym3<Real> m2() const {
    const Real* s = v + core::mom_idx::kM2;
    return {s[0], s[1], s[2], s[3], s[4], s[5]};
  }
  util::Vec3<Real> dm0() const { return vec(core::mom_idx::kDM0); }
  // ∂γ m1_α and ∂γ m2_c (c in xx,xy,xz,yy,yz,zz order).
  Real& dm1(int alpha, int gamma) { return v[core::mom_idx::dm1(alpha, gamma)]; }
  Real dm1(int alpha, int gamma) const { return v[core::mom_idx::dm1(alpha, gamma)]; }
  Real dm2(int comp, int gamma) const { return v[core::mom_idx::dm2(comp, gamma)]; }

  // One neighbor's contribution, which add() adds to a sum.  vj: neighbor
  // volume; xij = x_i - x_j.
  static CrkMoments pair_term(Real vj, const util::Vec3<Real>& xij, Real w,
                              const util::Vec3<Real>& gw) {
    namespace mi = core::mom_idx;
    // Symmetric components: (0,0)(0,1)(0,2)(1,1)(1,2)(2,2).
    constexpr int rows[6] = {0, 0, 0, 1, 1, 2};
    constexpr int cols[6] = {0, 1, 2, 1, 2, 2};
    CrkMoments t;
    t.v[mi::kM0] = vj * w;
    for (int a = 0; a < 3; ++a) t.v[mi::kM1 + a] = xij[a] * (vj * w);
    for (int c = 0; c < 6; ++c) t.v[mi::m2(c)] = xij[rows[c]] * xij[cols[c]] * (vj * w);
    for (int g = 0; g < 3; ++g) t.v[mi::kDM0 + g] = gw[g] * vj;
    for (int g = 0; g < 3; ++g) {
      for (int a = 0; a < 3; ++a) {
        t.v[mi::dm1(a, g)] = vj * ((a == g ? w : Real(0)) + xij[a] * gw[g]);
      }
      for (int c = 0; c < 6; ++c) {
        const int a = rows[c], b = cols[c];
        t.v[mi::dm2(c, g)] = vj * ((a == g ? xij[b] * w : Real(0)) +
                                   (b == g ? xij[a] * w : Real(0)) +
                                   xij[a] * xij[b] * gw[g]);
      }
    }
    return t;
  }

  // Adds lane k of a pair term (the whole of a one-lane term).
  template <typename From>
  void add(const CrkMoments<From>& t, int k = 0) {
    for (int w = 0; w < core::mom_idx::kCount; ++w) v[w] += lanes::lane(t.v[w], k);
  }

 private:
  util::Vec3<Real> vec(int k) const { return {v[k], v[k + 1], v[k + 2]}; }
};

// Solves the linear CRK system.  Falls back to the zeroth-order correction
// (A = 1/m0, B = 0) when the second moment is numerically singular, which
// happens for isolated or degenerate neighborhoods.
template <typename Real>
inline CrkCoeffs<Real> solve_crk(const CrkMoments<Real>& m) {
  CrkCoeffs<Real> c;
  util::Sym3<Real> m2inv;
  const util::Vec3<Real> m1 = m.m1();
  const util::Vec3<Real> dm0 = m.dm0();
  const bool ok = m.m2().inverse(m2inv);
  if (!ok || m.m0() <= Real(0)) {
    if (m.m0() > Real(0)) {
      c.A = Real(1) / m.m0();
      const Real a2 = c.A * c.A;
      c.dA = dm0 * (-a2);
    }
    return c;
  }

  c.B = -(m2inv * m1);
  const Real q = m.m0() + dot(c.B, m1);
  if (q == Real(0)) return c;
  c.A = Real(1) / q;

  // ∂γB = -m2^{-1} (∂γ m1 + (∂γ m2) B); ∂γA = -A² (∂γ m0 + ∂γB·m1 + B·∂γ m1).
  for (int g = 0; g < 3; ++g) {
    const util::Vec3<Real> dm1g{m.dm1(0, g), m.dm1(1, g), m.dm1(2, g)};
    const util::Sym3<Real> dm2g{m.dm2(0, g), m.dm2(1, g), m.dm2(2, g),
                                m.dm2(3, g), m.dm2(4, g), m.dm2(5, g)};
    const util::Vec3<Real> rhs = dm1g + dm2g * c.B;
    const util::Vec3<Real> dBg = -(m2inv * rhs);
    for (int a = 0; a < 3; ++a) c.dB[a][g] = dBg[a];
    c.dA[g] = -c.A * c.A * (dm0[g] + dot(dBg, m1) + dot(c.B, dm1g));
  }
  return c;
}

// Corrected kernel value WR_ij.
template <typename Real>
inline Real crk_w(const CrkCoeffs<Real>& c, const util::Vec3<Real>& xij, Real w) {
  return c.A * (Real(1) + dot(c.B, xij)) * w;
}

// Corrected kernel gradient ∇_i WR_ij given raw W and ∇W values.
template <typename Real>
inline util::Vec3<Real> crk_grad(const CrkCoeffs<Real>& c, const util::Vec3<Real>& xij,
                                 Real w, const util::Vec3<Real>& gw) {
  const Real lin = Real(1) + dot(c.B, xij);
  util::Vec3<Real> out;
  for (int g = 0; g < 3; ++g) {
    const util::Vec3<Real> dBg{c.dB[0][g], c.dB[1][g], c.dB[2][g]};
    out[g] = (c.dA[g] * lin + c.A * (dot(dBg, xij) + c.B[g])) * w + c.A * lin * gw[g];
  }
  return out;
}

}  // namespace hacc::sph
