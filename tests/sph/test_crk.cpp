// The defining properties of the Conservative Reproducing Kernel: with the
// solved coefficients, constant and linear fields are interpolated EXACTLY
// (to solver precision) for arbitrary particle arrangements, and the
// corrected gradient reproduces constant gradients exactly.  These
// properties exercise the whole A, B, ∇A, ∇B machinery.

#include <gtest/gtest.h>

#include "gas_fixture.hpp"
#include "sph/reference.hpp"

namespace hacc::sph {
namespace {

using testing::GasOptions;
using testing::is_interior;
using testing::make_gas;

class CrkProperties : public ::testing::TestWithParam<double> {
 protected:
  void SetUp() override {
    opt_.n_side = 10;
    opt_.box = 4.0;
    opt_.fill = 0.5;  // cloud in the middle: no periodic wrap effects
    opt_.jitter = GetParam();
    opt_.seed = 77;
    gas_ = make_gas(opt_);
    ref_ = reference_hydro(gas_, opt_.box);
  }

  GasOptions opt_;
  core::ParticleSet gas_;
  ReferenceResults ref_;
};

INSTANTIATE_TEST_SUITE_P(JitterLevels, CrkProperties, ::testing::Values(0.0, 0.15, 0.3),
                         [](const auto& info) {
                           return "jitter" + std::to_string(int(info.param * 100));
                         });

TEST_P(CrkProperties, PartitionOfUnity) {
  // Σ_j V_j WR_ij == 1 exactly (constant reproduction), interior particles.
  const double box = opt_.box;
  int tested = 0;
  for (std::size_t i = 0; i < gas_.size(); ++i) {
    if (!is_interior(gas_, i, opt_)) continue;
    const auto xi = gas_.pos_of(i);
    double sum = ref_.V[i] * ref_.crk[i].A * kernel_self(double(gas_.h[i]));
    for (std::size_t j = 0; j < gas_.size(); ++j) {
      if (j == i) continue;
      const auto xij = min_image(xi - gas_.pos_of(j), box);
      const double w = kernel_w(norm(xij), double(gas_.h[i]));
      if (w == 0.0) continue;
      sum += ref_.V[j] * crk_w(ref_.crk[i], xij, w);
    }
    ASSERT_NEAR(sum, 1.0, 1e-10) << "particle " << i;
    ++tested;
  }
  EXPECT_GT(tested, 20);
}

TEST_P(CrkProperties, FirstMomentVanishes) {
  // Σ_j V_j x_ij WR_ij == 0 (linear reproduction).
  const double box = opt_.box;
  int tested = 0;
  for (std::size_t i = 0; i < gas_.size(); i += 7) {
    if (!is_interior(gas_, i, opt_)) continue;
    const auto xi = gas_.pos_of(i);
    util::Vec3d sum{};
    for (std::size_t j = 0; j < gas_.size(); ++j) {
      if (j == i) continue;
      const auto xij = min_image(xi - gas_.pos_of(j), box);
      const double w = kernel_w(norm(xij), double(gas_.h[i]));
      if (w == 0.0) continue;
      sum += xij * (ref_.V[j] * crk_w(ref_.crk[i], xij, w));
    }
    ASSERT_NEAR(norm(sum), 0.0, 1e-10) << "particle " << i;
    ++tested;
  }
  EXPECT_GT(tested, 5);
}

TEST_P(CrkProperties, CorrectedGradientSumsToZero) {
  // Σ_j V_j ∇WR_ij == 0: the ∇A and ∇B terms are what make this hold.
  const double box = opt_.box;
  int tested = 0;
  for (std::size_t i = 0; i < gas_.size(); i += 7) {
    if (!is_interior(gas_, i, opt_)) continue;
    const auto xi = gas_.pos_of(i);
    // Self term: x_ij = 0, ∇W = 0, but ∇WR has the (∇A + A B) W(0) part.
    util::Vec3d sum = crk_grad(ref_.crk[i], util::Vec3d{}, kernel_self(double(gas_.h[i])),
                               util::Vec3d{}) *
                      ref_.V[i];
    for (std::size_t j = 0; j < gas_.size(); ++j) {
      if (j == i) continue;
      const auto xij = min_image(xi - gas_.pos_of(j), box);
      const double r = norm(xij);
      const double w = kernel_w(r, double(gas_.h[i]));
      if (w == 0.0) continue;
      sum += crk_grad(ref_.crk[i], xij, w, kernel_grad(xij, r, double(gas_.h[i]))) *
             ref_.V[j];
    }
    ASSERT_NEAR(norm(sum), 0.0, 1e-8) << "particle " << i;
    ++tested;
  }
  EXPECT_GT(tested, 5);
}

TEST_P(CrkProperties, DensityInterpolantRecoversRho0) {
  // rho_i = Σ_j m_j WR_ij with m_j = rho0 * (lattice cell volume).  With CRK
  // corrections this recovers rho0 up to the V_j vs cell-volume mismatch,
  // which is tiny for near-uniform arrangements.
  // Tolerance grows with jitter: V_j drifts from the lattice cell volume.
  const double tol = (0.01 + 0.1 * opt_.jitter) * opt_.rho0;
  int tested = 0;
  for (std::size_t i = 0; i < gas_.size(); ++i) {
    if (!is_interior(gas_, i, opt_)) continue;
    ASSERT_NEAR(ref_.rho[i], opt_.rho0, tol) << "particle " << i;
    ++tested;
  }
  EXPECT_GT(tested, 20);
}

TEST_P(CrkProperties, VelocityGradientExactForLinearField) {
  // v = c + G x  =>  DvDx == G exactly for interior particles.
  const double G[3][3] = {{0.3, -0.1, 0.05}, {0.2, 0.4, -0.25}, {-0.15, 0.1, 0.2}};
  core::ParticleSet gas = gas_;
  for (std::size_t i = 0; i < gas.size(); ++i) {
    const auto x = gas.pos_of(i);
    gas.vx[i] = float(0.1 + G[0][0] * x.x + G[0][1] * x.y + G[0][2] * x.z);
    gas.vy[i] = float(-0.2 + G[1][0] * x.x + G[1][1] * x.y + G[1][2] * x.z);
    gas.vz[i] = float(0.3 + G[2][0] * x.x + G[2][1] * x.y + G[2][2] * x.z);
  }
  const auto ref = reference_hydro(gas, opt_.box);
  int tested = 0;
  for (std::size_t i = 0; i < gas.size(); ++i) {
    if (!is_interior(gas, i, opt_)) continue;
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 3; ++c) {
        // float storage of v limits achievable precision.
        ASSERT_NEAR(ref.dvel[i][3 * r + c], G[r][c], 5e-4)
            << "particle " << i << " component (" << r << "," << c << ")";
      }
    }
    ++tested;
  }
  EXPECT_GT(tested, 5);
}

TEST(CrkSolve, UniformLatticeGivesUnitCorrection) {
  // On a perfect lattice m1 = 0 by symmetry, so B = 0 and A = 1/m0.
  GasOptions opt;
  opt.n_side = 8;
  opt.box = 2.0;
  opt.fill = 1.0;  // fully periodic lattice
  opt.jitter = 0.0;
  const auto gas = make_gas(opt);
  const auto ref = reference_hydro(gas, opt.box);
  for (std::size_t i = 0; i < gas.size(); i += 17) {
    EXPECT_NEAR(norm(ref.crk[i].B), 0.0, 1e-9);
    // CRK zeroth moment is Σ V_j W = V_i * m0_i = 1, so A = 1/(m0 V) ≈ 1.
    EXPECT_NEAR(ref.crk[i].A, 1.0 / (ref.m0[i] * ref.V[i]), 1e-6 * ref.crk[i].A);
    EXPECT_NEAR(ref.crk[i].A, 1.0, 1e-6);
  }
}

TEST(CrkSolve, SingularMomentsFallBackToZerothOrder) {
  // Collinear neighbors: m2 is rank-deficient; solver must not blow up.
  CrkMoments<double> m;
  const double h = 1.0;
  for (int k = -3; k <= 3; ++k) {
    if (k == 0) continue;
    const util::Vec3d xij{0.3 * k, 0.0, 0.0};
    const double r = norm(xij);
    m.add(CrkMoments<double>::pair_term(0.1, xij, kernel_w(r, h), kernel_grad(xij, r, h)));
  }
  m.m0() += 0.1 * kernel_self(h);
  const auto c = solve_crk(m);
  EXPECT_NEAR(c.A, 1.0 / m.m0(), 1e-12);
  EXPECT_EQ(norm(c.B), 0.0);
}

TEST(CrkSolve, EmptyMomentsGiveIdentityCoeffs) {
  const CrkMoments<double> m;
  const auto c = solve_crk(m);
  EXPECT_DOUBLE_EQ(c.A, 1.0);
  EXPECT_EQ(norm(c.B), 0.0);
}

}  // namespace
}  // namespace hacc::sph
