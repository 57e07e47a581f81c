#include "sph/kernel.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace hacc::sph {
namespace {

// Radial quadrature of 4*pi*r^2*W(r,1) over [0, kSupport] (midpoint rule).
double kernel_normalization(int n_samples) {
  const double h = 1.0;
  const double rmax = kSupport * h;
  const double dr = rmax / n_samples;
  double total = 0.0;
  for (int i = 0; i < n_samples; ++i) {
    const double r = (i + 0.5) * dr;
    total += 4.0 * M_PI * r * r * kernel_w(r, h) * dr;
  }
  return total;
}

TEST(SphKernel, NormalizesToUnity) {
  EXPECT_NEAR(kernel_normalization(100'000), 1.0, 1e-6);
}

TEST(SphKernel, CompactSupportAtTwoH) {
  const double h = 0.7;
  EXPECT_GT(kernel_w(1.99 * h, h), 0.0);
  EXPECT_DOUBLE_EQ(kernel_w(2.0 * h, h), 0.0);
  EXPECT_DOUBLE_EQ(kernel_w(3.0 * h, h), 0.0);
  EXPECT_DOUBLE_EQ(kernel_dwdr(2.5 * h, h), 0.0);
}

TEST(SphKernel, MonotonicallyDecreasing) {
  const double h = 1.0;
  double prev = kernel_w(0.0, h);
  for (double r = 0.05; r < 2.0; r += 0.05) {
    const double w = kernel_w(r, h);
    EXPECT_LE(w, prev + 1e-14) << "r=" << r;
    prev = w;
  }
}

TEST(SphKernel, DerivativeNonPositive) {
  const double h = 1.0;
  for (double r = 0.0; r < 2.2; r += 0.01) {
    EXPECT_LE(kernel_dwdr(r, h), 1e-14) << "r=" << r;
  }
}

TEST(SphKernel, DerivativeMatchesFiniteDifference) {
  const double h = 0.9;
  const double dr = 1e-6;
  for (double r = 0.1; r < 1.95 * h; r += 0.1) {
    const double fd = (kernel_w(r + dr, h) - kernel_w(r - dr, h)) / (2 * dr);
    EXPECT_NEAR(kernel_dwdr(r, h), fd, 1e-5 * std::abs(fd) + 1e-8) << "r=" << r;
  }
}

TEST(SphKernel, ContinuousAtSegmentBoundary) {
  const double h = 1.0;
  EXPECT_NEAR(kernel_w(1.0 - 1e-9, h), kernel_w(1.0 + 1e-9, h), 1e-7);
  EXPECT_NEAR(kernel_dwdr(1.0 - 1e-9, h), kernel_dwdr(1.0 + 1e-9, h), 1e-6);
}

TEST(SphKernel, SelfValueMatchesZeroRadius) {
  EXPECT_DOUBLE_EQ(kernel_self(0.8), kernel_w(0.0, 0.8));
  // sigma at q=0: 1/(pi h^3).
  EXPECT_NEAR(kernel_self(1.0), M_1_PI, 1e-12);
}

TEST(SphKernel, ScalesAsInverseCubeOfH) {
  // W(q h, h) = W(q, 1) / h^3 for fixed q.
  const double q = 0.5;
  for (const double h : {0.5, 1.0, 2.0, 4.0}) {
    EXPECT_NEAR(kernel_w(q * h, h), kernel_w(q, 1.0) / (h * h * h), 1e-12);
  }
}

TEST(SphKernel, GradientPointsAlongSeparationOutwardNegative) {
  // ∇_i W is anti-parallel to x_ij (kernel decreases away from the center).
  const util::Vec3d xij{0.3, -0.4, 0.5};
  const double r = norm(xij);
  const auto g = kernel_grad(xij, r, 1.0);
  const double along = dot(g, xij) / r;
  EXPECT_LT(along, 0.0);
  // Perpendicular component is zero.
  const auto perp = g - xij * (dot(g, xij) / dot(xij, xij));
  EXPECT_NEAR(norm(perp), 0.0, 1e-12);
}

TEST(SphKernel, GradientAntisymmetricUnderExchange) {
  const util::Vec3d xij{0.2, 0.1, -0.3};
  const double r = norm(xij);
  const auto gij = kernel_grad(xij, r, 1.0);
  const auto gji = kernel_grad(-xij, r, 1.0);
  EXPECT_NEAR(gij.x, -gji.x, 1e-14);
  EXPECT_NEAR(gij.y, -gji.y, 1e-14);
  EXPECT_NEAR(gij.z, -gji.z, 1e-14);
}

TEST(SphKernel, GradientAtOriginIsZero) {
  const auto g = kernel_grad(util::Vec3d{0, 0, 0}, 0.0, 1.0);
  EXPECT_EQ(g, (util::Vec3d{0, 0, 0}));
}

TEST(SphKernel, PairHIsArithmeticMean) {
  EXPECT_DOUBLE_EQ(pair_h(1.0, 3.0), 2.0);
  EXPECT_FLOAT_EQ(pair_h(0.5f, 0.5f), 0.5f);
}

TEST(SphKernel, FloatAndDoubleAgree) {
  for (double r = 0.0; r < 2.0; r += 0.13) {
    EXPECT_NEAR(kernel_w(float(r), 1.0f), kernel_w(r, 1.0), 1e-6);
    EXPECT_NEAR(kernel_dwdr(float(r), 1.0f), kernel_dwdr(r, 1.0), 1e-5);
  }
}

}  // namespace
}  // namespace hacc::sph
