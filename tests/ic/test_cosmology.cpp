#include "ic/cosmology.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace hacc::ic {
namespace {

Cosmology eds() {
  Cosmology c;
  c.omega_m = 1.0;
  return c;
}

TEST(Cosmology, HubbleRateToday) {
  Cosmology c;
  EXPECT_NEAR(c.e_of_a(1.0), 1.0, 1e-12);
}

TEST(Cosmology, EdsExpansionRate) {
  const Cosmology c = eds();
  for (const double a : {0.01, 0.1, 0.5, 1.0}) {
    EXPECT_NEAR(c.e_of_a(a), std::pow(a, -1.5), 1e-12);
  }
}

TEST(Cosmology, MatterDominatesEarly) {
  Cosmology c;
  c.omega_m = 0.31;
  const double a = 1.0 / 201.0;
  EXPECT_NEAR(c.e_of_a(a), std::sqrt(0.31) * std::pow(a, -1.5), 1e-3 * c.e_of_a(a));
}

TEST(Cosmology, EdsGrowthIsLinearInA) {
  const Cosmology c = eds();
  const double d1 = c.growth(0.2);
  const double d2 = c.growth(0.4);
  EXPECT_NEAR(d2 / d1, 2.0, 1e-3);
  const double d3 = c.growth(0.05);
  EXPECT_NEAR(c.growth(0.1) / d3, 2.0, 1e-3);
}

TEST(Cosmology, LambdaSuppressesLateGrowth) {
  Cosmology c;
  c.omega_m = 0.31;
  // D(1)/D(0.5) < 2: growth slows when Lambda dominates.
  EXPECT_LT(c.growth(1.0) / c.growth(0.5), 1.9);
  // But early on matter domination keeps D ~ a.
  EXPECT_NEAR(c.growth(0.01) / c.growth(0.005), 2.0, 0.02);
}

TEST(Cosmology, EdsKickFactorClosedForm) {
  const Cosmology c = eds();
  const double a0 = 0.1, a1 = 0.3;
  const double expect = (2.0 / 3.0) * (std::pow(a1, 1.5) - std::pow(a0, 1.5));
  EXPECT_NEAR(c.kick_factor(a0, a1), expect, 1e-8);
}

TEST(Cosmology, EdsConformalFactorClosedForm) {
  const Cosmology c = eds();
  const double a0 = 0.04, a1 = 0.16;
  const double expect = 2.0 * (std::sqrt(a1) - std::sqrt(a0));
  EXPECT_NEAR(c.conformal_factor(a0, a1), expect, 1e-8);
}

TEST(Cosmology, IntegralsAdditiveOverSubintervals) {
  Cosmology c;
  c.omega_m = 0.31;
  const double a0 = 0.005, am = 0.01, a1 = 0.02;
  EXPECT_NEAR(c.kick_factor(a0, a1), c.kick_factor(a0, am) + c.kick_factor(am, a1),
              1e-10);
  EXPECT_NEAR(c.conformal_factor(a0, a1),
              c.conformal_factor(a0, am) + c.conformal_factor(am, a1), 1e-7);
}

TEST(Cosmology, RedshiftScaleFactorRoundTrip) {
  EXPECT_DOUBLE_EQ(Cosmology::a_of_z(200.0), 1.0 / 201.0);
  EXPECT_DOUBLE_EQ(Cosmology::z_of_a(0.02), 49.0);
  for (const double z : {0.0, 1.0, 50.0, 200.0}) {
    EXPECT_NEAR(Cosmology::z_of_a(Cosmology::a_of_z(z)), z, 1e-10);
  }
}

}  // namespace
}  // namespace hacc::ic
