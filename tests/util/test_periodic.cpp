#include "util/periodic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace hacc::util {
namespace {

// The formula every caller used before the shared helper.
template <typename Real>
Real formula(Real d, Real box) {
  return d - box * std::round(d / box);
}

template <typename Real>
auto bits(Real x) {
  using U = std::conditional_t<sizeof(Real) == 4, std::uint32_t, std::uint64_t>;
  U u;
  std::memcpy(&u, &x, sizeof(x));
  return u;
}

template <typename Real>
void expect_same_bits(Real d, Real box) {
  const Real got = min_image(d, box);
  const Real want = formula(d, box);
  ASSERT_EQ(bits(got), bits(want)) << "d=" << d << " box=" << box << " got=" << got
                                   << " want=" << want;
}

template <typename Real>
std::vector<Real> edge_inputs(Real box) {
  const Real inf = std::numeric_limits<Real>::infinity();
  std::vector<Real> out = {Real(0), -Real(0), inf, -inf,
                           std::numeric_limits<Real>::quiet_NaN(),
                           std::numeric_limits<Real>::denorm_min(),
                           -std::numeric_limits<Real>::denorm_min()};
  for (const Real mag : {box / 2, Real(0.4999) * box, box, Real(1.5) * box}) {
    for (const Real s : {Real(1), Real(-1)}) {
      const Real x = s * mag;
      out.push_back(x);
      out.push_back(std::nextafter(x, inf));
      out.push_back(std::nextafter(x, -inf));
    }
  }
  return out;
}

const double kBoxes[] = {1.0, 0.7, 3.0, 64.0, 1e-3, 256.5, 1000.0 / 3.0};

template <typename Real>
void check_random_and_edges() {
  CounterRng rng(2026);
  std::uint64_t counter = 0;
  for (const double box_d : kBoxes) {
    const Real box = static_cast<Real>(box_d);
    for (const Real d : edge_inputs(box)) expect_same_bits(d, box);
    for (int k = 0; k < 200000; ++k) {
      const Real d = static_cast<Real>((rng.uniform(counter++) * 3.2 - 1.6) * box_d);
      expect_same_bits(d, box);
    }
  }
}

TEST(MinImage, FloatBitIdenticalToRoundFormula) { check_random_and_edges<float>(); }

TEST(MinImage, DoubleBitIdenticalToRoundFormula) { check_random_and_edges<double>(); }

TEST(MinImage, NegativeZeroBecomesPositiveZero) {
  EXPECT_FALSE(std::signbit(min_image(-0.0f, 1.0f)));
  EXPECT_FALSE(std::signbit(min_image(-0.0, 1.0)));
}

TEST(MinImage, VectorOverloadAppliesPerComponent) {
  const Vec3d d{0.9, -0.6, 0.25};
  const Vec3d got = min_image(d, 1.0);
  for (int a = 0; a < 3; ++a) EXPECT_EQ(bits(got[a]), bits(formula(d[a], 1.0)));
}

}  // namespace
}  // namespace hacc::util
