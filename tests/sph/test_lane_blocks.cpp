// The pair harness's vector blocks must be bit-identical to its scalar lane
// loop.  For the short-range P-P Traits, block_rounds (four own lanes per
// masked vector op) and lane_rounds (one lane at a time through reaches +
// accumulate, the loop every other Traits and every sub-group of fewer than
// eight lanes runs) are fed the same seeded random tiles, under Select and
// vISA at sub-group sizes 8-64.  Every live lane's sum must have the same
// bits (a NaN sum only has to stay NaN), every lane the same touched flag,
// and the tile the same interaction count.  The tiles mix clustered positions with pairs placed around
// 0.4999 box and box / 2 (the minimum-image wrap), coincident particles with
// distinct idx (r² = 0), pairs exactly at r_cut² and one ulp inside it,
// empty lanes holding garbage, diagonal tiles (each particle in both
// halves), culled lanes, zero masses, and inf / NaN coordinates.  The
// four-lane minimum image is also held to util::min_image on its own.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "gravity/poisson.hpp"
#include "gravity/pp_short.hpp"
#include "sph/half_warp.hpp"
#include "sph/lane_block.hpp"
#include "util/periodic.hpp"

namespace hacc::sph {
namespace {

using gravity::GravityTraits;
using gravity::GravState;
using Registers = TileRegisters<GravityTraits>;

static_assert(BlockTraits<GravityTraits>);

constexpr float kBox = 1.0f;
constexpr float kRcut = 0.25f;  // exact in float, and so is kRcut²
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }

// The bits of two sums agree, or both are NaN.  Which NaN a sum carries
// (the input's, or the default NaN of inf - inf) follows the operand order
// the compiler picks for a commutative add or multiply, so it differs
// between builds of the same scalar code: a sanitizer build flips it.
::testing::AssertionResult same_sum(float vector, float scalar) {
  if (bits(vector) == bits(scalar) || (std::isnan(vector) && std::isnan(scalar))) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << std::hex << "vector 0x" << bits(vector) << " scalar 0x" << bits(scalar);
}

class Tiles {
 public:
  explicit Tiles(std::uint64_t seed) : g_(seed) {}

  // A random tile of `sg_size` lanes in `t.mine` and `t.live`, its sums +0
  // and untouched.
  void fill(int sg_size, Registers& t) {
    const int H = sg_size / 2;
    t = Registers{};
    const bool diagonal = below(4) == 0;
    const float centre[3] = {coordinate(), coordinate(), coordinate()};
    const float spread = below(2) == 0 ? kRcut : 0.5f * kBox;
    for (int l = 0; l < sg_size; ++l) {
      GravState& s = t.mine[l];
      if (diagonal && l >= H) {
        s = t.mine[l - H];  // the same particle, idx included
        continue;
      }
      if (below(10) == 0) {  // an empty lane; load_tile zeroes it, garbage here
        s = {coordinate(), kNaN, coordinate(), 1.f, static_cast<std::int32_t>(l), 0};
        continue;
      }
      s.px = centre[0] + spread * signed_unit();
      s.py = centre[1] + spread * signed_unit();
      s.pz = centre[2] + spread * signed_unit();
      s.mass = below(16) == 0 ? 0.f : 0.5f + static_cast<float>(unit());
      s.idx = 1000 + l;
      s.valid = 1;
      if (l >= H) place_against(t.mine[below(H)], s);
      if (below(40) == 0) s.px = special();
    }
    for (int l = 0; l < sg_size; ++l) {
      const bool upper_on_diagonal = diagonal && l >= H;
      t.live[l] = t.mine[l].valid && !upper_on_diagonal && below(10) != 0;
    }
  }

 private:
  // Sometimes puts `s` at an edge case relative to the lower lane `p`.
  void place_against(GravState& p, GravState& s) {
    if (!p.valid || !std::isfinite(p.px)) return;
    static constexpr float kOffsets[] = {
        0.f,             // coincident, distinct idx: r² = 0
        kRcut,           // r² == r_cut² exactly
        0.4999f * kBox,  // around the min-image identity bound
        0.5f * kBox,     // around box / 2
    };
    switch (below(6)) {
      case 0: {
        float off = kOffsets[below(4)];
        switch (below(3)) {  // the value, or one ulp either side
          case 0: off = std::nextafter(off, 0.f); break;
          case 1: off = std::nextafter(off, kBox); break;
          default: break;
        }
        if (below(2) == 0) off = -off;
        // On a grid of 2^-8, p.px + r_cut is exact: the pair's separation
        // is exactly r_cut.
        p.px = std::round(p.px * 256.f) / 256.f;
        s.px = p.px + off;
        s.py = p.py;
        s.pz = p.pz;
        break;
      }
      case 1:  // the same position as `p`
        s.px = p.px;
        s.py = p.py;
        s.pz = p.pz;
        break;
      default:
        break;
    }
  }

  double unit() { return double(g_() >> 11) * 0x1p-53; }
  float signed_unit() { return static_cast<float>(2.0 * unit() - 1.0); }
  int below(int n) { return static_cast<int>(g_() % static_cast<std::uint64_t>(n)); }

  // Near a face a third of the time, else anywhere in the box.
  float coordinate() {
    switch (below(3)) {
      case 0: return static_cast<float>(1e-3 * unit());
      case 1: return static_cast<float>(kBox * (1.0 - 1e-3 * unit()));
      default: return static_cast<float>(kBox * unit());
    }
  }

  float special() {
    switch (below(3)) {
      case 0: return kInf;
      case 1: return -kInf;
      default: return kNaN;
    }
  }

  std::mt19937_64 g_;
};

// The four-lane minimum image against util::min_image, lane by lane: random
// displacements within 1.6 boxes and far beyond (past 2^23 boxes, where
// rounding keeps the quotient), edge values around 0.4999 box, box / 2 and
// whole boxes, ±0, denormals, inf and NaN, mixed across lanes so that blocks
// take both the fast path and the wrap.
TEST(LaneMinImage, MatchesUtilMinImageBitwise) {
  std::mt19937_64 g(2026);
  const auto unit = [&] { return double(g() >> 11) * 0x1p-53; };
  for (const float box : {1.0f, 0.7f, 3.0f, 64.0f, 1e-3f, 256.5f, 1000.0f / 3.0f}) {
    std::vector<float> values = {0.f, -0.f, kInf, -kInf, kNaN,
                                 std::numeric_limits<float>::denorm_min(),
                                 -std::numeric_limits<float>::denorm_min()};
    for (const float mag : {0.4999f * box, box / 2, box, 1.5f * box, 0x1p23f * box}) {
      for (const float x : {mag, -mag}) {
        values.insert(values.end(), {x, std::nextafter(x, kInf), std::nextafter(x, -kInf)});
      }
    }
    for (int k = 0; k < 100000; ++k) {
      const double scale = k % 8 == 0 ? std::ldexp(1.0, static_cast<int>(g() % 40)) : 1.0;
      values.push_back(static_cast<float>((3.2 * unit() - 1.6) * scale * box));
    }
    const auto pick = [&] { return values[g() % values.size()]; };
    for (std::size_t k = 0; k < values.size(); ++k) {
      // Lanes of one axis; the other axes stay in range a third of the time.
      const Floats4 d([&](auto lane) { return lane == 0 ? values[k] : pick(); });
      const auto quiet = [&] { return g() % 3 == 0 ? 0.25f * box : pick(); };
      const util::Vec3<Floats4> v{d, Floats4([&](auto) { return quiet(); }),
                                  Floats4([&](auto) { return quiet(); })};
      const Floats4 got = min_image(d, box);
      const util::Vec3<Floats4> got3 = min_image(v, box);
      for (int lane = 0; lane < kBlockLanes; ++lane) {
        for (int a = 0; a < 3; ++a) {
          const float want = util::min_image(float(v[a][lane]), box);
          ASSERT_EQ(bits(got3[a][lane]), bits(want))
              << "box " << box << " d " << v[a][lane] << " axis " << a;
        }
        ASSERT_EQ(bits(got[lane]), bits(util::min_image(float(d[lane]), box)))
            << "box " << box << " d " << d[lane];
      }
    }
  }
}

using Param = std::tuple<xsycl::CommVariant, int>;

class LaneBlocks : public ::testing::TestWithParam<Param> {};

TEST_P(LaneBlocks, MatchTheScalarLaneLoopBitwise) {
  const auto [variant, sg_size] = GetParam();
  const gravity::PolyShortForce grid(kRcut / 4, kRcut);
  const gravity::PolyShortForce newtonian = gravity::PolyShortForce::newtonian(kRcut);

  Tiles tiles(0x5eed0000u + 97u * static_cast<unsigned>(variant) +
              static_cast<unsigned>(sg_size));
  Registers scalar;
  Registers vector;
  int reached = 0;
  int non_finite = 0;
  for (int tile = 0; tile < 3000; ++tile) {
    GravityTraits traits;
    traits.poly = tile % 2 == 0 ? &grid : &newtonian;
    traits.box = kBox;
    traits.G = tile % 3 == 0 ? 1.f : 0.75f;
    traits.eps2 = tile % 4 < 2 ? 0.f : 1e-4f;
    traits.rcut2 = static_cast<float>(traits.poly->r_cut() * traits.poly->r_cut());
    ASSERT_EQ(traits.rcut2, kRcut * kRcut);

    tiles.fill(sg_size, scalar);
    vector = scalar;
    lane_rounds(traits, variant, sg_size, scalar);
    block_rounds(traits, variant, sg_size, vector);

    ASSERT_EQ(vector.interactions, scalar.interactions) << "tile " << tile;
    for (int l = 0; l < sg_size; ++l) {
      ASSERT_EQ(vector.touched[l], scalar.touched[l]) << "tile " << tile << " lane " << l;
      if (!scalar.live[l]) continue;
      const GravityTraits::Accum& a = scalar.acc[l];
      const GravityTraits::Accum& b = vector.acc[l];
      ASSERT_TRUE(same_sum(b.fx, a.fx)) << "tile " << tile << " lane " << l;
      ASSERT_TRUE(same_sum(b.fy, a.fy)) << "tile " << tile << " lane " << l;
      ASSERT_TRUE(same_sum(b.fz, a.fz)) << "tile " << tile << " lane " << l;
      reached += scalar.touched[l] ? 1 : 0;
      non_finite += std::isfinite(a.fx) ? 0 : 1;
    }
  }
  // The tiles exercised both finite sums and poisoned ones.
  EXPECT_GT(reached, 1000);
  EXPECT_GT(non_finite, 10);
}

INSTANTIATE_TEST_SUITE_P(
    SelectAndVisa, LaneBlocks,
    ::testing::Combine(::testing::Values(xsycl::CommVariant::kSelect,
                                         xsycl::CommVariant::kVISA),
                       ::testing::Values(8, 16, 32, 64)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(xsycl::to_string(std::get<0>(info.param))) + "_sg" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace hacc::sph
