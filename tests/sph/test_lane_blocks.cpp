// The pair harness's vector paths must be bit-identical to its scalar lane
// loop.  lane_rounds (one lane at a time through reaches + the pair term,
// the loop every sub-group of fewer than eight lanes runs) is fed the same
// seeded random tiles as block_rounds (the short-range P-P Traits: four own
// lanes per masked vector op) and batch_rounds (the five SPH Traits:
// reach-compacted batches of four pairs), under Select and vISA at
// sub-group sizes 8-64.  Every live lane's sum must have the same bits (a
// NaN sum only has to stay NaN), every lane the same touched flag, and the
// tile the same interaction count.
//
// The P-P tiles mix clustered positions with pairs placed around 0.4999 box
// and box / 2 (the minimum-image wrap), coincident particles with distinct
// idx (r² = 0), pairs exactly at r_cut² and one ulp inside it, empty lanes
// holding garbage, diagonal tiles (each particle in both halves), culled
// lanes, zero masses, and inf / NaN coordinates.  The SPH tiles add random
// CRK coefficients, volumes and velocities, pairs at q exactly 1 and 2 and
// one ulp either side, coincident pairs, pairs whose kernel_w underflows to
// 0 while their reach test passes (Corrections and Extras must skip them,
// and their huge coefficients would turn a term that is not skipped into
// NaN), and velocity differences of ±0 (vdotx = ±0 in the viscosity).  The
// four-lane minimum image is also held to util::min_image on its own.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "gravity/poisson.hpp"
#include "gravity/pp_short.hpp"
#include "sph/acceleration.hpp"
#include "sph/corrections.hpp"
#include "sph/energy.hpp"
#include "sph/extras.hpp"
#include "sph/geometry.hpp"
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

// The seeded draws both tile makers share.
class Dice {
 protected:
  explicit Dice(std::uint64_t seed) : g_(seed) {}

  double unit() { return double(g_() >> 11) * 0x1p-53; }
  float signed_unit() { return static_cast<float>(2.0 * unit() - 1.0); }
  int below(int n) { return static_cast<int>(g_() % static_cast<std::uint64_t>(n)); }

  // Near a face a third of the time, else anywhere in the box.
  float coordinate(float box) {
    switch (below(3)) {
      case 0: return static_cast<float>(1e-3 * box * unit());
      case 1: return static_cast<float>(box * (1.0 - 1e-3 * unit()));
      default: return static_cast<float>(box * unit());
    }
  }

  float special() {
    switch (below(3)) {
      case 0: return kInf;
      case 1: return -kInf;
      default: return kNaN;
    }
  }

 private:
  std::mt19937_64 g_;
};

class Tiles : Dice {
 public:
  explicit Tiles(std::uint64_t seed) : Dice(seed) {}

  // A random tile of `sg_size` lanes in `t.mine` and `t.live`, its sums +0
  // and untouched.
  void fill(int sg_size, Registers& t) {
    const int H = sg_size / 2;
    t = Registers{};
    const bool diagonal = below(4) == 0;
    const float centre[3] = {coordinate(kBox), coordinate(kBox), coordinate(kBox)};
    const float spread = below(2) == 0 ? kRcut : 0.5f * kBox;
    for (int l = 0; l < sg_size; ++l) {
      GravState& s = t.mine[l];
      if (diagonal && l >= H) {
        s = t.mine[l - H];  // the same particle, idx included
        continue;
      }
      if (below(10) == 0) {  // an empty lane; load_tile zeroes it, garbage here
        s = {coordinate(kBox), kNaN, coordinate(kBox), 1.f, static_cast<std::int32_t>(l), 0};
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


// ---- The five SPH Traits: reach-compacted batches ----

static_assert(BatchTraits<GeometryTraits> && BatchTraits<CorrectionsTraits> &&
              BatchTraits<ExtrasTraits> && BatchTraits<AccelerationTraits> &&
              BatchTraits<EnergyTraits>);
static_assert(!BatchTraits<GravityTraits>);

// h of every lane of an underflow tile, and the separation at q = 2 - 2^-23
// from it: exact floats whose squared separation rounds so that norm()
// returns the separation again.  kernel_w there is sigma / 4 * t^3 with
// t = 2^-23 and sigma = 1 / (pi h^3), below the smallest float.
constexpr float kHugeH = 0x1p30f;
constexpr float kUnderflowOffset = 0x1p31f - 128.f;
constexpr float kHugeBox = 0x1p40f;

// Random full hydro states, copied into each kernel's lane state.
class HydroTiles : Dice {
 public:
  explicit HydroTiles(std::uint64_t seed) : Dice(seed) {}

  // A random tile of `sg_size` lanes and the box its terms wrap in.
  float fill(int sg_size, xsycl::Varying<HydroState>& mine, xsycl::Varying<bool>& live) {
    const int H = sg_size / 2;
    const bool diagonal = below(4) == 0;
    const bool underflow = below(8) == 0;
    const float box = underflow ? kHugeBox : 1.0f;
    // An underflow tile sits within h of the origin along x and spreads far
    // beyond 2h along y and z, so that few pairs but the placed ones reach.
    const float scale[3] = {underflow ? kHugeH : box, underflow ? 0x1p36f : box,
                            underflow ? 0x1p36f : box};
    const float centre[3] = {underflow ? 0.f : coordinate(box),
                             underflow ? 0.f : coordinate(box),
                             underflow ? 0.f : coordinate(box)};
    const float spread = below(2) == 0 ? 0.15f : 0.5f;
    for (int l = 0; l < sg_size; ++l) {
      HydroState& s = mine[l];
      if (diagonal && l >= H) {
        s = mine[l - H];  // the same particle, idx included
        continue;
      }
      if (below(10) == 0) {  // an empty lane; load_tile zeroes it, garbage here
        s = random_state(l);
        s.px = kNaN;
        s.valid = 0;
        continue;
      }
      s = random_state(l);
      s.px = centre[0] + spread * scale[0] * signed_unit();
      s.py = centre[1] + spread * scale[1] * signed_unit();
      s.pz = centre[2] + spread * scale[2] * signed_unit();
      if (underflow) s.h = kHugeH;
      if (l >= H) place_against(mine[below(H)], s, box, underflow);
      if (below(40) == 0) s.px = special();
    }
    for (int l = 0; l < sg_size; ++l) {
      const bool upper_on_diagonal = diagonal && l >= H;
      live[l] = mine[l].valid && !upper_on_diagonal && below(10) != 0;
    }
    return box;
  }

 private:
  HydroState random_state(int lane) {
    HydroState s{};
    s.h = below(3) == 0 ? 0.0625f : static_cast<float>(0.03 + 0.07 * unit());
    s.mass = below(16) == 0 ? 0.f : static_cast<float>(0.5 + unit());
    s.V = below(32) == 0 ? kInf : static_cast<float>(1e-3 * (0.5 + unit()));
    const bool still = below(4) == 0;  // velocity components ±0
    for (float* v : {&s.vx, &s.vy, &s.vz}) {
      *v = still ? (below(2) == 0 ? 0.f : -0.f) : signed_unit();
    }
    s.rho = static_cast<float>(0.5 + unit());
    s.P = static_cast<float>(unit());
    s.cs = static_cast<float>(0.1 + unit());
    for (float& c : s.crk) c = 4.f * signed_unit();
    s.crk[core::crk_idx::kA] = static_cast<float>(0.5 + 1.5 * unit());
    if (below(16) == 0) s.crk[core::crk_idx::kA] = 1e30f;  // A (1 + B·x) overflows
    s.idx = 1000 + lane;
    s.valid = 1;
    return s;
  }

  // Sometimes puts `s` at an edge case relative to the lower lane `p`.
  void place_against(HydroState& p, HydroState& s, float box, bool underflow) {
    if (!p.valid || !std::isfinite(p.px)) return;
    s.py = p.py;
    s.pz = p.pz;
    if (underflow) {
      // q = 2 - 2^-23: the reach test passes and kernel_w underflows.  On a
      // grid of 128 below 2^31, both positions and the offset are exact.
      p.px = std::round(p.px / 128.f) * 128.f;
      s.px = p.px + (p.px < 0.f ? kUnderflowOffset : -kUnderflowOffset);
      // Huge coefficients and volumes: a term that is not skipped is NaN.
      s.crk[core::crk_idx::kA] = 1e30f;
      s.crk[core::crk_idx::kB] = 1e10f;
      s.V = kInf;
      return;
    }
    switch (below(6)) {
      case 0:
      case 1: {
        // q = 1 or 2 exactly: h and positions on a grid of 2^-8, where the
        // separation and its norm are exact.
        s.h = p.h = 0.0625f;
        float off = below(2) == 0 ? p.h : 2.f * p.h;
        switch (below(3)) {  // the value, or one ulp either side
          case 0: off = std::nextafter(off, 0.f); break;
          case 1: off = std::nextafter(off, box); break;
          default: break;
        }
        p.px = std::round(p.px * 256.f) / 256.f;
        s.px = p.px + (below(2) == 0 ? off : -off);
        break;
      }
      case 2: {  // around the min-image identity bound and box / 2
        float off = below(2) == 0 ? 0.4999f * box : 0.5f * box;
        if (below(2) == 0) off = std::nextafter(off, below(2) == 0 ? 0.f : box);
        s.px = p.px + off;
        break;
      }
      case 3:  // coincident, distinct idx: r = 0
        s.px = p.px;
        break;
      default:
        s.py = p.py + 0.1f * signed_unit();
        s.pz = p.pz + 0.1f * signed_unit();
        break;
    }
  }

};

// The kernel's lane state with the members of a full hydro state.
template <typename State>
State narrow(const HydroState& h) {
  if constexpr (std::is_same_v<State, HydroState>) {
    return h;
  } else {
    State s{};
    s.px = h.px;
    s.py = h.py;
    s.pz = h.pz;
    s.h = h.h;
    if constexpr (requires { s.V; }) s.V = h.V;
    s.idx = h.idx;
    s.valid = h.valid;
    return s;
  }
}

// An accumulator's words.
template <typename Accum>
std::array<float, sizeof(Accum) / sizeof(float)> words(const Accum& a) {
  std::array<float, sizeof(Accum) / sizeof(float)> w;
  std::memcpy(w.data(), &a, sizeof(Accum));
  return w;
}

struct BatchTally {
  int reached = 0;     // live lanes some term reached
  int non_finite = 0;  // of them, lanes with a non-finite sum word
  int underflows = 0;  // reaching pairs whose kernel_w is 0
};

// batch_rounds against lane_rounds for one Traits over `tiles` random tiles.
template <typename Traits>
BatchTally check_batches(Traits traits, xsycl::CommVariant variant, int sg_size,
                         std::uint64_t seed) {
  using State = typename Traits::State;
  HydroTiles tiles(seed);
  BatchTally tally;
  xsycl::Varying<HydroState> hydro;
  TileRegisters<Traits> scalar;
  TileRegisters<Traits> vector;
  for (int tile = 0; tile < 1500; ++tile) {
    scalar = TileRegisters<Traits>{};
    traits.box = tiles.fill(sg_size, hydro, scalar.live);
    for (int l = 0; l < sg_size; ++l) scalar.mine[l] = narrow<State>(hydro[l]);
    vector = scalar;
    lane_rounds(traits, variant, sg_size, scalar);
    batch_rounds(traits, variant, sg_size, vector);

    EXPECT_EQ(vector.interactions, scalar.interactions) << "tile " << tile;
    bool same = vector.interactions == scalar.interactions;
    for (int l = 0; l < sg_size; ++l) {
      EXPECT_EQ(vector.touched[l], scalar.touched[l]) << "tile " << tile << " lane " << l;
      same = same && vector.touched[l] == scalar.touched[l];
      if (!scalar.live[l]) continue;
      const auto a = words(scalar.acc[l]);
      const auto b = words(vector.acc[l]);
      for (std::size_t w = 0; w < a.size(); ++w) {
        const auto agree = same_sum(b[w], a[w]);
        EXPECT_TRUE(agree) << "tile " << tile << " lane " << l << " word " << w;
        same = same && agree;
      }
      if (!same) return tally;  // one tile's mismatches are enough to read
      if (!scalar.touched[l]) continue;
      ++tally.reached;
      tally.non_finite += std::all_of(a.begin(), a.end(), [](float x) { return std::isfinite(x); })
                              ? 0
                              : 1;
      for (int r = 0; r < sg_size / 2; ++r) {
        const State& other = scalar.mine[xsycl::partner_lane(variant, l, r, sg_size)];
        const State& own = scalar.mine[l];
        if (other.valid && other.idx != own.idx && traits.reaches(own, other) &&
            kernel_w(norm(separation(own, other, traits.box)), own.h) == 0.f) {
          ++tally.underflows;
        }
      }
    }
  }
  return tally;
}

// The skip the scalar code made with `if (w == 0) return` survives as a
// select: a pair that reaches but whose kernel_w underflows adds +0 to
// every word of a Corrections or Extras sum, in one lane and in four, even
// where the rest of its term is NaN (inf volume times W = 0, huge
// coefficients times W = 0).
TEST(SphTerms, UnderflowingKernelAddsNothing) {
  HydroState own{};
  own.h = kHugeH;
  own.crk[core::crk_idx::kA] = 1e30f;
  own.crk[core::crk_idx::kB] = 1e10f;
  own.idx = 1;
  own.valid = 1;
  HydroState other = own;
  other.px = -kUnderflowOffset;
  other.V = kInf;
  other.mass = 1.f;
  other.vx = 1.f;
  other.idx = 2;
  ASSERT_TRUE(reaches_own_support(own, other, kHugeBox));
  ASSERT_EQ(kernel_w(norm(separation(own, other, kHugeBox)), own.h), 0.f);

  const CorState own_c = narrow<CorState>(own);
  const CorState other_c = narrow<CorState>(other);
  const CorrectionsTraits cor{nullptr, nullptr, kHugeBox};
  const ExtrasTraits ex{nullptr, nullptr, nullptr, kHugeBox};
  const auto all_plus_zero = [](const auto& accum) {
    const auto w = words(accum);
    return std::all_of(w.begin(), w.end(), [](float x) { return bits(x) == 0u; });
  };
  CrkMoments<float> m;
  m.add(cor.term(own_c, other_c));
  EXPECT_TRUE(all_plus_zero(m));
  ExtrasTerm<float> e;
  e.add(ex.term(own, other));
  EXPECT_TRUE(all_plus_zero(e));

  const auto m4 = cor.term(Gather4<CorState>{{&own_c, &own_c, &own_c, &own_c}},
                           Gather4<CorState>{{&other_c, &other_c, &other_c, &other_c}});
  const auto e4 = ex.term(Gather4<HydroState>{{&own, &own, &own, &own}},
                          Gather4<HydroState>{{&other, &other, &other, &other}});
  for (int k = 0; k < kBlockLanes; ++k) {
    CrkMoments<float> mk;
    mk.add(m4, k);
    EXPECT_TRUE(all_plus_zero(mk)) << "lane " << k;
    ExtrasTerm<float> ek;
    ek.add(e4, k);
    EXPECT_TRUE(all_plus_zero(ek)) << "lane " << k;
  }
}

class SphBatches : public ::testing::TestWithParam<Param> {};

TEST_P(SphBatches, MatchTheScalarLaneLoopBitwise) {
  const auto [variant, sg_size] = GetParam();
  const std::uint64_t seed = 0xba7c0000u + 97u * static_cast<unsigned>(variant) +
                             static_cast<unsigned>(sg_size);
  // The tiles exercised reached sums, poisoned ones (Geometry reads no
  // volume or coefficient that could poison it), and, for the own-support
  // kernels, pairs whose kernel_w underflows.
  const auto expect_exercised = [](const BatchTally& t, bool poisoned, bool underflows) {
    EXPECT_GT(t.reached, 500);
    if (poisoned) {
      EXPECT_GT(t.non_finite, 10);
    }
    if (underflows) {
      EXPECT_GT(t.underflows, 10);
    }
  };
  {
    SCOPED_TRACE("Geometry");
    expect_exercised(check_batches(GeometryTraits{}, variant, sg_size, seed), false, true);
  }
  {
    SCOPED_TRACE("Corrections");
    expect_exercised(check_batches(CorrectionsTraits{}, variant, sg_size, seed + 1), true,
                     true);
  }
  {
    SCOPED_TRACE("Extras");
    expect_exercised(check_batches(ExtrasTraits{}, variant, sg_size, seed + 2), true, true);
  }
  {
    SCOPED_TRACE("Acceleration");
    expect_exercised(check_batches(AccelerationTraits{}, variant, sg_size, seed + 3), true,
                     false);
  }
  {
    SCOPED_TRACE("Energy");
    expect_exercised(check_batches(EnergyTraits{}, variant, sg_size, seed + 4), true, false);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SelectAndVisa, SphBatches,
    ::testing::Combine(::testing::Values(xsycl::CommVariant::kSelect,
                                         xsycl::CommVariant::kVISA),
                       ::testing::Values(8, 16, 32, 64)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(xsycl::to_string(std::get<0>(info.param))) + "_sg" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace hacc::sph
