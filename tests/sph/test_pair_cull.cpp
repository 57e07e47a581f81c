// The pair harness's per-lane bounds cull must be exact: whenever it culls a
// lane, that lane's own particle reaches no member of the other half-tile.
// Random own particles are tested against random half-tiles of 1-32
// members, clustered near the periodic faces so that the minimum image
// matters, with h spread over three decades plus 0, denormal, negative, inf
// and NaN, and with occasional NaN positions.  Each of the three radius
// rules (own support, pair support, P-P cutoff) is checked through the
// kernels' own Traits.  The charge-only commit path must also charge exactly
// what commit() charges, for all six Traits.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "gravity/pp_short.hpp"
#include "sph/acceleration.hpp"
#include "sph/corrections.hpp"
#include "sph/energy.hpp"
#include "sph/extras.hpp"
#include "sph/geometry.hpp"

namespace hacc::sph {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

struct Point {
  float x, y, z, h;
};

class Scenarios {
 public:
  explicit Scenarios(std::uint64_t seed) : g_(seed) {}

  double uniform() { return double(g_() >> 11) * 0x1p-53; }
  int below(int n) { return static_cast<int>(g_() % static_cast<std::uint64_t>(n)); }

  // h spread over three decades below h0, plus the special values.
  float smoothing(float h0) {
    switch (below(48)) {
      case 0: return 0.f;
      case 1: return -0.f;
      case 2: return 1e-40f;  // denormal
      case 3: return kInf;
      case 4: return kNaN;
      case 5: return -h0;
      default: return static_cast<float>(h0 * std::pow(10.0, -3.0 * uniform()));
    }
  }

  // A coordinate within 1e-3 box of a face a third of the time each side.
  double coordinate(double box) {
    switch (below(3)) {
      case 0: return 1e-3 * box * uniform();
      case 1: return box * (1.0 - 1e-3 * uniform());
      default: return box * uniform();
    }
  }

  // Wraps into [0, box), as the simulation keeps positions.
  static float wrap(double c, double box) {
    double w = std::fmod(c, box);
    if (w < 0.0) w += box;
    const auto f = static_cast<float>(w);
    return f < static_cast<float>(box) ? f : 0.f;
  }

 private:
  std::mt19937_64 g_;
};

template <typename State>
State as_state(const Point& p, std::int32_t idx) {
  State s{};
  s.px = p.x;
  s.py = p.y;
  s.pz = p.z;
  if constexpr (requires { s.h; }) s.h = p.h;
  s.idx = idx;
  s.valid = 1;
  return s;
}

struct CullStats {
  int scenarios = 0;
  int culled = 0;
};

// Checks one radius rule on one scenario: a half-tile of 32 lanes whose
// first n are valid.
template <typename Traits>
void check_rule(const Traits& traits, const Point& own_p,
                const std::vector<Point>& members, double box, CullStats& stats) {
  using State = typename Traits::State;
  std::vector<State> lanes(32, State{});
  for (std::size_t k = 0; k < members.size(); ++k) {
    lanes[k] = as_state<State>(members[k], static_cast<std::int32_t>(k + 1));
  }
  const State own = as_state<State>(own_p, 0);
  const HalfTileBounds bounds = half_tile_bounds(lanes.data(), 32);
  ASSERT_EQ(bounds.n_valid, static_cast<int>(members.size()));
  ++stats.scenarios;
  if (!beyond_reach(own, bounds, traits.reach_radius(own, bounds.hmax), box)) return;
  ++stats.culled;
  for (std::size_t k = 0; k < members.size(); ++k) {
    ASSERT_FALSE(traits.reaches(own, lanes[k]))
        << "culled lane reaches member " << k << " of " << members.size()
        << ": own (" << own_p.x << ", " << own_p.y << ", " << own_p.z << ") h "
        << own_p.h << ", member (" << members[k].x << ", " << members[k].y << ", "
        << members[k].z << ") h " << members[k].h << ", box " << box;
  }
}

TEST(PairCull, CulledLanesReachNoMember) {
  Scenarios rng(20240611);
  CullStats own_support, pair_support, pp;
  for (int trial = 0; trial < 100000; ++trial) {
    const double box = rng.below(2) == 0 ? 1.0 : 64.0;
    const float h0 = static_cast<float>(box / 40.0);
    const double r_cut = box / 16.0;

    // A cluster of 1-32 members around a centre that often sits near a face;
    // a quarter of the clusters collapse to one point, with the own particle
    // within float rounding of a reach radius.
    const bool edge = rng.below(4) == 0;
    const double c[3] = {rng.coordinate(box), rng.coordinate(box), rng.coordinate(box)};
    const double spread = edge ? 0.0 : box * std::pow(10.0, -4.0 + 2.7 * rng.uniform());
    std::vector<Point> members(1 + rng.below(32));
    for (Point& m : members) {
      m.x = Scenarios::wrap(c[0] + spread * (2.0 * rng.uniform() - 1.0), box);
      m.y = Scenarios::wrap(c[1] + spread * (2.0 * rng.uniform() - 1.0), box);
      m.z = Scenarios::wrap(c[2] + spread * (2.0 * rng.uniform() - 1.0), box);
      m.h = rng.smoothing(h0);
      if (rng.below(200) == 0) m.y = kNaN;
    }

    // The own particle sits near the edge of one of the reach radii, on a
    // random direction from the centre (wrapping across faces), or anywhere.
    Point own;
    own.h = rng.smoothing(h0);
    const double scale = rng.below(2) == 0 ? r_cut : 2.0 * std::fabs(double(own.h));
    const double reach = std::isfinite(scale) ? scale : h0;
    const double dist =
        edge ? reach * (1.0 + 2e-5 * (2.0 * rng.uniform() - 1.0))
        : rng.below(4) == 0
            ? 0.5 * box * rng.uniform()
            : spread * std::sqrt(3.0) + reach * (0.95 + 0.1 * rng.uniform());
    double dir[3];
    double norm2 = 0.0;
    do {
      norm2 = 0.0;
      for (double& d : dir) {
        d = 2.0 * rng.uniform() - 1.0;
        norm2 += d * d;
      }
    } while (norm2 < 1e-6 || norm2 > 1.0);
    const double inv = 1.0 / std::sqrt(norm2);
    own.x = Scenarios::wrap(c[0] + dist * dir[0] * inv, box);
    own.y = Scenarios::wrap(c[1] + dist * dir[1] * inv, box);
    own.z = Scenarios::wrap(c[2] + dist * dir[2] * inv, box);
    if (rng.below(200) == 0) own.z = kNaN;

    const auto fbox = static_cast<float>(box);
    check_rule(GeometryTraits{nullptr, nullptr, fbox}, own, members, box, own_support);
    check_rule(AccelerationTraits{nullptr, nullptr, nullptr, nullptr, nullptr, fbox, {}},
               own, members, box, pair_support);
    gravity::GravityTraits grav{};
    grav.box = fbox;
    grav.rcut2 = static_cast<float>(r_cut * r_cut);
    check_rule(grav, own, members, box, pp);
    if (HasFatalFailure()) return;
  }
  // Not vacuous: every rule culls often, and also keeps many lanes live.
  for (const CullStats* s : {&own_support, &pair_support, &pp}) {
    EXPECT_GT(s->culled, s->scenarios / 10);
    EXPECT_LT(s->culled, s->scenarios * 9 / 10);
  }
}

TEST(PairCull, NonFiniteOrNonPositiveInputsKeepTheLaneLive) {
  const GeoState member{0.5f, 0.5f, 0.5f, 0.01f, 1, 1};
  const HalfTileBounds bounds = half_tile_bounds(&member, 1);
  const GeoState far{0.1f, 0.1f, 0.1f, 0.01f, 0, 1};
  ASSERT_TRUE(beyond_reach(far, bounds, 0.02, 1.0));
  EXPECT_FALSE(beyond_reach(far, bounds, 0.0, 1.0));
  EXPECT_FALSE(beyond_reach(far, bounds, -0.02, 1.0));
  EXPECT_FALSE(beyond_reach(far, bounds, double(kNaN), 1.0));
  EXPECT_FALSE(beyond_reach(far, bounds, double(kInf), 1.0));
  GeoState bad = far;
  bad.h = kNaN;
  EXPECT_FALSE(beyond_reach(bad, bounds, 0.02, 1.0));
  bad = far;
  bad.px = kInf;
  EXPECT_FALSE(beyond_reach(bad, bounds, 0.02, 1.0));
  GeoState bad_member = member;
  bad_member.h = kInf;
  EXPECT_FALSE(beyond_reach(far, half_tile_bounds(&bad_member, 1), 0.02, 1.0));
}

TEST(PairCull, BoxDistanceWrapsThePeriodicFaces) {
  const GeoState members[2] = {{0.999f, 0.5f, 0.5f, 0.01f, 1, 1},
                               {0.998f, 0.5f, 0.5f, 0.01f, 2, 1}};
  const HalfTileBounds bounds = half_tile_bounds(members, 2);
  const GeoState across{0.004f, 0.5f, 0.5f, 0.01f, 0, 1};  // 0.005 away via the face
  EXPECT_FALSE(beyond_reach(across, bounds, 0.01, 1.0));
  EXPECT_TRUE(beyond_reach(across, bounds, 0.004, 1.0));
}

// ---- Charge-only commits ----

template <typename Traits>
void expect_charge_matches_commit(const Traits& traits) {
  xsycl::OpCounters committed, charged;
  xsycl::SubGroup sg(16, 0, {}, committed);
  traits.commit(sg, 0, typename Traits::Accum{});
  Traits::charge_commit(charged);
  EXPECT_EQ(committed, charged);
  EXPECT_GT(committed.atomic_f32_add, 0u);
}

TEST(PairCull, ChargeCommitEqualsCommitCounters) {
  core::ParticleSet p;
  p.resize(1);
  expect_charge_matches_commit(GeometryTraits{&p, p.m0.data(), 1.f});
  expect_charge_matches_commit(CorrectionsTraits{&p, p.moments.data(), 1.f});
  expect_charge_matches_commit(ExtrasTraits{&p, p.rho.data(), p.dvel.data(), 1.f});
  expect_charge_matches_commit(AccelerationTraits{
      &p, p.ax.data(), p.ay.data(), p.az.data(), p.vsig.data(), 1.f, {}});
  expect_charge_matches_commit(EnergyTraits{&p, p.du.data(), 1.f, {}});
  float ax = 0.f, ay = 0.f, az = 0.f;
  gravity::GravityTraits grav{};
  grav.arrays.ax = &ax;
  grav.arrays.ay = &ay;
  grav.arrays.az = &az;
  expect_charge_matches_commit(grav);
}

}  // namespace
}  // namespace hacc::sph
