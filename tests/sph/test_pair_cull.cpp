// The pair harness's per-lane bounds cull must be exact: whenever it culls a
// lane, that lane's own particle reaches no member of the other half-tile,
// and under the P-P cutoff no member reaches it either (the vector blocks
// skip both directions of a pair with a culled lane).
// Random own particles are tested against random half-tiles of 1-32
// members, clustered near the periodic faces so that the minimum image
// matters, with h spread over three decades plus 0, denormal, negative, inf
// and NaN, and with occasional NaN positions.  Each of the three radius
// rules (own support, pair support, P-P cutoff) is checked through the
// kernels' own Traits, both for the scalar cull and for the harness's
// four-lane float cull (cull_tile).  The four-lane cull must cull only
// lanes the scalar one culls, over the same scenarios and lanes outside the
// box, non-finite inputs and radii, empty half-tiles and invalid boxes, and
// keep at most 0.5% of the lanes the scalar one culls.
//
// The tile-pair cull must be exact too: whenever tiles_apart skips a pair of
// random tiles at the radius the harness uses (tile_pair_reach), no member
// of either reaches a member of the other, for all six Traits; a launch
// whose tile pairs are all skipped charges exactly the counters of the full
// path, for every variant.  Commits add plainly under a leaf's flag: the
// charge of a commit must count exactly the words commit() adds, and sums
// committed at 8 threads into one contended leaf must match one thread.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <random>
#include <span>
#include <type_traits>
#include <vector>

#include "gas_fixture.hpp"
#include "gravity/poisson.hpp"
#include "gravity/pp_short.hpp"
#include "sph/acceleration.hpp"
#include "sph/corrections.hpp"
#include "sph/energy.hpp"
#include "sph/extras.hpp"
#include "sph/geometry.hpp"
#include "tree/rcb.hpp"
#include "util/thread_pool.hpp"
#include "xsycl/queue.hpp"

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
  int culled4 = 0;  // by the four-lane cull
};

// Whether the harness's four-lane cull culls `own` against `members`: own
// in lane 0 of a sub-group of 8, its only active lane.
template <typename Traits>
bool tile_culls(const Traits& traits, const typename Traits::State& own,
                const HalfTileBounds& members) {
  constexpr int kSg = 8;
  TileRegisters<Traits> t;
  xsycl::Varying<bool> active(false);
  active[0] = true;
  for (int l = 0; l < kSg; ++l) t.mine[l] = own;
  const HalfTileBounds own_bounds = half_tile_bounds(&own, 1);
  const HalfTileBounds* half[2] = {&own_bounds, &members};
  cull_tile(traits, kSg, half, /*diagonal=*/false, active,
            [&](int l0) { return lane_positions4(t.mine, l0, l0); }, t);
  return !t.live[0];
}

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
  const bool culled = beyond_reach(own, bounds, traits.reach_radius(own, bounds.hmax), box);
  const bool culled4 = tile_culls(traits, own, bounds);
  stats.culled += culled ? 1 : 0;
  stats.culled4 += culled4 ? 1 : 0;
  if (!culled && !culled4) return;
  for (std::size_t k = 0; k < members.size(); ++k) {
    // The P-P reach is the same both ways, which block_rounds relies on.
    bool reverse = false;
    if constexpr (std::is_same_v<Traits, gravity::GravityTraits>) {
      reverse = traits.reaches(lanes[k], own);
    }
    ASSERT_FALSE(traits.reaches(own, lanes[k]) || reverse)
        << (culled4 ? "four-lane " : "scalar ")
        << (reverse ? "member " : "culled lane reaches member ") << k << " of "
        << members.size() << (reverse ? " reaches the culled lane" : "") << ": own ("
        << own_p.x << ", " << own_p.y << ", " << own_p.z << ") h " << own_p.h
        << ", member (" << members[k].x << ", " << members[k].y << ", " << members[k].z
        << ") h " << members[k].h << ", box " << box;
  }
}

// One cull scenario: a half-tile of 1-32 members and an own particle.
struct CullScenario {
  double box = 1.0;
  double r_cut = 0.0;
  float h0 = 0.f;
  std::vector<Point> members;
  Point own;
};

CullScenario make_scenario(Scenarios& rng) {
  CullScenario sc;
  const double box = sc.box = rng.below(2) == 0 ? 1.0 : 64.0;
  const float h0 = sc.h0 = static_cast<float>(box / 40.0);
  const double r_cut = sc.r_cut = box / 16.0;

  // A cluster of 1-32 members around a centre that often sits near a face;
  // a quarter of the clusters collapse to one point, with the own particle
  // within float rounding of a reach radius.
  const bool edge = rng.below(4) == 0;
  const double c[3] = {rng.coordinate(box), rng.coordinate(box), rng.coordinate(box)};
  const double spread = edge ? 0.0 : box * std::pow(10.0, -4.0 + 2.7 * rng.uniform());
  std::vector<Point>& members = sc.members;
  members.resize(1 + rng.below(32));
  for (Point& m : members) {
    m.x = Scenarios::wrap(c[0] + spread * (2.0 * rng.uniform() - 1.0), box);
    m.y = Scenarios::wrap(c[1] + spread * (2.0 * rng.uniform() - 1.0), box);
    m.z = Scenarios::wrap(c[2] + spread * (2.0 * rng.uniform() - 1.0), box);
    m.h = rng.smoothing(h0);
    if (rng.below(200) == 0) m.y = kNaN;
  }

  // The own particle sits near the edge of one of the reach radii, on a
  // random direction from the centre (wrapping across faces), or anywhere.
  Point& own = sc.own;
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
  return sc;
}

TEST(PairCull, CulledLanesReachNoMember) {
  Scenarios rng(20240611);
  CullStats own_support, pair_support, pp;
  for (int trial = 0; trial < 100000; ++trial) {
    const CullScenario sc = make_scenario(rng);
    const double box = sc.box;
    const auto fbox = static_cast<float>(box);
    check_rule(GeometryTraits{nullptr, nullptr, fbox}, sc.own, sc.members, box, own_support);
    check_rule(AccelerationTraits{nullptr, nullptr, nullptr, nullptr, nullptr, fbox, {}},
               sc.own, sc.members, box, pair_support);
    gravity::GravityTraits grav{};
    grav.box = fbox;
    grav.rcut2 = static_cast<float>(sc.r_cut * sc.r_cut);
    check_rule(grav, sc.own, sc.members, box, pp);
    if (HasFatalFailure()) return;
  }
  // Not vacuous: every rule culls often, and also keeps many lanes live.
  for (const CullStats* s : {&own_support, &pair_support, &pp}) {
    EXPECT_GT(s->culled, s->scenarios / 10);
    EXPECT_LT(s->culled, s->scenarios * 9 / 10);
    EXPECT_GT(s->culled4, s->scenarios / 10);
  }
}

// A lane of a four-lane cull test: the scenario's own particle, another
// scenario's, one moved whole boxes out of [0, box) (periodic_gap's fmod
// wrap), or one with a NaN or inf coordinate or h.
Point draw_lane(Scenarios& rng, const CullScenario& sc, const std::vector<Point>& earlier,
                bool& outside) {
  Point p = sc.own;
  outside = false;
  switch (rng.below(4)) {
    case 0:
      if (!earlier.empty()) p = earlier[static_cast<std::size_t>(rng.below(static_cast<int>(earlier.size())))];
      break;
    case 1: {
      static constexpr double kShifts[] = {-1.0, 1.0, -3.0, 2.0, 1e3, -1e6};
      float& c = rng.below(3) == 0 ? p.x : rng.below(2) == 0 ? p.y : p.z;
      c = static_cast<float>(c + kShifts[rng.below(6)] * sc.box);
      outside = std::isfinite(c) && !(c >= 0.f && c < static_cast<float>(sc.box));
      break;
    }
    case 2: {
      const float special = rng.below(3) == 0 ? kNaN : rng.below(2) == 0 ? kInf : -kInf;
      switch (rng.below(4)) {
        case 0: p.x = special; break;
        case 1: p.y = special; break;
        case 2: p.z = special; break;
        default: p.h = special; break;
      }
      break;
    }
    default:
      break;
  }
  return p;
}

TEST(PairCull, FourLaneCullIsSubsetOfScalar) {
  Scenarios rng(20261020);
  std::vector<Point> earlier;  // own particles of earlier scenarios
  int culled = 0, kept = 0, outside_culled = 0, outside_kept = 0;
  int kept4 = 0;  // lanes the scalar test culls and the four-lane one keeps
  for (int trial = 0; trial < 50000; ++trial) {
    CullScenario sc = make_scenario(rng);
    if (rng.below(50) == 0) sc.members.clear();  // n_valid == 0
    std::vector<GeoState> members(32, GeoState{});
    for (std::size_t k = 0; k < sc.members.size(); ++k) {
      members[k] = as_state<GeoState>(sc.members[k], static_cast<std::int32_t>(k + 1));
    }
    const HalfTileBounds bounds = half_tile_bounds(members.data(), 32);
    double box = sc.box;
    switch (rng.below(100)) {
      case 0: box = 0.0; break;
      case 1: box = -sc.box; break;
      case 2: box = double(kNaN); break;
      case 3: box = double(kInf); break;
      default: break;
    }

    GeoState lanes[kBlockLanes];
    bool outside[kBlockLanes];
    for (int k = 0; k < kBlockLanes; ++k) {
      lanes[k] = as_state<GeoState>(draw_lane(rng, sc, earlier, outside[k]), 0);
    }
    // Each lane's radius by one of the three rules, or not positive or not
    // finite.
    const auto fbox = static_cast<float>(sc.box);
    const GeometryTraits own_support{nullptr, nullptr, fbox};
    const AccelerationTraits pair_support{nullptr, nullptr, nullptr, nullptr, nullptr, fbox, {}};
    double radius[kBlockLanes];
    for (int k = 0; k < kBlockLanes; ++k) {
      switch (rng.below(10)) {
        case 0: radius[k] = 0.0; break;
        case 1: radius[k] = -sc.r_cut; break;
        case 2: radius[k] = double(kNaN); break;
        case 3: radius[k] = double(kInf); break;
        case 4:
        case 5: radius[k] = own_support.reach_radius(lanes[k], bounds.hmax); break;
        case 6:
        case 7:
          radius[k] = pair_support.reach_radius(with_h<HydroState>(lanes[k].h), bounds.hmax);
          break;
        default: radius[k] = sc.r_cut; break;
      }
    }

    const LanePositions4 positions{Floats4([&](auto k) { return lanes[k].px; }),
                                   Floats4([&](auto k) { return lanes[k].py; }),
                                   Floats4([&](auto k) { return lanes[k].pz; }),
                                   Floats4([&](auto k) { return lanes[k].h; })};
    const unsigned bits =
        box_cull4(positions, Floats4([&](auto k) { return static_cast<float>(radius[k]); }),
                  bounds, box, [&](int k) { return radius[k]; });
    for (int k = 0; k < kBlockLanes; ++k) {
      const bool scalar = beyond_reach(lanes[k], bounds, radius[k], box);
      const bool four = (bits >> k & 1u) != 0;
      kept4 += scalar && !four ? 1 : 0;
      ASSERT_TRUE(scalar || !four)
          << "trial " << trial << " lane " << k << ": (" << lanes[k].px << ", "
          << lanes[k].py << ", " << lanes[k].pz << ") h " << lanes[k].h << ", radius "
          << radius[k] << ", box " << box << ", " << bounds.n_valid << " members";
      (scalar ? culled : kept) += 1;
      if (outside[k]) (scalar ? outside_culled : outside_kept) += 1;
    }
    earlier.push_back(sc.own);
    if (earlier.size() > 64) earlier.erase(earlier.begin());
  }
  // The float margin keeps few of the lanes the scalar test culls.
  std::printf("four-lane cull keeps %d of %d lanes the scalar cull culls\n", kept4, culled);
  EXPECT_LE(kept4, culled / 200);
  // Not vacuous: lanes are culled and kept, inside the box and outside it.
  EXPECT_GT(culled, 20000);
  EXPECT_GT(kept, 20000);
  EXPECT_GT(outside_culled, 1000);
  EXPECT_GT(outside_kept, 1000);
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

// ---- Tile-pair cull ----

// A tile of 1-32 members clustered around `c` within `spread`, with h over
// three decades below h0; in a third of the tiles h is also drawn from the
// special values, and a coordinate is occasionally NaN.
std::vector<Point> make_tile(Scenarios& rng, const double c[3], double spread, double box,
                             float h0) {
  std::vector<Point> tile(1 + rng.below(32));
  const bool special = rng.below(3) == 0;
  for (Point& m : tile) {
    m.x = Scenarios::wrap(c[0] + spread * (2.0 * rng.uniform() - 1.0), box);
    m.y = Scenarios::wrap(c[1] + spread * (2.0 * rng.uniform() - 1.0), box);
    m.z = Scenarios::wrap(c[2] + spread * (2.0 * rng.uniform() - 1.0), box);
    m.h = special ? rng.smoothing(h0)
                  : static_cast<float>(h0 * std::pow(10.0, -3.0 * rng.uniform()));
    if (rng.below(300) == 0) m.x = kNaN;
  }
  return tile;
}

// Checks one Traits on one scenario: when tiles_apart skips the tile pair at
// the radius the harness uses, no member of either tile reaches one of the
// other.
template <typename Traits>
void check_tiles(const Traits& traits, const std::vector<Point>& a_pts,
                 const std::vector<Point>& b_pts, double box, CullStats& stats) {
  using State = typename Traits::State;
  std::vector<State> a, b;
  for (const Point& m : a_pts) a.push_back(as_state<State>(m, static_cast<std::int32_t>(a.size())));
  for (const Point& m : b_pts) {
    b.push_back(as_state<State>(m, static_cast<std::int32_t>(1000 + b.size())));
  }
  const HalfTileBounds ba = half_tile_bounds(a.data(), static_cast<int>(a.size()));
  const HalfTileBounds bb = half_tile_bounds(b.data(), static_cast<int>(b.size()));
  ++stats.scenarios;
  if (!tiles_apart(ba, bb, tile_pair_reach(traits, ba, bb), box)) return;
  ++stats.culled;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      ASSERT_FALSE(traits.reaches(a[i], b[j]) || traits.reaches(b[j], a[i]))
          << "skipped tile pair reaches: a[" << i << "] (" << a_pts[i].x << ", "
          << a_pts[i].y << ", " << a_pts[i].z << ") h " << a_pts[i].h << ", b[" << j
          << "] (" << b_pts[j].x << ", " << b_pts[j].y << ", " << b_pts[j].z << ") h "
          << b_pts[j].h << ", box " << box;
    }
  }
}

TEST(PairCull, TilesApartNeverSkipsAReachingPair) {
  Scenarios rng(20261019);
  CullStats own_support[3], pair_support[2], pp;
  for (int trial = 0; trial < 20000; ++trial) {
    const double box = rng.below(2) == 0 ? 1.0 : 64.0;
    const float h0 = static_cast<float>(box / 40.0);
    const double r_cut = box / 16.0;

    // Two clusters, often near a face; a quarter of them collapse to one
    // point each, within float rounding of a reach radius apart.
    const bool edge = rng.below(4) == 0;
    const double ca[3] = {rng.coordinate(box), rng.coordinate(box), rng.coordinate(box)};
    const double sa = edge ? 0.0 : box * std::pow(10.0, -4.0 + 2.7 * rng.uniform());
    const double sb = edge ? 0.0 : box * std::pow(10.0, -4.0 + 2.7 * rng.uniform());
    const double scale = rng.below(2) == 0 ? r_cut : 2.0 * h0 * rng.uniform();
    const double dist =
        edge ? scale * (1.0 + 2e-5 * (2.0 * rng.uniform() - 1.0))
        : rng.below(4) == 0
            ? 0.5 * box * rng.uniform()
            : (sa + sb) * std::sqrt(3.0) + scale * (0.9 + 0.2 * rng.uniform());
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
    const double cb[3] = {ca[0] + dist * dir[0] * inv, ca[1] + dist * dir[1] * inv,
                          ca[2] + dist * dir[2] * inv};
    std::vector<Point> a = make_tile(rng, ca, sa, box, h0);
    std::vector<Point> b = make_tile(rng, cb, sb, box, h0);

    const auto fbox = static_cast<float>(box);
    check_tiles(GeometryTraits{nullptr, nullptr, fbox}, a, b, box, own_support[0]);
    check_tiles(CorrectionsTraits{nullptr, nullptr, fbox}, a, b, box, own_support[1]);
    check_tiles(ExtrasTraits{nullptr, nullptr, nullptr, fbox}, a, b, box, own_support[2]);
    check_tiles(AccelerationTraits{nullptr, nullptr, nullptr, nullptr, nullptr, fbox, {}},
                a, b, box, pair_support[0]);
    check_tiles(EnergyTraits{nullptr, nullptr, fbox, {}}, a, b, box, pair_support[1]);
    gravity::GravityTraits grav{};
    grav.box = fbox;
    grav.rcut2 = static_cast<float>(r_cut * r_cut);
    check_tiles(grav, a, b, box, pp);
    if (HasFatalFailure()) return;
  }
  // Not vacuous: every rule skips often, and also keeps many pairs.
  for (const CullStats* s : {&own_support[0], &own_support[1], &own_support[2],
                             &pair_support[0], &pair_support[1], &pp}) {
    EXPECT_GT(s->culled, s->scenarios / 10);
    EXPECT_LT(s->culled, s->scenarios * 9 / 10);
  }
}

TEST(PairCull, TilesApartKeepsNonFiniteOrNonPositiveInputs) {
  const GeoState a_lanes[2] = {{0.1f, 0.1f, 0.1f, 0.01f, 0, 1}, {0.11f, 0.1f, 0.1f, 0.01f, 1, 1}};
  const GeoState b_lanes[2] = {{0.5f, 0.5f, 0.5f, 0.01f, 2, 1}, {0.5f, 0.51f, 0.5f, 0.01f, 3, 1}};
  const HalfTileBounds a = half_tile_bounds(a_lanes, 2);
  const HalfTileBounds b = half_tile_bounds(b_lanes, 2);
  ASSERT_TRUE(tiles_apart(a, b, 0.02, 1.0));
  ASSERT_TRUE(tiles_apart(b, a, 0.02, 1.0));
  EXPECT_FALSE(tiles_apart(a, b, 0.0, 1.0));
  EXPECT_FALSE(tiles_apart(a, b, -0.02, 1.0));
  EXPECT_FALSE(tiles_apart(a, b, double(kNaN), 1.0));
  EXPECT_FALSE(tiles_apart(a, b, double(kInf), 1.0));
  EXPECT_FALSE(tiles_apart(a, b, 0.02, double(kNaN)));
  GeoState bad[2] = {a_lanes[0], a_lanes[1]};
  bad[1].h = kNaN;
  EXPECT_FALSE(tiles_apart(half_tile_bounds(bad, 2), b, 0.02, 1.0));
  bad[1] = a_lanes[1];
  bad[1].pz = kInf;
  EXPECT_FALSE(tiles_apart(b, half_tile_bounds(bad, 2), 0.02, 1.0));

  // A member of zero or negative h makes the own-support radius not
  // positive, which keeps the pair.
  const GeometryTraits geo{nullptr, nullptr, 1.f};
  EXPECT_GT(tile_pair_reach(geo, a, b), 0.0);
  bad[1] = a_lanes[1];
  for (const float h : {0.f, -0.01f}) {
    bad[1].h = h;
    EXPECT_EQ(tile_pair_reach(geo, half_tile_bounds(bad, 2), b), 0.0) << h;
    EXPECT_EQ(tile_pair_reach(geo, b, half_tile_bounds(bad, 2)), 0.0) << h;
  }
}

TEST(PairCull, TilesApartWrapsThePeriodicFaces) {
  const GeoState high[2] = {{0.999f, 0.5f, 0.5f, 0.01f, 0, 1}, {0.998f, 0.52f, 0.5f, 0.01f, 1, 1}};
  const GeoState low[2] = {{0.004f, 0.5f, 0.5f, 0.01f, 2, 1}, {0.006f, 0.51f, 0.49f, 0.01f, 3, 1}};
  const HalfTileBounds a = half_tile_bounds(high, 2);
  const HalfTileBounds b = half_tile_bounds(low, 2);
  // 0.005 apart across the x face, nearly the whole box apart within it.
  for (const bool swap : {false, true}) {
    const HalfTileBounds& p = swap ? b : a;
    const HalfTileBounds& q = swap ? a : b;
    EXPECT_FALSE(tiles_apart(p, q, 0.01, 1.0)) << swap;
    EXPECT_TRUE(tiles_apart(p, q, 0.004, 1.0)) << swap;
  }
}

// A Traits whose radius keeps every tile pair and every lane live: the
// harness then runs the full path, and a pair that does not reach is
// dropped by `reaches` alone.
template <typename Traits>
struct Unculled : Traits {
  double reach_radius(const typename Traits::State&, float) const { return 0.0; }
};

// Three leaves of clusters far apart, of 40, 35 and 20 particles (full and
// partial tiles at every sub-group size), and every pair of them.
struct ApartLeaves {
  core::ParticleSet p;
  std::vector<tree::Leaf> leaves;
  std::vector<std::int32_t> order;
  std::vector<tree::LeafPair> pairs{{0, 1}, {0, 2}, {1, 2}};

  ApartLeaves() {
    const double centres[3][3] = {{0.1, 0.1, 0.1}, {0.5, 0.5, 0.5}, {0.8, 0.2, 0.6}};
    const int counts[3] = {40, 35, 20};
    p.resize(95);
    Scenarios rng(7);
    std::int32_t i = 0;
    for (int l = 0; l < 3; ++l) {
      leaves.push_back({i, i + counts[l], {}, {}});
      for (int k = 0; k < counts[l]; ++k, ++i) {
        p.x[i] = static_cast<float>(centres[l][0] + 0.02 * rng.uniform());
        p.y[i] = static_cast<float>(centres[l][1] + 0.02 * rng.uniform());
        p.z[i] = static_cast<float>(centres[l][2] + 0.02 * rng.uniform());
        p.h[i] = 0.01f;
        p.mass[i] = 1.f;
        order.push_back(i);
      }
    }
  }
  domain::SpeciesView view() const { return {leaves.data(), order.data(), leaves.size()}; }
};

template <typename Traits>
void expect_skip_charges_full_path(const Traits& traits, const ApartLeaves& f,
                                   const std::vector<float*>& outputs) {
  xsycl::Queue q(util::ThreadPool::global());
  for (const auto v : xsycl::kAllVariants) {
    for (const int sg : {8, 16, 32}) {
      // Every tile pair of the launch is apart at this tile width.
      const int width = v == xsycl::CommVariant::kBroadcast ? sg : sg / 2;
      using State = typename Traits::State;
      for (const auto& lp : f.pairs) {
        for (int ta = 0; ta * width < f.leaves[lp.a].count(); ++ta) {
          for (int tb = 0; tb * width < f.leaves[lp.b].count(); ++tb) {
            std::vector<State> a, b;
            for (int k = 0; k < width; ++k) {
              const int sa = f.leaves[lp.a].begin + ta * width + k;
              const int sb = f.leaves[lp.b].begin + tb * width + k;
              if (sa < f.leaves[lp.a].end) a.push_back(traits.load(sa));
              if (sb < f.leaves[lp.b].end) b.push_back(traits.load(sb));
            }
            const auto ba = half_tile_bounds(a.data(), static_cast<int>(a.size()));
            const auto bb = half_tile_bounds(b.data(), static_cast<int>(b.size()));
            ASSERT_TRUE(tiles_apart(ba, bb, tile_pair_reach(traits, ba, bb), traits.box));
          }
        }
      }
      xsycl::LaunchConfig launch;
      launch.sub_group_size = sg;
      const auto skipped =
          launch_pair_batches(q, "apart", traits, f.view(), f.pairs, v, launch);
      const auto full = launch_pair_batches(q, "apart", Unculled<Traits>{traits}, f.view(),
                                            f.pairs, v, launch);
      EXPECT_EQ(skipped.ops, full.ops) << to_string(v) << " sg " << sg << "\n"
                                       << skipped.ops.summary() << "\n"
                                       << full.ops.summary();
      EXPECT_GT(skipped.ops.interactions, 0u);
      for (const float* out : outputs) {
        for (std::size_t i = 0; i < f.p.size(); ++i) ASSERT_EQ(out[i], 0.f);
      }
    }
  }
}

TEST(PairCull, SkippedTilePairsChargeTheFullPath) {
  ApartLeaves f;
  expect_skip_charges_full_path(GeometryTraits{&f.p, f.p.m0.data(), 1.f}, f, {f.p.m0.data()});
  expect_skip_charges_full_path(
      AccelerationTraits{&f.p, f.p.ax.data(), f.p.ay.data(), f.p.az.data(), f.p.vsig.data(),
                         1.f, {}},
      f, {f.p.ax.data(), f.p.ay.data(), f.p.az.data(), f.p.vsig.data()});
  const gravity::PolyShortForce poly(0.02, 0.08);
  std::vector<float> ax(f.p.size(), 0.f), ay(f.p.size(), 0.f), az(f.p.size(), 0.f);
  gravity::GravityTraits grav{};
  grav.arrays = {f.p.x.data(), f.p.y.data(), f.p.z.data(), f.p.mass.data(),
                 ax.data(),    ay.data(),    az.data(),    f.p.size()};
  grav.poly = &poly;
  grav.box = 1.f;
  grav.G = 1.f;
  grav.rcut2 = static_cast<float>(poly.r_cut() * poly.r_cut());
  expect_skip_charges_full_path(grav, f, {ax.data(), ay.data(), az.data()});
}

// ---- Leaf-locked commits ----

// Every pair of the list holds leaf 0, each four times over, so at 8
// threads many sub-groups commit into leaf 0's particles at once.  The sums
// must match the 1-thread run within the thread-parity tolerance (kRelTol of
// tests/run/test_thread_parity.cpp); TSan checks the lock at 8 threads.
TEST(LeafLock, ContendedCommitsMatchOneThread) {
  constexpr double kRelTol = 1e-4;
  testing::GasOptions opt;
  opt.n_side = 8;
  const core::ParticleSet p = testing::make_gas(opt);
  std::vector<util::Vec3d> pos(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) pos[i] = {p.x[i], p.y[i], p.z[i]};
  const tree::RcbTree tr(pos, opt.box, 16);
  std::vector<tree::LeafPair> pairs;
  for (int rep = 0; rep < 4; ++rep) {
    for (std::size_t b = 0; b < tr.leaves().size(); ++b) {
      pairs.push_back({0, static_cast<std::int32_t>(b)});
    }
  }
  const gravity::PolyShortForce poly(0.2, 0.45);
  const auto run = [&](unsigned threads, xsycl::CommVariant v) {
    util::ThreadPool pool(threads);
    xsycl::Queue q(pool);
    std::vector<float> a(3 * p.size(), 0.f);
    gravity::PpOptions pp;
    pp.softening = 0.01f;
    pp.variant = v;
    pp.launch.sub_group_size = 16;
    gravity::run_pp_short(q, {p.x.data(), p.y.data(), p.z.data(), p.mass.data(), a.data(),
                              a.data() + p.size(), a.data() + 2 * p.size(), p.size()},
                          tr, pairs, poly, pp);
    return a;
  };
  for (const auto v : {xsycl::CommVariant::kSelect, xsycl::CommVariant::kBroadcast}) {
    const std::vector<float> serial = run(1, v);
    const std::vector<float> threaded = run(8, v);
    double scale = 0.0, worst = 0.0;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      scale = std::max(scale, std::fabs(double(serial[i])));
      worst = std::max(worst, std::fabs(double(serial[i]) - threaded[i]));
    }
    ASSERT_GT(scale, 0.0);
    EXPECT_LE(worst, kRelTol * scale) << to_string(v);
  }
}

// ---- Charge-only commits ----

// commit() adds plainly (the harness holds the leaf's flag); charge_commit
// prices the paper's atomics.  The two must agree word for word: an
// accumulator of all ones, committed into zeroed outputs, changes exactly
// as many output words as charge_commit charges atomics.
template <typename Traits>
void expect_charge_matches_commit(const Traits& traits,
                                  std::initializer_list<std::span<const float>> outputs) {
  using Accum = typename Traits::Accum;
  static_assert(sizeof(Accum) == sizeof(float) * Traits::kAccumWords);
  Accum ones;
  const std::vector<float> words(Traits::kAccumWords, 1.f);
  std::memcpy(&ones, words.data(), sizeof(Accum));
  traits.commit(0, ones);
  std::size_t changed = 0;
  for (const auto out : outputs) {
    for (const float v : out) changed += v != 0.f ? 1 : 0;
  }
  xsycl::OpCounters charged;
  Traits::charge_commit(charged);
  EXPECT_EQ(changed, static_cast<std::size_t>(Traits::kAccumWords));
  EXPECT_EQ(charged.atomic_f32_add + charged.atomic_f32_minmax, changed);
  EXPECT_GT(charged.atomic_f32_add, 0u);
}

TEST(PairCull, ChargeCommitEqualsCommitCounters) {
  core::ParticleSet p;
  p.resize(1);
  expect_charge_matches_commit(GeometryTraits{&p, p.m0.data(), 1.f}, {p.m0});
  expect_charge_matches_commit(CorrectionsTraits{&p, p.moments.data(), 1.f}, {p.moments});
  expect_charge_matches_commit(ExtrasTraits{&p, p.rho.data(), p.dvel.data(), 1.f},
                               {p.rho, p.dvel});
  expect_charge_matches_commit(AccelerationTraits{&p, p.ax.data(), p.ay.data(), p.az.data(),
                                                  p.vsig.data(), 1.f, {}},
                               {p.ax, p.ay, p.az, p.vsig});
  expect_charge_matches_commit(EnergyTraits{&p, p.du.data(), 1.f, {}}, {p.du});
  float ax = 0.f, ay = 0.f, az = 0.f;
  gravity::GravityTraits grav{};
  grav.arrays.ax = &ax;
  grav.arrays.ay = &ay;
  grav.arrays.az = &az;
  expect_charge_matches_commit(grav, {{&ax, 1}, {&ay, 1}, {&az, 1}});
}

}  // namespace
}  // namespace hacc::sph
