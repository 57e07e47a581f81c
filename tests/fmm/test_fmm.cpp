#include "fmm/fmm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iomanip>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gravity/pp_short.hpp"
#include "util/rng.hpp"
#include "xsycl/queue.hpp"

namespace hacc::fmm {
namespace {

using util::Vec3d;

std::vector<Vec3d> random_positions(int n, double box, std::uint64_t seed) {
  util::CounterRng rng(seed);
  std::vector<Vec3d> pos(n);
  for (int i = 0; i < n; ++i) {
    pos[i] = {box * rng.uniform(3 * i), box * rng.uniform(3 * i + 1),
              box * rng.uniform(3 * i + 2)};
  }
  return pos;
}

std::vector<double> random_masses(int n, std::uint64_t seed) {
  util::CounterRng rng(seed);
  std::vector<double> mass(n);
  for (int i = 0; i < n; ++i) mass[i] = 0.5 + rng.uniform(i);
  return mass;
}

// Direct double-precision softened-Newton acceleration at `at` (G = 1).
Vec3d direct_newton(const std::vector<Vec3d>& pos, const std::vector<double>& mass,
                    const Vec3d& at, double eps2) {
  Vec3d acc;
  for (std::size_t j = 0; j < pos.size(); ++j) {
    const Vec3d d = at - pos[j];
    const double r2 = norm2(d) + eps2;
    acc += (-mass[j] / (r2 * std::sqrt(r2))) * d;
  }
  return acc;
}

TEST(Multipole, TwoPointMassesMatchSeriesOnAxis) {
  // Equal masses at +-s x about the origin: the octupole vanishes by
  // symmetry, so m2p must match the exact force to O((s/R)^4).
  const double m = 1.5, s = 0.1, R = 3.0;
  const std::vector<Vec3d> pos{{s, 0, 0}, {-s, 0, 0}};
  const std::vector<double> mass{m, m};
  const Multipole mp = p2m(pos, mass);
  EXPECT_NEAR(mp.mass, 2 * m, 1e-12);
  EXPECT_NEAR(norm(mp.com), 0.0, 1e-12);

  const Vec3d a = m2p(mp, {R, 0, 0}, 0.0);
  const double exact = -m / ((R - s) * (R - s)) - m / ((R + s) * (R + s));
  EXPECT_NEAR(a.x, exact, std::abs(exact) * 1e-4);
  EXPECT_NEAR(a.y, 0.0, 1e-12);
  EXPECT_NEAR(a.z, 0.0, 1e-12);

  // The quadrupole term matters: monopole alone is off by ~6 s^2/R^2.
  Multipole mono = mp;
  mono.m2 = {};
  const Vec3d am = m2p(mono, {R, 0, 0}, 0.0);
  EXPECT_GT(std::abs(am.x - exact), 10 * std::abs(a.x - exact));
}

TEST(Multipole, M2MMatchesDirectP2M) {
  const auto pos = random_positions(60, 2.0, 11);
  const auto mass = random_masses(60, 12);
  const std::span<const Vec3d> all(pos);
  const std::span<const double> allm(mass);

  const Multipole left = p2m(all.subspan(0, 25), allm.subspan(0, 25));
  const Multipole right = p2m(all.subspan(25), allm.subspan(25));
  Multipole combined;
  combined.com = combined_com(left, right);
  m2m_accumulate(combined, left);
  m2m_accumulate(combined, right);

  const Multipole direct = p2m(all, allm);
  EXPECT_NEAR(combined.mass, direct.mass, 1e-10);
  EXPECT_NEAR(norm(combined.com - direct.com), 0.0, 1e-10);
  EXPECT_NEAR(combined.m2.xx, direct.m2.xx, 1e-8);
  EXPECT_NEAR(combined.m2.xy, direct.m2.xy, 1e-8);
  EXPECT_NEAR(combined.m2.xz, direct.m2.xz, 1e-8);
  EXPECT_NEAR(combined.m2.yy, direct.m2.yy, 1e-8);
  EXPECT_NEAR(combined.m2.yz, direct.m2.yz, 1e-8);
  EXPECT_NEAR(combined.m2.zz, direct.m2.zz, 1e-8);
}

TEST(Multipole, M2PConvergesToDirectSum) {
  // A cluster of unit diameter seen from 5 diameters away: the truncation
  // error is the octupole, O((diam/2R)^3) ~ 1e-3 relative.
  auto pos = random_positions(40, 1.0, 13);
  const auto mass = random_masses(40, 14);
  const Multipole mp = p2m(pos, mass);
  const Vec3d at{5.0, 1.0, -2.0};
  const Vec3d approx = m2p(mp, at - mp.com, 0.0);
  const Vec3d exact = direct_newton(pos, mass, at, 0.0);
  EXPECT_LT(norm(approx - exact), 5e-3 * norm(exact));
}

TEST(Fmm, RootMultipoleConservesMassAndCom) {
  const double box = 10.0;
  const auto pos = random_positions(500, box, 15);
  const auto mass = random_masses(500, 16);
  util::ThreadPool pool(4);
  const tree::RcbTree tr(pos, box, 16);
  const FmmEvaluator ev(tr, pos, mass, pool);

  double m_total = 0.0;
  Vec3d weighted;
  for (std::size_t i = 0; i < mass.size(); ++i) {
    m_total += mass[i];
    weighted += mass[i] * pos[i];
  }
  const Multipole& root = ev.multipoles()[tr.root()];
  EXPECT_NEAR(root.mass, m_total, 1e-9 * m_total);
  EXPECT_NEAR(norm(root.com - weighted / m_total), 0.0, 1e-9);
}

TEST(Fmm, ThetaZeroReproducesInteractingPairs) {
  const double box = 10.0;
  const double cutoff = 2.0;
  const auto pos = random_positions(300, box, 17);
  const auto mass = random_masses(300, 18);
  util::ThreadPool pool(4);
  const tree::RcbTree tr(pos, box, 16);
  const FmmEvaluator ev(tr, pos, mass, pool);
  const InteractionLists lists = ev.build_interactions(0.0, cutoff);

  EXPECT_EQ(lists.far_entries(), 0u);
  std::set<std::pair<std::int32_t, std::int32_t>> got, want;
  for (const auto& lp : lists.near) got.insert({lp.a, lp.b});
  for (const auto& lp : tr.interacting_pairs(cutoff)) want.insert({lp.a, lp.b});
  EXPECT_EQ(got, want);
}

TEST(Fmm, TraversalCoversEveryPairExactlyOnce) {
  // The fundamental correctness invariant: every ordered particle pair is
  // accounted for exactly once, either through a near leaf pair or through
  // exactly one far source node containing the partner.
  const double box = 10.0;
  const int n = 250;
  const auto pos = random_positions(n, box, 19);
  const auto mass = random_masses(n, 20);
  util::ThreadPool pool(4);
  const tree::RcbTree tr(pos, box, 8);
  const FmmEvaluator ev(tr, pos, mass, pool);
  const InteractionLists lists =
      ev.build_interactions(0.7, std::numeric_limits<double>::infinity());

  std::vector<std::int32_t> slot_of(n);
  for (std::int32_t k = 0; k < n; ++k) slot_of[tr.order()[k]] = k;
  std::set<std::pair<std::int32_t, std::int32_t>> near;
  for (const auto& lp : lists.near) {
    ASSERT_LE(lp.a, lp.b);
    ASSERT_TRUE(near.insert({lp.a, lp.b}).second) << "duplicate near pair";
  }

  for (std::int32_t i = 0; i < n; ++i) {
    const std::int32_t li = tr.leaf_of_slot(slot_of[i]);
    for (std::int32_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const std::int32_t lj = tr.leaf_of_slot(slot_of[j]);
      int covered = near.count({std::min(li, lj), std::max(li, lj)}) ? 1 : 0;
      for (std::int64_t s = lists.far_offsets[li]; s < lists.far_offsets[li + 1]; ++s) {
        const auto& node = tr.nodes()[lists.far_nodes[s]];
        if (slot_of[j] >= node.begin && slot_of[j] < node.end) ++covered;
      }
      ASSERT_EQ(covered, 1) << "pair (" << i << "," << j << ")";
    }
  }
}

TEST(Fmm, SingleLeafTreeIsAllNearField) {
  const auto pos = random_positions(10, 10.0, 21);
  const auto mass = random_masses(10, 22);
  util::ThreadPool pool(2);
  const tree::RcbTree tr(pos, 10.0, 16);
  ASSERT_EQ(tr.leaves().size(), 1u);
  const FmmEvaluator ev(tr, pos, mass, pool);
  const auto lists = ev.build_interactions(0.5, std::numeric_limits<double>::infinity());
  ASSERT_EQ(lists.near.size(), 1u);
  EXPECT_EQ(lists.near[0].a, 0);
  EXPECT_EQ(lists.near[0].b, 0);
  EXPECT_EQ(lists.far_entries(), 0u);
}

TEST(Fmm, EmptyTree) {
  std::vector<Vec3d> pos;
  std::vector<double> mass;
  util::ThreadPool pool(2);
  const tree::RcbTree tr(pos, 10.0, 16);
  const FmmEvaluator ev(tr, pos, mass, pool);
  const auto lists = ev.build_interactions(0.5, 1.0);
  EXPECT_TRUE(lists.near.empty());
  EXPECT_EQ(lists.far_entries(), 0u);
}

// Shared harness: full near+far evaluation against reference_pp_short.
struct ForceBuffers {
  std::vector<float> x, y, z, m, ax, ay, az;

  ForceBuffers(const std::vector<Vec3d>& pos, const std::vector<double>& mass) {
    const std::size_t n = pos.size();
    x.resize(n);
    y.resize(n);
    z.resize(n);
    m.resize(n);
    ax.assign(n, 0.f);
    ay.assign(n, 0.f);
    az.assign(n, 0.f);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = static_cast<float>(pos[i].x);
      y[i] = static_cast<float>(pos[i].y);
      z[i] = static_cast<float>(pos[i].z);
      m[i] = static_cast<float>(mass[i]);
    }
  }

  gravity::GravityArrays arrays() {
    return {x.data(), y.data(), z.data(), m.data(),
            ax.data(), ay.data(), az.data(), x.size()};
  }
};

double relative_rms_error(const ForceBuffers& got, const ForceBuffers& want) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < got.ax.size(); ++i) {
    const double dx = double(got.ax[i]) - want.ax[i];
    const double dy = double(got.ay[i]) - want.ay[i];
    const double dz = double(got.az[i]) - want.az[i];
    num += dx * dx + dy * dy + dz * dz;
    den += double(want.ax[i]) * want.ax[i] + double(want.ay[i]) * want.ay[i] +
           double(want.az[i]) * want.az[i];
  }
  return std::sqrt(num / den);
}

struct BackendResult {
  FarFieldStats stats;
  std::uint64_t far_entries = 0;
};

BackendResult evaluate_backend(const std::vector<Vec3d>& pos,
                               const std::vector<double>& mass, double box,
                               int leaf_size, double theta, double r_cut,
                               const gravity::PolyShortForce& poly,
                               bool poly_in_far, float softening,
                               ForceBuffers& out) {
  util::ThreadPool pool(4);
  xsycl::Queue q(pool);
  const tree::RcbTree tr(pos, box, leaf_size);
  const FmmEvaluator ev(tr, pos, mass, pool);
  const InteractionLists lists = ev.build_interactions(theta, r_cut);

  gravity::PpOptions ppopt;
  ppopt.box = static_cast<float>(box);
  ppopt.G = 1.0f;
  ppopt.softening = softening;
  run_pp_short(q, out.arrays(), tr, lists.near, poly, ppopt);

  FarOptions fopt;
  fopt.box = box;
  fopt.G = 1.0;
  fopt.softening = softening;
  fopt.poly = poly_in_far ? &poly : nullptr;
  return {ev.evaluate_far(lists, out.arrays(), fopt), lists.far_entries()};
}

// The acceptance bar: a 16^3-per-species random box, opening angle 0.5,
// relative RMS force error against the all-pairs reference below 1e-3.
TEST(Fmm, PureNewtonParityAtThetaHalf) {
  const double box = 25.0;
  const int n = 2 * 16 * 16 * 16;
  const auto pos = random_positions(n, box, 23);
  std::vector<double> mass(n);
  for (int i = 0; i < n; ++i) mass[i] = i < n / 2 ? 1.0 : 0.15;  // two species
  const float softening = static_cast<float>(0.2 * box / 32.0);

  const gravity::PolyShortForce poly = gravity::PolyShortForce::newtonian(box);
  ForceBuffers ref(pos, mass);
  reference_pp_short(ref.arrays(), poly, static_cast<float>(box), 1.0f, softening);

  ForceBuffers got(pos, mass);
  const BackendResult result = evaluate_backend(
      pos, mass, box, /*leaf_size=*/8, 0.5, std::numeric_limits<double>::infinity(),
      poly, /*poly_in_far=*/false, softening, got);
  EXPECT_GT(result.far_entries, 0u) << "far field not exercised";
  EXPECT_GT(result.stats.m2p_ops, 0u);
  EXPECT_LT(relative_rms_error(got, ref), 1e-3);
}

// TreePM short range: the MAC-split near+far sum must match the plain
// pair-list evaluation of the same truncated force law.
TEST(Fmm, TreePmShortRangeParity) {
  // Dense enough that the cutoff sphere spans many leaves, so the MAC
  // actually defers part of the short-range sum to multipoles.
  const double box = 10.0;
  const int n = 8192;
  const auto pos = random_positions(n, box, 24);
  const auto mass = random_masses(n, 25);
  const double r_split = 1.25 * box / 16.0;
  const gravity::PolyShortForce poly(r_split, 6.0 * r_split, 5);
  const float softening = static_cast<float>(0.2 * box / 32.0);

  ForceBuffers ref(pos, mass);
  reference_pp_short(ref.arrays(), poly, static_cast<float>(box), 1.0f, softening);

  ForceBuffers got(pos, mass);
  const BackendResult result =
      evaluate_backend(pos, mass, box, /*leaf_size=*/4, 0.5, poly.r_cut(), poly,
                       /*poly_in_far=*/true, softening, got);
  EXPECT_GT(result.far_entries, 0u) << "far field not exercised";
  EXPECT_LT(relative_rms_error(got, ref), 2e-3);
}

TEST(Fmm, OpCountersRecordM2P) {
  const double box = 10.0;
  const auto pos = random_positions(4000, box, 26);
  const auto mass = random_masses(4000, 27);
  util::ThreadPool pool(4);
  const tree::RcbTree tr(pos, box, 4);
  const FmmEvaluator ev(tr, pos, mass, pool);
  const auto lists =
      ev.build_interactions(0.9, std::numeric_limits<double>::infinity());
  ASSERT_GT(lists.far_entries(), 0u);

  ForceBuffers buf(pos, mass);
  xsycl::OpCounters ops;
  const FarFieldStats stats =
      ev.evaluate_far(lists, buf.arrays(), FarOptions{box, 1.0, 0.0, nullptr}, &ops);
  EXPECT_GT(stats.m2p_ops, 0u);
  EXPECT_EQ(ops.m2p_ops, stats.m2p_ops);
}

// Recorded bits of the upward pass and the MAC walk.  Every row hashes
// (FNV-1a) the near list in order, far_offsets, far_nodes and every node's
// multipole, for one (theta, r_cut) on a clustered box: half the particles
// uniform, half in four tight clumps (one straddling the periodic corner),
// so both cutoffs defer work to the far field.  Pool sizes 1 and 4 must
// reproduce each row.
struct FmmListsRow {
  double theta;
  double r_cut;
  std::uint64_t near_pairs;
  std::uint64_t far_entries;
  std::uint64_t hash;
};

constexpr double kInf = std::numeric_limits<double>::infinity();

constexpr FmmListsRow kFmmLists[] = {
#include "fmm_lists_snapshot.inc"
};

class Fnv1a {
 public:
  template <typename T>
  void add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (const unsigned char b : bytes) {
      h_ ^= b;
      h_ *= 1099511628211ull;
    }
  }
  void add(const Vec3d& v) {
    for (int axis = 0; axis < 3; ++axis) add(v[axis]);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

std::vector<Vec3d> clustered_positions(double box) {
  const int n = 8000;
  std::vector<Vec3d> pos = random_positions(n / 2, box, 31);
  const Vec3d centers[] = {{2.0, 2.5, 3.0}, {7.0, 6.0, 2.0}, {4.0, 8.0, 7.5}, {0.1, 9.9, 0.2}};
  util::CounterRng rng(32);
  for (int i = 0; i < n / 2; ++i) {
    const Vec3d& c = centers[i % 4];
    Vec3d p;
    for (int axis = 0; axis < 3; ++axis) {
      p[axis] = c[axis] + 0.25 * rng.normal(3 * i + axis);
      p[axis] -= box * std::floor(p[axis] / box);
    }
    pos.push_back(p);
  }
  return pos;
}

class FmmListsSnapshot : public ::testing::TestWithParam<unsigned> {};

INSTANTIATE_TEST_SUITE_P(PoolSizes, FmmListsSnapshot, ::testing::Values(1u, 4u),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

TEST_P(FmmListsSnapshot, MatchesRecordedHashes) {
  const double box = 10.0;
  const auto pos = clustered_positions(box);
  const auto mass = random_masses(static_cast<int>(pos.size()), 33);
  util::ThreadPool pool(GetParam());
  const tree::RcbTree tr(pos, box, 8);
  const FmmEvaluator ev(tr, pos, mass, pool);

  std::vector<FmmListsRow> got;
  for (const double theta : {0.0, 0.5, 0.7}) {
    for (const double r_cut : {2.0, kInf}) {
      const InteractionLists lists = ev.build_interactions(theta, r_cut);
      Fnv1a h;
      for (const tree::LeafPair& lp : lists.near) {
        h.add(lp.a);
        h.add(lp.b);
      }
      for (const std::int64_t o : lists.far_offsets) h.add(o);
      for (const std::int32_t node : lists.far_nodes) h.add(node);
      for (const Multipole& mp : ev.multipoles()) {
        h.add(mp.mass);
        h.add(mp.com);
        for (const double c : {mp.m2.xx, mp.m2.xy, mp.m2.xz, mp.m2.yy, mp.m2.yz, mp.m2.zz}) {
          h.add(c);
        }
      }
      got.push_back({theta, r_cut, lists.near.size(), lists.far_entries(), h.value()});
    }
  }

  std::ostringstream measured;
  for (const FmmListsRow& r : got) {
    std::ostringstream r_cut;
    r_cut << std::fixed << std::setprecision(1) << r.r_cut;
    measured << "{" << std::fixed << std::setprecision(1) << r.theta << ", "
             << (std::isinf(r.r_cut) ? "kInf" : r_cut.str()) << ", " << r.near_pairs << ", " << r.far_entries << ", 0x" << std::hex << r.hash
             << std::dec << "ull},\n";
  }
  ASSERT_EQ(got.size(), std::size(kFmmLists)) << "measured:\n" << measured.str();
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].theta, kFmmLists[i].theta) << i;
    EXPECT_EQ(got[i].r_cut, kFmmLists[i].r_cut) << i;
    EXPECT_EQ(got[i].near_pairs, kFmmLists[i].near_pairs) << i;
    EXPECT_EQ(got[i].far_entries, kFmmLists[i].far_entries) << i;
    EXPECT_EQ(got[i].hash, kFmmLists[i].hash)
        << "theta " << got[i].theta << " r_cut " << got[i].r_cut << "; measured:\n"
        << measured.str();
    if (got[i].theta > 0.0) EXPECT_GT(got[i].far_entries, 0u) << "far field not exercised";
  }
}

}  // namespace
}  // namespace hacc::fmm
