// Ghost-layer edge cases of the sharded engine: residency on boundary
// planes, 3-way periodic corner duplication, in-place ghost refresh through
// frozen plans (no reshard), and the pair-coverage property — every pair the
// single-domain walk finds, some shard finds too.

#include "shard/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "core/particles.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "xsycl/queue.hpp"

namespace hacc::shard {
namespace {

constexpr double kBox = 10.0;

using ShardView = ShardEngine::ShardView;

// Deterministic pseudo-random positions in [0, box).
std::vector<util::Vec3d> random_positions(std::size_t n, std::uint64_t seed) {
  std::vector<util::Vec3d> pos(n);
  std::uint64_t s = seed;
  const auto next = [&s] {
    s = util::splitmix64(s);
    return static_cast<double>(s >> 11) * 0x1.0p-53 * kBox;
  };
  for (auto& p : pos) p = {next(), next(), next()};
  return pos;
}

core::ParticleSet dm_set(const std::vector<util::Vec3d>& pos) {
  core::ParticleSet p;
  p.resize(pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) {
    p.x[i] = static_cast<float>(pos[i].x);
    p.y[i] = static_cast<float>(pos[i].y);
    p.z[i] = static_cast<float>(pos[i].z);
    p.mass[i] = 1.f;
  }
  return p;
}

// Canonical float positions (the engine stores and gathers floats, so all
// distance checks below must use the float-rounded coordinates).
std::vector<util::Vec3d> float_positions(const core::ParticleSet& p) {
  std::vector<util::Vec3d> pos(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) pos[i] = p.pos_of(i);
  return pos;
}

double min_image_dist(const util::Vec3d& a, const util::Vec3d& b) {
  double d2 = 0.0;
  for (int c = 0; c < 3; ++c) {
    double d = a[c] - b[c];
    d -= kBox * std::round(d / kBox);
    d2 += d * d;
  }
  return std::sqrt(d2);
}

ShardOptions engine_options(util::ThreadPool& pool, int count, double range) {
  ShardOptions opt;
  opt.box = kBox;
  opt.count = count;
  opt.range = range;
  opt.leaf_size = 8;
  opt.pool = &pool;
  return opt;
}

TEST(ShardEngineTest, ResidencyPartitionsTheParticles) {
  util::ThreadPool pool(4);
  const auto pos0 = random_positions(500, 1);
  core::ParticleSet dm = dm_set(pos0), gas;
  const auto pos = float_positions(dm);
  ShardEngine engine(engine_options(pool, 8, 1.0));
  engine.prepare(dm, gas, pos);

  std::vector<int> owners(pos.size(), 0);
  for (int s = 0; s < 8; ++s) {
    for (const std::int64_t id : engine.shard_view(s).res_dm) {
      ++owners[static_cast<std::size_t>(id)];
      EXPECT_EQ(engine.layout().owner_of(pos[static_cast<std::size_t>(id)]), s);
    }
  }
  for (std::size_t i = 0; i < owners.size(); ++i) {
    EXPECT_EQ(owners[i], 1) << "particle " << i
                            << " must have exactly one owner";
  }
}

TEST(ShardEngineTest, BoundaryPlaneParticleIsResidentOnceGhostNextDoor) {
  // Particles EXACTLY on the internal x = box/2 plane of a 2x1x1 layout:
  // owned by the high cell (floor convention), at distance zero from the low
  // cell — so they must appear as the low cell's ghosts, never twice as
  // residents.
  util::ThreadPool pool(2);
  std::vector<util::Vec3d> raw;
  for (int i = 0; i < 8; ++i) {
    raw.push_back({kBox / 2, 1.0 + i, 2.0 + 0.5 * i});
  }
  for (int i = 0; i < 50; ++i) {  // background filler away from the plane
    raw.push_back(random_positions(1, 100 + static_cast<std::uint64_t>(i))[0]);
  }
  core::ParticleSet dm = dm_set(raw), gas;
  const auto pos = float_positions(dm);
  ShardEngine engine(engine_options(pool, 2, 1.0));
  engine.prepare(dm, gas, pos);

  const ShardView low = engine.shard_view(engine.layout().owner_of({1.0, 1.0, 1.0}));
  const ShardView high =
      engine.shard_view(engine.layout().owner_of({kBox / 2 + 0.1, 1.0, 1.0}));
  for (std::size_t i = 0; i < 8; ++i) {
    const std::int64_t id = static_cast<std::int64_t>(i);
    const auto in = [id](std::span<const std::int64_t> v) {
      return std::find(v.begin(), v.end(), id) != v.end();
    };
    EXPECT_TRUE(in(high.res_dm)) << "plane particle owned by the high cell";
    EXPECT_FALSE(in(low.res_dm)) << "plane particle owned exactly once";
    EXPECT_TRUE(in(low.gho_dm)) << "plane particle ghosts into the low cell";
  }
}

TEST(ShardEngineTest, GhostSetIsExactlyTheHaloPredicate) {
  // For every shard: ghosts == { non-residents within ghost_radius of the
  // cell }, via the layout's minimum-image point-to-cell distance.  This
  // covers faces, edges, and corners in one sweep.
  util::ThreadPool pool(4);
  const auto raw = random_positions(400, 7);
  core::ParticleSet dm = dm_set(raw), gas;
  const auto pos = float_positions(dm);
  ShardEngine engine(engine_options(pool, 8, 1.5));
  engine.prepare(dm, gas, pos);

  for (int s = 0; s < 8; ++s) {
    const ShardView v = engine.shard_view(s);
    std::set<std::int64_t> ghosts(v.gho_dm.begin(), v.gho_dm.end());
    EXPECT_EQ(ghosts.size(), v.gho_dm.size()) << "no duplicate ghosts";
    std::set<std::int64_t> expected;
    for (std::size_t i = 0; i < pos.size(); ++i) {
      if (engine.layout().owner_of(pos[i]) == s) continue;
      if (engine.layout().distance_to(s, pos[i]) <= engine.ghost_radius()) {
        expected.insert(static_cast<std::int64_t>(i));
      }
    }
    EXPECT_EQ(ghosts, expected) << "shard " << s;
  }
}

TEST(ShardEngineTest, BoxCornerParticleGhostsIntoAllEightCells) {
  // A particle just inside the box corner (eps, eps, eps) on a 2x2x2 layout
  // is within ghost radius of every cell THROUGH THE PERIODIC WRAP: one,
  // two, or all three axes wrap depending on the neighbor — the 3-way
  // corner duplication case.  It must be resident in exactly one shard and
  // a ghost in the other seven.
  util::ThreadPool pool(4);
  std::vector<util::Vec3d> raw = {{0.05, 0.05, 0.05}};
  const auto filler = random_positions(100, 13);
  raw.insert(raw.end(), filler.begin(), filler.end());
  core::ParticleSet dm = dm_set(raw), gas;
  const auto pos = float_positions(dm);
  ShardEngine engine(engine_options(pool, 8, 1.0));
  engine.prepare(dm, gas, pos);

  int resident = 0, ghost = 0;
  for (int s = 0; s < 8; ++s) {
    const ShardView v = engine.shard_view(s);
    resident += std::count(v.res_dm.begin(), v.res_dm.end(), 0);
    ghost += std::count(v.gho_dm.begin(), v.gho_dm.end(), 0);
  }
  EXPECT_EQ(resident, 1);
  EXPECT_EQ(ghost, 7) << "corner particle must ghost into all other cells";
}

TEST(ShardEngineTest, GhostRefreshWithoutReshardStaysCurrent) {
  // Displacement policy with a generous skin: small drifts must NOT retrigger
  // migration (the export plans stay frozen), yet the ghost copies must
  // still track the canonical positions — the staleness bug this guards
  // against is a halo refreshed only at reshard time.
  util::ThreadPool pool(4);
  auto raw = random_positions(300, 21);
  core::ParticleSet dm = dm_set(raw), gas;
  ShardOptions opt = engine_options(pool, 4, 1.0);
  opt.skin = 1.0;
  opt.rebuild = domain::RebuildPolicy::kDisplacement;
  ShardEngine engine(opt);
  engine.prepare(dm, gas, float_positions(dm));
  ASSERT_EQ(engine.stats().reshards, 1u);

  // Drift everything by much less than skin / 2.
  for (std::size_t i = 0; i < dm.size(); ++i) {
    dm.x[i] = static_cast<float>(
        std::fmod(dm.x[i] + 0.05, kBox));
    dm.y[i] = static_cast<float>(std::fmod(dm.y[i] + 0.03, kBox));
  }
  const auto pos = float_positions(dm);
  engine.prepare(dm, gas, pos);
  EXPECT_EQ(engine.stats().reshards, 1u) << "drift below skin/2 must not reshard";
  EXPECT_EQ(engine.stats().migrated, 0u);

  // The strong form of the staleness check: recompute short-range forces and
  // compare against a fresh engine that resharded from scratch at these
  // positions.  The cutoff matches the engine's ghost range, so both halos
  // cover it; identical term sets then require current ghost coordinates.
  const gravity::PolyShortForce poly(0.5, 1.0, 5);
  PpParams pp;
  pp.poly = &poly;
  pp.box = static_cast<float>(kBox);
  pp.G = 1.f;
  pp.softening = 0.05f;
  std::vector<float> ax(dm.size()), ay(dm.size()), az(dm.size());
  engine.run_pp(pp, ax, ay, az);

  ShardOptions fresh_opt = engine_options(pool, 4, 1.0);
  fresh_opt.range = opt.range;
  ShardEngine fresh(fresh_opt);
  fresh.prepare(dm, gas, pos);
  std::vector<float> fx(dm.size()), fy(dm.size()), fz(dm.size());
  fresh.run_pp(pp, fx, fy, fz);
  // The per-pair float terms are identical; only the double accumulation
  // order differs (the fresh tree partitions drifted positions).  Stale
  // ghost coordinates would show up at float level, orders above this bar.
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < dm.size(); ++i) {
    const util::Vec3d d = engine.pp_accel()[i] - fresh.pp_accel()[i];
    num += dot(d, d);
    den += dot(fresh.pp_accel()[i], fresh.pp_accel()[i]);
  }
  ASSERT_GT(den, 0.0);
  EXPECT_LT(std::sqrt(num / den), 1e-12);
}

TEST(ShardEngineTest, MigrationHandsParticlesToTheirNewOwners) {
  util::ThreadPool pool(4);
  auto raw = random_positions(300, 33);
  core::ParticleSet dm = dm_set(raw), gas;
  ShardOptions opt = engine_options(pool, 4, 1.0);
  ShardEngine engine(opt);  // kAlways: every prepare re-migrates
  engine.prepare(dm, gas, float_positions(dm));

  // Teleport a third of the particles; the next prepare must hand exactly
  // the movers that changed cell to their new owners.
  for (std::size_t i = 0; i < dm.size(); i += 3) {
    dm.x[i] = static_cast<float>(std::fmod(dm.x[i] + kBox / 2, kBox));
  }
  const auto pos = float_positions(dm);
  engine.prepare(dm, gas, pos);
  EXPECT_EQ(engine.stats().reshards, 2u);
  EXPECT_GT(engine.stats().migrated, 0u);
  for (int s = 0; s < 4; ++s) {
    for (const std::int64_t id : engine.shard_view(s).res_dm) {
      EXPECT_EQ(engine.layout().owner_of(pos[static_cast<std::size_t>(id)]), s);
    }
  }
  EXPECT_GT(engine.transport_stats().messages, 0u);
}

// Maps a shard-local combined slot back to the global particle id.
std::int64_t global_id(const ShardView& v, std::int32_t slot) {
  std::size_t u = static_cast<std::size_t>(slot);
  if (u < v.res_dm.size()) return v.res_dm[u];
  u -= v.res_dm.size();
  if (u < v.gho_dm.size()) return v.gho_dm[u];
  u -= v.gho_dm.size();
  if (u < v.res_gas.size()) return v.res_gas[u];
  u -= v.res_gas.size();
  return v.gho_gas[u];
}

TEST(ShardEngineTest, ShardedWalkCoversEverySingleDomainPair) {
  // The property test: every interacting pair (minimum-image distance within
  // the cutoff) that the single-domain leaf-pair walk finds must be found by
  // at least one shard's walk with at least one member resident.  This is
  // the exactness guarantee behind the force parity suite.
  util::ThreadPool pool(4);
  const double r_cut = 1.8;
  const auto raw = random_positions(350, 55);
  core::ParticleSet dm = dm_set(raw), gas;
  const auto pos = float_positions(dm);

  // Ground truth: brute force over all pairs.
  std::set<std::pair<std::int64_t, std::int64_t>> want;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    for (std::size_t j = i + 1; j < pos.size(); ++j) {
      if (min_image_dist(pos[i], pos[j]) < r_cut) {
        want.emplace(static_cast<std::int64_t>(i), static_cast<std::int64_t>(j));
      }
    }
  }
  ASSERT_GT(want.size(), 100u) << "test needs a dense-enough configuration";

  for (const int count : {2, 4, 8}) {
    ShardEngine engine(engine_options(pool, count, r_cut));
    engine.prepare(dm, gas, pos);
    std::set<std::pair<std::int64_t, std::int64_t>> found;
    for (int s = 0; s < count; ++s) {
      const ShardView v = engine.shard_view(s);
      if (v.dom == nullptr || !v.dom->ready()) continue;
      const auto& tr = v.dom->tree();
      const auto& leaves = tr.leaves();
      const auto& order = tr.order();
      const std::size_t n_dm_res = v.res_dm.size();
      const auto is_resident = [&](std::int32_t slot) {
        return static_cast<std::size_t>(slot) < n_dm_res;  // dm-only input
      };
      v.dom->for_each_pair(r_cut, [&](const tree::LeafPair& lp) {
        const auto& A = leaves[static_cast<std::size_t>(lp.a)];
        const auto& B = leaves[static_cast<std::size_t>(lp.b)];
        for (std::int32_t u = A.begin; u < A.end; ++u) {
          const std::int32_t v0 = (lp.a == lp.b) ? u + 1 : B.begin;
          for (std::int32_t w = v0; w < B.end; ++w) {
            const std::int32_t iu = order[static_cast<std::size_t>(u)];
            const std::int32_t iw = order[static_cast<std::size_t>(w)];
            if (!is_resident(iu) && !is_resident(iw)) continue;
            const std::int64_t gi = global_id(v, iu);
            const std::int64_t gj = global_id(v, iw);
            if (gi == gj) continue;  // same particle seen via ghost copy
            const std::size_t a = static_cast<std::size_t>(std::min(gi, gj));
            const std::size_t b = static_cast<std::size_t>(std::max(gi, gj));
            if (min_image_dist(pos[a], pos[b]) < r_cut) {
              found.emplace(static_cast<std::int64_t>(a),
                            static_cast<std::int64_t>(b));
            }
          }
        }
      });
    }
    for (const auto& pr : want) {
      ASSERT_TRUE(found.count(pr))
          << "shard count " << count << " missed pair (" << pr.first << ", "
          << pr.second << ")";
    }
  }
}

// run_sph scatters resident outputs by global gas id, so a gas set of
// another size than the prepared one is refused before anything is written.
TEST(ShardEngineTest, RunSphRejectsMismatchedGas) {
  util::ThreadPool pool(2);
  const core::ParticleSet dm;
  core::ParticleSet gas = dm_set(random_positions(200, 5));
  for (std::size_t i = 0; i < gas.size(); ++i) {
    gas.h[i] = 0.3f;
    gas.V[i] = 1.f;
  }
  ShardEngine engine(engine_options(pool, 4, 1.0));
  engine.prepare(dm, gas, float_positions(gas));

  xsycl::Queue q(pool);
  core::ParticleSet smaller = dm_set(random_positions(150, 6));
  const core::ParticleSet before = smaller;
  EXPECT_THROW(engine.run_sph(smaller, q, SphParams{}), std::invalid_argument);
  EXPECT_EQ(smaller.rho, before.rho);
  EXPECT_EQ(smaller.ax, before.ax);
  EXPECT_EQ(smaller.du, before.du);
  EXPECT_EQ(smaller.crk, before.crk);
  EXPECT_TRUE(q.history().empty()) << "no kernel may launch";
}

TEST(ShardEngineTest, RejectsBadOptions) {
  util::ThreadPool pool(2);
  ShardOptions opt = engine_options(pool, 4, 1.0);
  opt.ghost_factor = 0.5;
  EXPECT_THROW(ShardEngine{opt}, std::invalid_argument);
  opt = engine_options(pool, 4, 1.0);
  opt.pool = nullptr;
  EXPECT_THROW(ShardEngine{opt}, std::invalid_argument);
  opt = engine_options(pool, 4, 1.0);
  opt.range = -1.0;
  EXPECT_THROW(ShardEngine{opt}, std::invalid_argument);
  // A transport whose endpoint count mismatches the layout is refused.
  EXPECT_THROW(ShardEngine(engine_options(pool, 4, 1.0),
                           std::make_unique<InProcTransport>(3)),
               std::invalid_argument);
}

}  // namespace
}  // namespace hacc::shard
