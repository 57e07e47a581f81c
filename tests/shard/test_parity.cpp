// The force-parity suite behind the sharding acceptance criterion: sharded
// evaluation must reproduce single-domain forces to < 1e-10 relative RMS on
// every gravity backend, and a sharded run must checkpoint/restart
// bit-identically at one thread.
//
// The engine computes per-pair terms in float — bitwise identical to the
// single-domain kernel, because the exact ghost halo gives every shard the
// same canonical [0, box) coordinates — and accumulates per particle in
// double, so the only cross-shard-count difference is double summation
// order: ~1e-15 relative, far inside the 1e-10 bar.  The solver-level
// comparisons against the legacy float-accumulating path use a float-noise
// tolerance instead.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/solver.hpp"
#include "shard/engine.hpp"
#include "util/thread_pool.hpp"

namespace hacc::core {
namespace {

SimConfig parity_config(GravityBackend backend) {
  SimConfig cfg;
  cfg.np_side = 8;
  cfg.box = 25.0;
  cfg.pm_grid = 16;
  cfg.n_steps = 2;
  cfg.seed = 7;
  cfg.hydro = true;
  cfg.gravity_backend = backend;
  return cfg;
}

std::vector<util::Vec3d> combined_positions(const Solver& s) {
  std::vector<util::Vec3d> pos;
  pos.reserve(s.dm().size() + s.gas().size());
  for (std::size_t i = 0; i < s.dm().size(); ++i) pos.push_back(s.dm().pos_of(i));
  for (std::size_t i = 0; i < s.gas().size(); ++i) pos.push_back(s.gas().pos_of(i));
  return pos;
}

double rel_rms(const std::vector<util::Vec3d>& test,
               const std::vector<util::Vec3d>& ref) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const util::Vec3d d = test[i] - ref[i];
    num += dot(d, d);
    den += dot(ref[i], ref[i]);
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

// Engine-level parity on evolved (clustered) particle data: shard counts
// 2/4/8 against the count-1 single-domain walk, double sums compared.
// This is the short-range path of the sharded pm_pp solver.
TEST(ShardParity, ShortRangeForcesMatchSingleDomainBelow1e10) {
  util::ThreadPool pool(4);
  SimConfig cfg = parity_config(GravityBackend::kPmPp);
  Solver solver(cfg, pool);
  solver.initialize();
  for (int s = 0; s < 2; ++s) solver.step();  // cluster the particles

  const auto pos = combined_positions(solver);
  const double r_split = cfg.r_split_cells * cfg.box / cfg.pm_grid;
  const gravity::PolyShortForce poly(r_split, cfg.pp_cut_factor * r_split,
                                     cfg.poly_order);
  shard::PpParams pp;
  pp.poly = &poly;
  pp.box = static_cast<float>(cfg.box);
  pp.G = static_cast<float>(3.0 * cfg.cosmo.omega_m /
                            (8.0 * M_PI * solver.scale_factor()));
  pp.softening =
      static_cast<float>(cfg.softening_cells * cfg.box / cfg.pm_grid);

  const auto run_engine = [&](int count) {
    shard::ShardOptions opt;
    opt.box = cfg.box;
    opt.count = count;
    opt.range = poly.r_cut();
    opt.leaf_size = cfg.leaf_size;
    opt.pool = &pool;
    shard::ShardEngine engine(opt);
    engine.prepare(solver.dm(), solver.gas(), pos);
    std::vector<float> ax(pos.size()), ay(pos.size()), az(pos.size());
    shard::ShardEngine* e = &engine;
    e->run_pp(pp, ax, ay, az);
    return engine.pp_accel();
  };

  const std::vector<util::Vec3d> reference = run_engine(1);
  double ref_norm = 0.0;
  for (const auto& a : reference) ref_norm += dot(a, a);
  ASSERT_GT(ref_norm, 0.0) << "short-range forces must be non-trivial";

  for (const int count : {2, 4, 8}) {
    const double err = rel_rms(run_engine(count), reference);
    EXPECT_LT(err, 1e-10) << "shard count " << count;
    // The term sets are identical floats; double reordering alone is ~1e-15.
    EXPECT_LT(err, 1e-12) << "shard count " << count
                          << ": error above summation-reorder level suggests "
                             "a ghost-layer defect";
  }
}

// Solver-level parity for the PM+PP backend: a sharded solver's total
// gravity against the unsharded one, on identical ICs.  The unsharded path
// accumulates P-P terms in float, the engine in double, so the bar here is
// float-accumulation noise, not 1e-10.
TEST(ShardParity, SolverGravityMatchesUnshardedAtFloatLevel) {
  util::ThreadPool pool(4);
  SimConfig cfg = parity_config(GravityBackend::kPmPp);
  Solver plain(cfg, pool);
  plain.initialize();
  SimConfig sharded_cfg = cfg;
  sharded_cfg.shard_count = 4;
  Solver sharded(sharded_cfg, pool);
  ASSERT_NE(sharded.shard_engine(), nullptr);
  sharded.initialize();

  const auto ref = plain.gravity_accelerations();
  const auto got = sharded.gravity_accelerations();
  ASSERT_EQ(got.size(), ref.size());
  EXPECT_LT(rel_rms(got, ref), 1e-5);  // double vs float accumulation only
}

// The fmm and treepm backends keep their whole gravity chain global (only
// hydro shards), so on identical ICs their accelerations must match the
// unsharded run bit for bit — not merely to tolerance.
TEST(ShardParity, FmmBackendGravityIsBitwiseUnsharded) {
  util::ThreadPool pool(1);
  for (const GravityBackend backend :
       {GravityBackend::kFmm, GravityBackend::kTreePm}) {
    SimConfig cfg = parity_config(backend);
    Solver plain(cfg, pool);
    plain.initialize();
    SimConfig sharded_cfg = cfg;
    sharded_cfg.shard_count = 4;
    Solver sharded(sharded_cfg, pool);
    ASSERT_NE(sharded.shard_engine(), nullptr);
    sharded.initialize();

    const auto ref = plain.gravity_accelerations();
    const auto got = sharded.gravity_accelerations();
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(got[i].x, ref[i].x) << to_string(backend) << " " << i;
      ASSERT_EQ(got[i].y, ref[i].y) << to_string(backend) << " " << i;
      ASSERT_EQ(got[i].z, ref[i].z) << to_string(backend) << " " << i;
    }
  }
}

// Sharded hydro reproduces the unsharded kernel outputs to float-reorder
// noise (per-shard pair lists sum in a different order).
TEST(ShardParity, HydroForcesMatchUnshardedAtFloatLevel) {
  util::ThreadPool pool(4);
  SimConfig cfg = parity_config(GravityBackend::kPmPp);
  Solver plain(cfg, pool);
  plain.initialize();
  SimConfig sharded_cfg = cfg;
  sharded_cfg.shard_count = 4;
  Solver sharded(sharded_cfg, pool);
  sharded.initialize();

  const ParticleSet& a = plain.gas();
  const ParticleSet& b = sharded.gas();
  ASSERT_EQ(a.size(), b.size());
  double num = 0.0, den = 0.0, du_num = 0.0, du_den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double dx = double(b.ax[i]) - a.ax[i];
    const double dy = double(b.ay[i]) - a.ay[i];
    const double dz = double(b.az[i]) - a.az[i];
    num += dx * dx + dy * dy + dz * dz;
    den += double(a.ax[i]) * a.ax[i] + double(a.ay[i]) * a.ay[i] +
           double(a.az[i]) * a.az[i];
    const double ddu = double(b.du[i]) - a.du[i];
    du_num += ddu * ddu;
    du_den += double(a.du[i]) * a.du[i];
  }
  ASSERT_GT(den, 0.0);
  EXPECT_LT(std::sqrt(num / den), 1e-4);
  if (du_den > 0.0) EXPECT_LT(std::sqrt(du_num / du_den), 1e-4);
}

void expect_bitwise_equal(const ParticleSet& a, const ParticleSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.x[i], b.x[i]) << i;
    ASSERT_EQ(a.y[i], b.y[i]) << i;
    ASSERT_EQ(a.z[i], b.z[i]) << i;
    ASSERT_EQ(a.vx[i], b.vx[i]) << i;
    ASSERT_EQ(a.vy[i], b.vy[i]) << i;
    ASSERT_EQ(a.vz[i], b.vz[i]) << i;
    ASSERT_EQ(a.u[i], b.u[i]) << i;
    ASSERT_EQ(a.h[i], b.h[i]) << i;
    ASSERT_EQ(a.V[i], b.V[i]) << i;
  }
}

// Checkpoint/restart bit-identity under sharding at one thread: residency
// is a pure function of position under the default always-rebuild policy,
// and the canonical particle sets (which checkpoints capture) never see
// shards — so a restart reproduces the continuous sharded run exactly.
TEST(ShardParity, CheckpointRestartIsBitIdenticalUnderSharding) {
  util::ThreadPool pool(1);
  SimConfig cfg = parity_config(GravityBackend::kPmPp);
  cfg.shard_count = 4;

  Solver continuous(cfg, pool);
  continuous.initialize();
  continuous.step();
  continuous.step();
  // A checkpoint captures the full particle state, including the hydro
  // kernel outputs the first post-restart evaluation reuses.
  const ParticleSet dm_ckpt = continuous.dm();
  const ParticleSet gas_ckpt = continuous.gas();
  const double a_ckpt = continuous.scale_factor();
  const int steps_ckpt = continuous.steps_taken();
  continuous.step();

  Solver restarted(cfg, pool);
  restarted.restore(dm_ckpt, gas_ckpt, a_ckpt, steps_ckpt);
  restarted.step();

  expect_bitwise_equal(continuous.dm(), restarted.dm());
  expect_bitwise_equal(continuous.gas(), restarted.gas());
  EXPECT_EQ(continuous.scale_factor(), restarted.scale_factor());
}

}  // namespace
}  // namespace hacc::core
