// The determinism battery behind the thread-scaled step: every gravity
// backend (and the SPH hydro pipeline) must produce the same physics at
// 1, 2, 4, and 8 pool threads.
//
// Tolerance contract (docs/CONCURRENCY.md): the PM mesh pipeline
// (CIC/FFT/gradient), tree build, FMM passes, and the kick/drift updates
// are bitwise thread-count-invariant.  The short-range P-P and SPH pair
// kernels commit per-pair contributions with float adds under a per-leaf
// flag, in the order sub-groups take it, so their accumulation *order* —
// and therefore the float rounding — depends on the dynamic chunk schedule
// once more than one worker runs.  A few steps of a
// smooth near-linear state amplify that reordering noise only weakly, so
// multi-thread runs must match the 1-thread run to a small relative
// tolerance, not bitwise.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "util/thread_pool.hpp"

namespace hacc::core {
namespace {

// Full per-particle phase-space + thermal state of one finished run.
struct Snapshot {
  std::vector<float> dm_x, dm_v;   // x,y,z / vx,vy,vz interleaved by array
  std::vector<float> gas_x, gas_v, gas_u;
};

void append_state(const ParticleSet& p, std::vector<float>& x,
                  std::vector<float>& v) {
  x.insert(x.end(), p.x.begin(), p.x.end());
  x.insert(x.end(), p.y.begin(), p.y.end());
  x.insert(x.end(), p.z.begin(), p.z.end());
  v.insert(v.end(), p.vx.begin(), p.vx.end());
  v.insert(v.end(), p.vy.begin(), p.vy.end());
  v.insert(v.end(), p.vz.begin(), p.vz.end());
}

SimConfig parity_config(GravityBackend backend, bool hydro) {
  SimConfig cfg;
  cfg.np_side = 6;
  cfg.n_steps = 2;
  cfg.pm_grid = 16;
  cfg.hydro = hydro;
  cfg.gravity_backend = backend;
  return cfg;
}

Snapshot run_case(const SimConfig& cfg, unsigned threads) {
  util::ThreadPool pool(threads);
  Solver solver(cfg, pool);
  solver.run();
  Snapshot s;
  append_state(solver.dm(), s.dm_x, s.dm_v);
  if (cfg.hydro) {
    append_state(solver.gas(), s.gas_x, s.gas_v);
    s.gas_u = solver.gas().u;
  }
  return s;
}

double max_abs_diff(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(a[i]) - b[i]));
  }
  return worst;
}

double max_abs(const std::vector<float>& a) {
  double worst = 0.0;
  for (const float v : a) worst = std::max(worst, std::abs(static_cast<double>(v)));
  return worst;
}

// Relative tolerance for commit reordering: float rounding is
// ~1e-7 per commit; hundreds of pair commits per particle and two KDK steps
// stay comfortably under 1e-4 of the state scale.
constexpr double kRelTol = 1e-4;

void expect_parity(const Snapshot& base, const Snapshot& other, double box,
                   const std::string& label) {
  const double v_scale = std::max(max_abs(base.dm_v), 1e-12);
  EXPECT_LE(max_abs_diff(base.dm_x, other.dm_x), kRelTol * box) << label;
  EXPECT_LE(max_abs_diff(base.dm_v, other.dm_v), kRelTol * v_scale) << label;
  if (!base.gas_x.empty()) {
    const double u_scale = std::max(max_abs(base.gas_u), 1e-12);
    EXPECT_LE(max_abs_diff(base.gas_x, other.gas_x), kRelTol * box) << label;
    EXPECT_LE(max_abs_diff(base.gas_v, other.gas_v), kRelTol * v_scale) << label;
    EXPECT_LE(max_abs_diff(base.gas_u, other.gas_u), kRelTol * u_scale) << label;
  }
}

void expect_identical(const Snapshot& a, const Snapshot& b,
                      const std::string& label) {
  EXPECT_EQ(a.dm_x, b.dm_x) << label;
  EXPECT_EQ(a.dm_v, b.dm_v) << label;
  EXPECT_EQ(a.gas_x, b.gas_x) << label;
  EXPECT_EQ(a.gas_v, b.gas_v) << label;
  EXPECT_EQ(a.gas_u, b.gas_u) << label;
}

class ThreadParity : public ::testing::TestWithParam<GravityBackend> {};

TEST_P(ThreadParity, GravityOnlyMatchesSerialAcrossThreadCounts) {
  const SimConfig cfg = parity_config(GetParam(), /*hydro=*/false);
  const Snapshot base = run_case(cfg, 1);
  for (const unsigned threads : {2u, 4u, 8u}) {
    const Snapshot s = run_case(cfg, threads);
    expect_parity(base, s, cfg.box,
                  to_string(GetParam()) + std::string(" @ ") +
                      std::to_string(threads) + " threads");
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ThreadParity,
                         ::testing::Values(GravityBackend::kPmPp,
                                           GravityBackend::kFmm,
                                           GravityBackend::kTreePm),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(ThreadParitySph, HydroPipelineMatchesSerialAcrossThreadCounts) {
  const SimConfig cfg = parity_config(GravityBackend::kPmPp, /*hydro=*/true);
  const Snapshot base = run_case(cfg, 1);
  ASSERT_FALSE(base.gas_u.empty());
  for (const unsigned threads : {2u, 4u, 8u}) {
    const Snapshot s = run_case(cfg, threads);
    expect_parity(base, s, cfg.box,
                  "sph @ " + std::to_string(threads) + " threads");
  }
}

TEST(ThreadParitySph, RepeatedSerialRunsAreBitIdentical) {
  // The 1-thread pool runs chunks inline in index order: two identical runs
  // must agree bitwise — the anchor the tolerance comparisons hang off.
  const SimConfig cfg = parity_config(GravityBackend::kPmPp, /*hydro=*/true);
  expect_identical(run_case(cfg, 1), run_case(cfg, 1), "serial repeat");
}

}  // namespace
}  // namespace hacc::core
