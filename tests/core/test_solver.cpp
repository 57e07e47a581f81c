// Integration tests of the full solver: the paper's benchmark scenario at
// miniature scale — two species, Zel'dovich ICs at z=200, five KDK steps to
// z=50 (§3.4.2-3.4.3).

#include "core/solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "util/config.hpp"

namespace hacc::core {
namespace {

SimConfig small_config() {
  SimConfig cfg;
  cfg.np_side = 10;
  cfg.box = 25.0;
  cfg.pm_grid = 32;
  cfg.n_steps = 5;
  cfg.seed = 7;
  return cfg;
}

double measured_growth_ratio(const SimConfig& cfg, util::ThreadPool& pool) {
  Solver solver(cfg, pool);
  solver.initialize();
  const auto d0 = solver.diagnostics();
  for (int s = 0; s < cfg.n_steps; ++s) solver.step();
  const auto d1 = solver.diagnostics();
  return d1.max_displacement / d0.max_displacement;
}

double expected_growth_ratio(const SimConfig& cfg) {
  const double a_i = ic::Cosmology::a_of_z(cfg.z_init);
  const double a_f = ic::Cosmology::a_of_z(cfg.z_final);
  return cfg.cosmo.growth(a_f) / cfg.cosmo.growth(a_i);
}

TEST(Solver, GravityOnlyTracksLinearGrowth) {
  // The Zel'dovich consistency test: displacements must grow by
  // D(a_final)/D(a_init) over the run (20 steps keeps integrator error small).
  SimConfig cfg = small_config();
  cfg.hydro = false;
  cfg.np_side = 12;
  cfg.n_steps = 20;
  util::ThreadPool pool(8);
  const double expect = expected_growth_ratio(cfg);
  EXPECT_NEAR(measured_growth_ratio(cfg, pool), expect, 0.05 * expect);
}

TEST(Solver, GrowthErrorShrinksWithStepCount) {
  // The paper's 5-step benchmark configuration is deliberately coarse; the
  // integrator must converge toward linear theory as steps are refined.
  SimConfig cfg = small_config();
  cfg.hydro = false;
  util::ThreadPool pool(8);
  const double expect = expected_growth_ratio(cfg);
  cfg.n_steps = 5;
  const double err5 = std::abs(measured_growth_ratio(cfg, pool) / expect - 1.0);
  cfg.n_steps = 20;
  const double err20 = std::abs(measured_growth_ratio(cfg, pool) / expect - 1.0);
  EXPECT_LT(err20, 0.5 * err5);
  EXPECT_LT(err20, 0.06);
  EXPECT_LT(err5, 0.30);
}

TEST(Solver, GravityOnlyPerParticleGrowthCorrelation) {
  SimConfig cfg = small_config();
  cfg.hydro = false;
  cfg.n_steps = 20;
  util::ThreadPool pool(8);
  Solver solver(cfg, pool);
  solver.initialize();
  // Record initial displacements from the lattice.
  const double dx = cfg.box / cfg.np_side;
  const auto displacement = [&](const ParticleSet& p, std::vector<util::Vec3d>& out) {
    out.clear();
    std::size_t i = 0;
    for (int ix = 0; ix < cfg.np_side; ++ix) {
      for (int iy = 0; iy < cfg.np_side; ++iy) {
        for (int iz = 0; iz < cfg.np_side; ++iz, ++i) {
          const util::Vec3d q{(ix + 0.5) * dx, (iy + 0.5) * dx, (iz + 0.5) * dx};
          out.push_back(sph::min_image(p.pos_of(i) - q, cfg.box));
        }
      }
    }
  };
  std::vector<util::Vec3d> disp0, disp1;
  displacement(solver.dm(), disp0);
  for (int s = 0; s < cfg.n_steps; ++s) solver.step();
  displacement(solver.dm(), disp1);

  // Least-squares growth estimate <d1 . d0> / <d0 . d0>.
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < disp0.size(); ++i) {
    num += dot(disp1[i], disp0[i]);
    den += dot(disp0[i], disp0[i]);
  }
  const double a_i = ic::Cosmology::a_of_z(cfg.z_init);
  const double a_f = ic::Cosmology::a_of_z(cfg.z_final);
  const double growth_ratio = cfg.cosmo.growth(a_f) / cfg.cosmo.growth(a_i);
  EXPECT_NEAR(num / den, growth_ratio, 0.1 * growth_ratio);
}

TEST(Solver, FullHydroRunStaysFinite) {
  SimConfig cfg = small_config();
  cfg.n_steps = 3;
  util::ThreadPool pool(8);
  Solver solver(cfg, pool);
  solver.run();
  const auto& gas = solver.gas();
  for (std::size_t i = 0; i < gas.size(); ++i) {
    ASSERT_TRUE(std::isfinite(gas.x[i]));
    ASSERT_TRUE(std::isfinite(gas.vx[i]));
    ASSERT_TRUE(std::isfinite(gas.u[i]));
    ASSERT_GE(gas.u[i], 0.f);
    ASSERT_GT(gas.rho[i], 0.f);
    ASSERT_GT(gas.V[i], 0.f);
  }
}

TEST(Solver, TimersCoverAllPaperKernels) {
  SimConfig cfg = small_config();
  cfg.np_side = 8;
  cfg.n_steps = 2;
  util::ThreadPool pool(4);
  Solver solver(cfg, pool);
  solver.run();
  auto kernels = solver.queue().aggregate_by_kernel();
  // The seven SPH kernels of Figs. 9-11 plus the short-range gravity kernel
  // time their launches; the PM solve is timed by its pm stage.
  for (const char* name : {"upGeo", "upCor", "upBarEx", "upBarAc", "upBarDu",
                           "upBarAcF", "upBarDuF", "grav_pp"}) {
    EXPECT_GT(kernels[name].launches, 0u) << name;
  }
  EXPECT_GT(solver.stage_totals().at("pm").runs, 0u);
  // upBarAcF runs every step; upBarAc only at initialization.
  EXPECT_EQ(kernels["upBarAcF"].launches, static_cast<std::uint64_t>(cfg.n_steps));
  EXPECT_EQ(kernels["upBarAc"].launches, 1u);
}

TEST(Solver, StepStageSecondsAreDiffsOfStageTotals) {
  // StepStats' tree/pm/short_range seconds come from the stage records and
  // nowhere else: each is this step's diff of the stage totals.
  for (const GravityBackend backend :
       {GravityBackend::kPmPp, GravityBackend::kTreePm}) {
    SimConfig cfg = small_config();
    cfg.np_side = 8;
    cfg.n_steps = 2;
    cfg.gravity_backend = backend;
    cfg.hydro = backend == GravityBackend::kPmPp;
    util::ThreadPool pool(1);
    Solver solver(cfg, pool);
    solver.initialize();
    const auto walls = [&solver] {
      return std::array<double, 3>{
          solver.stage_seconds("tree"), solver.stage_seconds("pm"),
          solver.stage_seconds("sph") + solver.stage_seconds("fmm_build") +
              solver.stage_seconds("short_range") +
              solver.stage_seconds("far_field")};
    };
    for (int s = 0; s < cfg.n_steps; ++s) {
      const auto before = walls();
      const StepStats st = solver.step();
      const auto after = walls();
      EXPECT_DOUBLE_EQ(st.tree_seconds, after[0] - before[0]);
      EXPECT_DOUBLE_EQ(st.pm_seconds, after[1] - before[1]);
      EXPECT_DOUBLE_EQ(st.short_range_seconds, after[2] - before[2]);
      EXPECT_GT(std::min({st.tree_seconds, st.pm_seconds, st.short_range_seconds}),
                0.0) << to_string(backend);
    }
    // One force evaluation at initialize(), one per step after it.
    for (const auto& [name, total] : solver.stage_totals()) {
      EXPECT_EQ(total.runs, 1u + cfg.n_steps) << name;
    }
  }
}

struct StageWallsCase {
  const char* name;
  GravityBackend backend;
  bool hydro;
  int shard_count;
};

// Without a printer gtest shows the case as raw bytes, and ctest's test name
// would carry the address of `name`, which moves with every build and run.
void PrintTo(const StageWallsCase& c, std::ostream* os) { *os << c.name; }

class SolverStageWalls : public ::testing::TestWithParam<StageWallsCase> {};

INSTANTIATE_TEST_SUITE_P(
    Backends, SolverStageWalls,
    ::testing::Values(StageWallsCase{"pm_pp_hydro", GravityBackend::kPmPp, true, 1},
                      StageWallsCase{"fmm", GravityBackend::kFmm, false, 1},
                      StageWallsCase{"treepm", GravityBackend::kTreePm, false, 1},
                      StageWallsCase{"pm_pp_hydro_shards4", GravityBackend::kPmPp,
                                     true, 4}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(SolverStageWalls, StagesSumWithinTheStepWall) {
  // The stages of a force evaluation run one after another, so on any pool
  // their walls are disjoint slices of the step: one step's stage-total
  // deltas sum to at most StepStats::wall_seconds.
  const StageWallsCase& c = GetParam();
  SimConfig cfg = small_config();
  cfg.np_side = 8;
  cfg.pm_grid = 16;
  cfg.gravity_backend = c.backend;
  cfg.hydro = c.hydro;
  cfg.shard_count = c.shard_count;
  util::ThreadPool pool(4);
  Solver solver(cfg, pool);
  solver.initialize();
  const auto stage_sum = [&solver] {
    double sum = 0.0;
    for (const auto& [name, total] : solver.stage_totals()) sum += total.seconds;
    return sum;
  };
  const double before = stage_sum();
  const StepStats st = solver.step();
  const double stages = stage_sum() - before;
  EXPECT_GT(stages, 0.0);
  EXPECT_LE(stages, st.wall_seconds);
}

TEST(Solver, MassIsExactlyBoxVolume) {
  SimConfig cfg = small_config();
  cfg.np_side = 6;
  util::ThreadPool pool(2);
  Solver solver(cfg, pool);
  solver.initialize();
  const auto d = solver.diagnostics();
  EXPECT_NEAR(d.total_mass, cfg.box * cfg.box * cfg.box, 1e-5 * d.total_mass);
}

TEST(Solver, BaryonFractionSplitsMass) {
  SimConfig cfg = small_config();
  cfg.np_side = 6;
  cfg.baryon_fraction = 0.2;
  util::ThreadPool pool(2);
  Solver solver(cfg, pool);
  solver.initialize();
  double dm_mass = 0.0, gas_mass = 0.0;
  for (const float m : solver.dm().mass) dm_mass += m;
  for (const float m : solver.gas().mass) gas_mass += m;
  EXPECT_NEAR(gas_mass / (dm_mass + gas_mass), 0.2, 1e-6);
}

TEST(Solver, MomentumStaysSmall) {
  SimConfig cfg = small_config();
  cfg.np_side = 8;
  cfg.n_steps = 3;
  util::ThreadPool pool(4);
  Solver solver(cfg, pool);
  solver.run();
  const auto d = solver.diagnostics();
  // Zel'dovich ICs have zero net momentum; forces conserve it pair-wise.
  const double v_scale = std::sqrt(2.0 * d.kinetic_energy / d.total_mass);
  for (int c = 0; c < 3; ++c) {
    EXPECT_LT(std::abs(d.momentum[c]), 0.05 * d.total_mass * v_scale) << c;
  }
}

TEST(Solver, VariantSelectionIsExercised) {
  SimConfig cfg = small_config();
  cfg.np_side = 6;
  cfg.n_steps = 1;
  cfg.variants = VariantSelection::uniform(xsycl::CommVariant::kMemoryObject);
  cfg.variants.acceleration = xsycl::CommVariant::kBroadcast;
  util::ThreadPool pool(4);
  Solver solver(cfg, pool);
  solver.run();
  xsycl::OpCounters total;
  for (const auto& s : solver.queue().history()) total.merge(s.ops);
  EXPECT_GT(total.localobj_bytes, 0u);   // MemoryObject kernels
  EXPECT_GT(total.broadcast_ops, 0u);    // Broadcast acceleration
  EXPECT_EQ(total.select_words, 0u);     // nothing used Select
}

TEST(Solver, SharedDomainBuildsExactlyOneTreePerForceEvaluation) {
  // The tentpole invariant: SPH and gravity share ONE tree build per force
  // evaluation.  initialize() runs one evaluation; each KDK step runs
  // exactly one more (the corrector — its output doubles as the next step's
  // predictor forces).
  for (const GravityBackend backend :
       {GravityBackend::kPmPp, GravityBackend::kTreePm}) {
    SimConfig cfg = small_config();
    cfg.np_side = 6;
    cfg.gravity_backend = backend;
    cfg.hydro = backend == GravityBackend::kPmPp;  // hydro exercises the SPH path
    util::ThreadPool pool(2);
    Solver solver(cfg, pool);
    solver.initialize();  // one force evaluation
    EXPECT_EQ(solver.interaction_domain().stats().builds, 1u) << to_string(backend);
    const auto s1 = solver.step();
    EXPECT_EQ(s1.tree_builds, 1) << to_string(backend);
    const auto s2 = solver.step();
    EXPECT_EQ(s2.tree_builds, 1) << to_string(backend);
    EXPECT_EQ(solver.interaction_domain().stats().builds, 3u) << to_string(backend);
    EXPECT_GE(s2.tree_seconds, 0.0);
  }
}

TEST(Solver, DisplacementPolicySkipsRebuildsOnQuiescentStepsAndMatchesAlways) {
  // An unperturbed lattice (sigma = 0) barely moves: with a Verlet skin the
  // displacement policy must reuse the initial tree on every later force
  // evaluation, and the physics must match the always-rebuild run.
  SimConfig cfg = small_config();
  cfg.np_side = 6;
  cfg.hydro = false;
  cfg.sigma_norm = 0.0;
  cfg.n_steps = 2;
  util::ThreadPool pool(1);

  SimConfig reuse_cfg = cfg;
  reuse_cfg.domain_rebuild = domain::RebuildPolicy::kDisplacement;
  reuse_cfg.domain_skin = 0.1 * cfg.box / cfg.np_side;

  Solver always(cfg, pool);
  Solver reuse(reuse_cfg, pool);
  always.initialize();
  reuse.initialize();
  int reuses = 0;
  for (int s = 0; s < cfg.n_steps; ++s) {
    always.step();
    const auto stats = reuse.step();
    reuses += stats.tree_reuses;
  }
  EXPECT_EQ(reuse.interaction_domain().stats().builds, 1u);
  EXPECT_GT(reuses, 0);

  const auto acc_a = always.gravity_accelerations();
  const auto acc_r = reuse.gravity_accelerations();
  ASSERT_EQ(acc_a.size(), acc_r.size());
  for (std::size_t i = 0; i < acc_a.size(); ++i) {
    EXPECT_NEAR(acc_a[i].x, acc_r[i].x, 1e-5);
    EXPECT_NEAR(acc_a[i].y, acc_r[i].y, 1e-5);
    EXPECT_NEAR(acc_a[i].z, acc_r[i].z, 1e-5);
  }
  for (std::size_t i = 0; i < always.dm().size(); ++i) {
    EXPECT_NEAR(always.dm().x[i], reuse.dm().x[i], 1e-5);
    EXPECT_NEAR(always.dm().vx[i], reuse.dm().vx[i], 1e-5);
  }
}

TEST(GravityBackend, StringRoundTripThroughConfig) {
  util::Config cfg;
  std::string error;
  for (const GravityBackend b : {GravityBackend::kPmPp, GravityBackend::kFmm,
                                 GravityBackend::kTreePm}) {
    cfg.set("gravity.backend", to_string(b));
    GravityBackend out = GravityBackend::kPmPp;
    ASSERT_TRUE(cfg.read("gravity.backend", out, error)) << error;
    EXPECT_EQ(out, b);
  }
  // The JSONL `backend` field and hacc_run's banner print these.
  EXPECT_STREQ(to_string(GravityBackend::kPmPp), "pm_pp");
  EXPECT_STREQ(to_string(GravityBackend::kFmm), "fmm");
  EXPECT_STREQ(to_string(GravityBackend::kTreePm), "treepm");
  EXPECT_STREQ(to_string(InitialConditions::kZeldovich), "zeldovich");
  EXPECT_STREQ(to_string(InitialConditions::kSedov), "sedov");
}

TEST(PmGradientConfig, StringRoundTripThroughConfig) {
  util::Config cfg;
  std::string error;
  for (const gravity::PmGradient g :
       {gravity::PmGradient::kSpectral, gravity::PmGradient::kFd4,
        gravity::PmGradient::kFd6}) {
    cfg.set("gravity.pm_gradient", gravity::to_string(g));
    gravity::PmGradient out = gravity::PmGradient::kSpectral;
    ASSERT_TRUE(cfg.read("gravity.pm_gradient", out, error)) << error;
    EXPECT_EQ(out, g);
  }
}

TEST(PmGradientConfig, FdSolverTracksSpectralSolver) {
  // One predictor force evaluation with the fd6 gradient stays close to the
  // spectral reference at the solver level (long-range mesh part only; the
  // short-range PP sum is identical by construction).
  SimConfig cfg = small_config();
  cfg.np_side = 6;
  cfg.n_steps = 1;
  util::ThreadPool pool(4);

  Solver spectral(cfg, pool);
  spectral.initialize();
  const auto a_ref = spectral.gravity_accelerations();

  cfg.pm_gradient = gravity::PmGradient::kFd6;
  Solver fd(cfg, pool);
  fd.initialize();
  const auto a_fd = fd.gravity_accelerations();

  ASSERT_EQ(a_ref.size(), a_fd.size());
  double diff = 0.0, ref = 0.0;
  for (std::size_t i = 0; i < a_ref.size(); ++i) {
    diff += norm2(a_ref[i] - a_fd[i]);
    ref += norm2(a_ref[i]);
  }
  EXPECT_LT(std::sqrt(diff / std::max(ref, 1e-30)), 0.02);
}

TEST(GravityBackend, RejectsUnknownNames) {
  GravityBackend out = GravityBackend::kTreePm;
  EXPECT_FALSE(util::parse_name("p3m", out));
  EXPECT_FALSE(util::parse_name("", out));
  EXPECT_FALSE(util::parse_name("FMM", out));
  EXPECT_EQ(out, GravityBackend::kTreePm);  // untouched on failure
}

namespace backend_parity {

double rms(const std::vector<util::Vec3d>& a) {
  double s = 0.0;
  for (const auto& v : a) s += norm2(v);
  return std::sqrt(s / static_cast<double>(a.size()));
}

double rms_diff(const std::vector<util::Vec3d>& a, const std::vector<util::Vec3d>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += norm2(a[i] - b[i]);
  return std::sqrt(s / static_cast<double>(a.size()));
}

}  // namespace backend_parity

TEST(Solver, BackendsAgreeOnUnperturbedLattice) {
  // sigma_norm = 0 leaves the exact initial lattice, whose gravity vanishes
  // by symmetry: every backend must keep it in equilibrium.  np_side is odd
  // so no particle pair sits exactly half a box apart, where the minimum
  // image is ambiguous.  The mesh-free fmm backend cancels to float
  // round-off; pm_pp carries a small CIC-aliasing self-force (the lattice
  // is incommensurate with the PM grid), which bounds the tolerance.
  SimConfig cfg = small_config();
  cfg.np_side = 9;
  cfg.hydro = false;
  cfg.sigma_norm = 0.0;
  util::ThreadPool pool(4);

  const double dx = cfg.box / cfg.np_side;
  const double m = cfg.box * cfg.box * cfg.box / (cfg.np_side * cfg.np_side * cfg.np_side);
  const double a_init = ic::Cosmology::a_of_z(cfg.z_init);
  const double g_code = 3.0 * cfg.cosmo.omega_m / (8.0 * M_PI * a_init);
  const double scale = g_code * m / (dx * dx);  // neighbor-force magnitude

  Solver pm(cfg, pool);
  pm.initialize();
  cfg.gravity_backend = GravityBackend::kFmm;
  Solver fmm(cfg, pool);
  fmm.initialize();
  cfg.gravity_backend = GravityBackend::kTreePm;
  Solver treepm(cfg, pool);
  treepm.initialize();

  const auto a_pm = pm.gravity_accelerations();
  const auto a_fmm = fmm.gravity_accelerations();
  const auto a_tp = treepm.gravity_accelerations();
  EXPECT_LT(backend_parity::rms(a_fmm), 1e-3 * scale);
  EXPECT_LT(backend_parity::rms(a_pm), 0.03 * scale);
  EXPECT_LT(backend_parity::rms_diff(a_fmm, a_pm), 0.03 * scale);
  EXPECT_LT(backend_parity::rms_diff(a_tp, a_pm), 0.03 * scale);
}

TEST(Solver, TreePmMatchesPmPpOnZeldovichIcs) {
  // Identical PM long range and short-range force law: the backends may
  // differ only by the far-field multipole approximation.
  SimConfig cfg = small_config();
  cfg.hydro = false;
  util::ThreadPool pool(4);
  Solver pm(cfg, pool);
  pm.initialize();
  cfg.gravity_backend = GravityBackend::kTreePm;
  Solver treepm(cfg, pool);
  treepm.initialize();

  const auto a_pm = pm.gravity_accelerations();
  const auto a_tp = treepm.gravity_accelerations();
  EXPECT_LT(backend_parity::rms_diff(a_tp, a_pm), 1e-3 * backend_parity::rms(a_pm));
}

TEST(Solver, FmmBackendExercisesFarFieldAndStaysFinite) {
  SimConfig cfg = small_config();
  cfg.np_side = 16;
  cfg.hydro = false;
  cfg.leaf_size = 4;  // thin leaves: the MAC accepts real far-field work
  cfg.gravity_backend = GravityBackend::kFmm;
  cfg.n_steps = 1;
  util::ThreadPool pool(4);
  Solver solver(cfg, pool);
  solver.initialize();
  EXPECT_GT(solver.fmm_ops().m2p_ops, 0u);
  for (const auto& a : solver.gravity_accelerations()) {
    ASSERT_TRUE(std::isfinite(a.x) && std::isfinite(a.y) && std::isfinite(a.z));
  }
  // The fmm backend replaces the mesh: the tree stages and the near-field
  // kernel run, the PM stage never.
  const StageTotals& stages = solver.stage_totals();
  EXPECT_GT(stages.at("fmm_build").runs, 0u);
  EXPECT_GT(stages.at("far_field").runs, 0u);
  EXPECT_EQ(stages.count("pm"), 0u);
  EXPECT_GT(solver.queue().aggregate_by_kernel().at("grav_pp").launches, 0u);
}

TEST(Solver, DoubleInitializeFailsLoudly) {
  // Regression: initialize() (and therefore run()) used to silently
  // regenerate ICs over an evolved state.
  SimConfig cfg = small_config();
  cfg.np_side = 6;
  util::ThreadPool pool(2);
  Solver solver(cfg, pool);
  EXPECT_FALSE(solver.initialized());
  solver.initialize();
  EXPECT_TRUE(solver.initialized());
  EXPECT_THROW(solver.initialize(), std::logic_error);
  EXPECT_THROW(solver.run(), std::logic_error);  // run() re-initializes
}

TEST(Solver, StepBeforeInitializeFailsLoudly) {
  SimConfig cfg = small_config();
  cfg.np_side = 6;
  util::ThreadPool pool(2);
  Solver solver(cfg, pool);
  EXPECT_THROW(solver.step(), std::logic_error);
  EXPECT_THROW(solver.prepare_forces(), std::logic_error);
  solver.initialize();
  EXPECT_NO_THROW(solver.step());
}

TEST(Solver, StepReportsStats) {
  SimConfig cfg = small_config();
  cfg.np_side = 6;
  cfg.n_steps = 2;
  util::ThreadPool pool(2);
  Solver solver(cfg, pool);
  solver.initialize();
  const StepStats s1 = solver.step();
  const StepStats s2 = solver.step();
  EXPECT_EQ(s1.step, 1);
  EXPECT_EQ(s2.step, 2);
  EXPECT_DOUBLE_EQ(s2.a0, s1.a1);
  EXPECT_DOUBLE_EQ(s1.da, solver.time_step());
  EXPECT_DOUBLE_EQ(s2.z, solver.redshift());
  EXPECT_GT(s1.kinetic_energy, 0.0);
  EXPECT_GT(s1.thermal_energy, 0.0);
  EXPECT_GT(s1.max_velocity, 0.0);
  EXPECT_GT(s1.max_acceleration, 0.0);
  EXPECT_GE(s1.wall_seconds, 0.0);
  // The stats energies agree with the independent diagnostics pass.
  const auto d = solver.diagnostics();
  EXPECT_NEAR(s2.kinetic_energy, d.kinetic_energy,
              1e-12 * d.kinetic_energy);
}

TEST(Solver, RestoreValidatesShapeAndLifecycle) {
  SimConfig cfg = small_config();
  cfg.np_side = 6;
  util::ThreadPool pool(2);

  Solver donor(cfg, pool);
  donor.initialize();
  const StepStats s = donor.step();

  // Shape mismatches and bad scale factors fail loudly.
  Solver fresh(cfg, pool);
  EXPECT_THROW(fresh.restore(ParticleSet{}, ParticleSet{}, s.a1, 1),
               std::invalid_argument);
  EXPECT_THROW(fresh.restore(donor.dm(), ParticleSet{}, s.a1, 1),
               std::invalid_argument);  // hydro config expects baryons
  EXPECT_THROW(fresh.restore(donor.dm(), donor.gas(), -1.0, 1),
               std::invalid_argument);

  // A valid restore adopts the state and continues.
  fresh.restore(donor.dm(), donor.gas(), s.a1, donor.steps_taken());
  EXPECT_TRUE(fresh.initialized());
  EXPECT_DOUBLE_EQ(fresh.scale_factor(), donor.scale_factor());
  EXPECT_EQ(fresh.steps_taken(), donor.steps_taken());
  EXPECT_THROW(fresh.restore(donor.dm(), donor.gas(), s.a1, 1),
               std::logic_error);  // restore is initialization too
  EXPECT_NO_THROW(fresh.step());
}

TEST(Solver, SetTimeStepValidatesAndApplies) {
  SimConfig cfg = small_config();
  cfg.np_side = 6;
  util::ThreadPool pool(2);
  Solver solver(cfg, pool);
  EXPECT_THROW(solver.set_time_step(0.0), std::invalid_argument);
  EXPECT_THROW(solver.set_time_step(-1e-3), std::invalid_argument);
  solver.set_time_step(1e-3);
  EXPECT_DOUBLE_EQ(solver.time_step(), 1e-3);
  solver.initialize();
  const StepStats s = solver.step();
  EXPECT_DOUBLE_EQ(s.da, 1e-3);
}

TEST(ConfigSignature, SensitiveToPhysicsNotTuning) {
  const SimConfig base;
  EXPECT_EQ(config_signature(base), config_signature(SimConfig{}));

  SimConfig seed = base;
  seed.seed += 1;
  EXPECT_NE(config_signature(seed), config_signature(base));
  SimConfig np = base;
  np.np_side += 1;
  EXPECT_NE(config_signature(np), config_signature(base));
  SimConfig backend = base;
  backend.gravity_backend = GravityBackend::kFmm;
  EXPECT_NE(config_signature(backend), config_signature(base));
  SimConfig hydro = base;
  hydro.hydro = false;
  EXPECT_NE(config_signature(hydro), config_signature(base));

  // Execution-tuning knobs are restartable: they do not change the hash.
  SimConfig tuning = base;
  tuning.sub_group_size = 16;
  tuning.sg_per_wg = 8;
  tuning.variants = VariantSelection::uniform(xsycl::CommVariant::kBroadcast);
  tuning.scenario = "renamed";
  EXPECT_EQ(config_signature(tuning), config_signature(base));
}

TEST(Solver, SubGroupSizeSixteenRuns) {
  SimConfig cfg = small_config();
  cfg.np_side = 6;
  cfg.n_steps = 1;
  cfg.sub_group_size = 16;  // Aurora's HACC_SYCL_SG_SIZE
  util::ThreadPool pool(4);
  Solver solver(cfg, pool);
  solver.run();
  for (const auto& s : solver.queue().history()) {
    EXPECT_EQ(s.sub_group_size, 16);
  }
}

// Solver construction rejects a sub-group size the launches could not run,
// before it allocates anything.
class SolverSubGroupSize : public ::testing::TestWithParam<int> {};

TEST_P(SolverSubGroupSize, ConstructionThrowsInvalidArgument) {
  SimConfig cfg = small_config();
  cfg.sub_group_size = GetParam();
  util::ThreadPool pool(1);
  EXPECT_THROW(Solver solver(cfg, pool), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Invalid, SolverSubGroupSize,
                         ::testing::Values(0, -32, 12, 96, 128));

TEST(Solver, ConstructsAtEveryValidSubGroupSize) {
  util::ThreadPool pool(1);
  for (const int sg : {2, 4, 8, 16, 32, 64}) {
    SimConfig cfg = small_config();
    cfg.sub_group_size = sg;
    EXPECT_NO_THROW(Solver solver(cfg, pool)) << sg;
  }
}

// Solver-level bit snapshot: FNV-1a hashes of the particle state after
// initialize() plus one step() on a 1-thread pool, per gravity backend and
// shard count, with hydro on (and once gravity-only, which pins the engine's
// dark-matter-only path).  It pins the solver's whole force path (the SPH
// chain, the shard engine and every gravity backend), so a change that only
// moves code must reproduce every row.  A mismatch prints the measured row in the
// format of solver_output_bits.inc.  At this size treepm's MAC accepts no
// cell inside the cutoff, so its row equals pm_pp's; it still pins the
// fmm_build -> short_range -> far_field chain.

// Gas kernel outputs m0 V moments crk rho dvel P cs ax ay az vsig du; gas
// h u x y z vx vy vz; dm x y z vx vy vz; gravity_accelerations().
constexpr int kSolverBitsColumns = 28;
using SolverBits = std::array<std::uint64_t, kSolverBitsColumns>;

struct SolverBitsRow {
  const char* backend;
  int shard_count;
  SolverBits hashes;
  bool hydro = true;
};

constexpr SolverBitsRow kSolverBits[] = {
#include "solver_output_bits.inc"
};

template <typename T>
std::uint64_t fnv1a(const std::vector<T>& v) {
  std::uint64_t h = 14695981039346656037ull;
  for (const T& x : v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &x, sizeof bytes);
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
  }
  return h;
}

SolverBits solver_bits(GravityBackend backend, int shard_count, bool hydro) {
  SimConfig cfg;
  cfg.np_side = 8;
  cfg.box = 25.0;
  cfg.pm_grid = 16;
  cfg.n_steps = 2;
  cfg.seed = 7;
  cfg.gravity_backend = backend;
  cfg.shard_count = shard_count;
  cfg.hydro = hydro;
  util::ThreadPool pool(1);
  Solver solver(cfg, pool);
  solver.initialize();
  solver.step();
  const ParticleSet& g = solver.gas();
  const ParticleSet& d = solver.dm();
  return {fnv1a(g.m0),  fnv1a(g.V),    fnv1a(g.moments), fnv1a(g.crk),
          fnv1a(g.rho), fnv1a(g.dvel), fnv1a(g.P),       fnv1a(g.cs),
          fnv1a(g.ax),  fnv1a(g.ay),   fnv1a(g.az),      fnv1a(g.vsig),
          fnv1a(g.du),  fnv1a(g.h),    fnv1a(g.u),       fnv1a(g.x),
          fnv1a(g.y),   fnv1a(g.z),    fnv1a(g.vx),      fnv1a(g.vy),
          fnv1a(g.vz),  fnv1a(d.x),    fnv1a(d.y),       fnv1a(d.z),
          fnv1a(d.vx),  fnv1a(d.vy),   fnv1a(d.vz),
          fnv1a(solver.gravity_accelerations())};
}

class SolverOutputBits
    : public ::testing::TestWithParam<std::tuple<GravityBackend, int, bool>> {};

INSTANTIATE_TEST_SUITE_P(
    BackendsAndShardCounts, SolverOutputBits,
    ::testing::Values(std::make_tuple(GravityBackend::kPmPp, 1, true),
                      std::make_tuple(GravityBackend::kFmm, 1, true),
                      std::make_tuple(GravityBackend::kTreePm, 1, true),
                      std::make_tuple(GravityBackend::kPmPp, 4, true),
                      std::make_tuple(GravityBackend::kFmm, 4, true),
                      std::make_tuple(GravityBackend::kTreePm, 4, true),
                      std::make_tuple(GravityBackend::kPmPp, 4, false)),
    [](const ::testing::TestParamInfo<std::tuple<GravityBackend, int, bool>>&
           info) {
      return std::string(to_string(std::get<0>(info.param))) + "_shards" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "" : "_gravity");
    });

TEST_P(SolverOutputBits, MatchesRecordedHashes) {
  const auto [backend, shard_count, hydro] = GetParam();
  const SolverBits got = solver_bits(backend, shard_count, hydro);
  std::ostringstream row;
  row << "{\"" << to_string(backend) << "\", " << shard_count << ", {";
  for (std::size_t k = 0; k < got.size(); ++k) {
    row << (k ? ", " : "") << "0x" << std::hex << got[k] << std::dec << "ull";
  }
  row << "}" << (hydro ? "" : ", false") << "},";
  const SolverBitsRow* want = nullptr;
  for (const auto& r : kSolverBits) {
    if (r.backend == std::string(to_string(backend)) &&
        r.shard_count == shard_count && r.hydro == hydro) {
      want = &r;
    }
  }
  if (want == nullptr) {
    ADD_FAILURE() << "no snapshot row; measured:\n" << row.str();
  } else {
    EXPECT_EQ(got, want->hashes) << "measured:\n" << row.str();
  }
}

}  // namespace
}  // namespace hacc::core
