// End-to-end ScenarioRunner tests: the paper-benchmark preset must
// reproduce Solver::run() exactly, and a checkpoint restart must continue
// bit-for-bit — per gravity backend, and through the adaptive stepper.
//
// All runs here share one single-worker pool: with one thread the dynamic
// work distribution is sequential, so force evaluations are bitwise
// reproducible and "identical particle state" can mean exact float equality.

#include "run/runner.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "run/scenario.hpp"

namespace hacc::run {
namespace {

util::ThreadPool& test_pool() {
  static util::ThreadPool pool(1);
  return pool;
}

void expect_bitwise_equal(const core::ParticleSet& a, const core::ParticleSet& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(a.x, b.x) << what;
  EXPECT_EQ(a.y, b.y) << what;
  EXPECT_EQ(a.z, b.z) << what;
  EXPECT_EQ(a.vx, b.vx) << what;
  EXPECT_EQ(a.vy, b.vy) << what;
  EXPECT_EQ(a.vz, b.vz) << what;
  EXPECT_EQ(a.u, b.u) << what;
  EXPECT_EQ(a.rho, b.rho) << what;
  EXPECT_EQ(a.h, b.h) << what;
}

class RunnerTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& tail) {
    const std::string p = ::testing::TempDir() + "/hacc_runner_" + tail;
    cleanup_.push_back(p);
    return p;
  }
  void TearDown() override {
    for (const auto& base : cleanup_) {
      std::remove(base.c_str());
      for (int s = 0; s <= 64; ++s) {
        std::remove((base + ".step" + std::to_string(s)).c_str());
      }
    }
  }
  std::vector<std::string> cleanup_;
};

TEST_F(RunnerTest, PaperBenchmarkReproducesSolverRun) {
  Scenario s;
  ASSERT_TRUE(find_scenario("paper-benchmark", s));
  s.sim.np_side = 8;

  core::Solver reference(s.sim, test_pool());
  reference.run();

  ScenarioRunner runner(s.sim, s.run, test_pool());
  const RunResult result = runner.run();

  EXPECT_EQ(result.steps, s.sim.n_steps);
  EXPECT_DOUBLE_EQ(result.final_a, reference.scale_factor());
  expect_bitwise_equal(runner.solver().dm(), reference.dm(), "dm");
  expect_bitwise_equal(runner.solver().gas(), reference.gas(), "gas");
}

TEST_F(RunnerTest, CascadeRanksLaunchRecordsWithoutDoubleCounting) {
  // Regression: the short-range P-P wall was once recorded twice under
  // grav_pp, by the queue per launch and by a stopwatch around the whole
  // stage, and the cascade ranked the sum.  Every kernel total the cascade
  // ranks must be exactly the sum and count of that kernel's LaunchStats.
  Scenario s;
  ASSERT_TRUE(find_scenario("paper-benchmark", s));
  s.sim.np_side = 8;
  s.sim.n_steps = 2;

  core::Solver solver(s.sim, test_pool());
  solver.run();
  const std::vector<xsycl::LaunchStats> launches = solver.queue().history();
  const xsycl::KernelTotalsByName kernels = solver.queue().aggregate_by_kernel();
  std::map<std::string, int> ranked;
  for (const CascadeEntry& e : cascade_entries(kernels, solver.stage_totals())) {
    ++ranked[e.name];
    double seconds = 0.0;
    std::uint64_t count = 0;
    if (kernels.count(e.name) == 0) {  // a non-kernel stage
      seconds = solver.stage_totals().at(e.name).seconds;
      count = solver.stage_totals().at(e.name).runs;
    }
    for (const xsycl::LaunchStats& l : launches) {
      if (l.kernel != e.name) continue;
      seconds += l.seconds;
      ++count;
    }
    EXPECT_EQ(e.seconds, seconds) << e.name;
    EXPECT_EQ(e.calls, count) << e.name;
  }
  // The sph and short_range stage walls are their kernels' launches: ranking
  // them as well would count that time twice.
  EXPECT_EQ(ranked, (std::map<std::string, int>{
                        {"grav_pp", 1}, {"pm", 1}, {"tree", 1}, {"upBarAc", 1},
                        {"upBarAcF", 1}, {"upBarDu", 1}, {"upBarDuF", 1},
                        {"upBarEx", 1}, {"upCor", 1}, {"upGeo", 1}}));

  // The runner folds the same records step by step, clearing the history
  // as it goes: one thread makes the launches identical to the direct run.
  ScenarioRunner runner(s.sim, s.run, test_pool());
  runner.run();
  ASSERT_EQ(runner.kernel_totals().size(), kernels.size());
  for (const auto& [name, totals] : runner.kernel_totals()) {
    EXPECT_EQ(totals.launches, kernels.at(name).launches) << name;
    EXPECT_EQ(totals.ops, kernels.at(name).ops) << name;
    EXPECT_GT(totals.seconds, 0.0) << name;
  }
}

class RestartPerBackend
    : public RunnerTest,
      public ::testing::WithParamInterface<core::GravityBackend> {};

TEST_P(RestartPerBackend, CheckpointRestartContinuesBitForBit) {
  Scenario s;
  ASSERT_TRUE(find_scenario("paper-benchmark", s));
  s.sim.np_side = 7;
  s.sim.n_steps = 4;
  s.sim.gravity_backend = GetParam();
  // Hydro exercises the full pipeline on the paper backend; the tree
  // backends run the cheaper gravity-only variant.
  s.sim.hydro = s.sim.gravity_backend == core::GravityBackend::kPmPp;
  s.run.checkpoint_path = temp_path(std::string("bf_") +
                                    core::to_string(s.sim.gravity_backend));
  s.run.checkpoint_every = 2;

  // Uninterrupted N + M = 4 steps (checkpoints at 2 and 4 as a side effect).
  ScenarioRunner full(s.sim, s.run, test_pool());
  const RunResult full_result = full.run();
  ASSERT_EQ(full_result.steps, 4);
  ASSERT_EQ(full_result.checkpoints_written, 2);

  // Restart from the mid-run checkpoint and run the remaining M steps.
  RunOptions resume = s.run;
  resume.checkpoint_path.clear();
  resume.checkpoint_every = 0;
  resume.restart_from = full_result.checkpoint_files.front();
  ScenarioRunner restarted(s.sim, resume, test_pool());
  const RunResult restart_result = restarted.run();

  EXPECT_EQ(restart_result.steps, 2);
  EXPECT_EQ(restart_result.total_steps, 4);
  EXPECT_DOUBLE_EQ(restart_result.final_a, full_result.final_a);
  expect_bitwise_equal(restarted.solver().dm(), full.solver().dm(), "dm");
  expect_bitwise_equal(restarted.solver().gas(), full.solver().gas(), "gas");
}

INSTANTIATE_TEST_SUITE_P(AllBackends, RestartPerBackend,
                         ::testing::Values(core::GravityBackend::kPmPp,
                                           core::GravityBackend::kFmm,
                                           core::GravityBackend::kTreePm),
                         [](const auto& info) {
                           return std::string(core::to_string(info.param));
                         });

TEST_F(RunnerTest, AdaptiveCosmologyBoxRunsEndToEndAndRestartsIdentically) {
  Scenario s;
  ASSERT_TRUE(find_scenario("cosmology-box", s));
  ASSERT_EQ(s.run.stepping.mode, StepMode::kAdaptive);
  s.sim.np_side = 8;   // laptop-scale instance of the preset
  s.sim.z_final = 20.0;
  s.run.checkpoint_path = temp_path("box");
  s.run.checkpoint_every = 4;
  s.run.checkpoint_final = false;
  s.run.outputs_z = {30.0};
  s.run.log_path = temp_path("box.jsonl");

  ScenarioRunner full(s.sim, s.run, test_pool());
  const RunResult full_result = full.run();
  EXPECT_FALSE(full_result.hit_max_steps);
  EXPECT_NEAR(full_result.final_z, 20.0, 1e-9);
  ASSERT_GT(full_result.steps, 4) << "adaptive run should take several steps";
  ASSERT_GE(full_result.checkpoints_written, 1) << "needs a mid-run checkpoint";
  ASSERT_EQ(full_result.outputs.size(), 1u) << "z=30 diagnostics output";
  // Adaptive Δa actually varied over the run.
  double da_min = 1e9, da_max = 0.0;
  for (const auto& st : full_result.history) {
    da_min = std::min(da_min, st.da);
    da_max = std::max(da_max, st.da);
  }
  EXPECT_LT(da_min, da_max);

  // The JSONL stream has one step event per step plus begin/end.
  std::ifstream log(s.run.log_path);
  ASSERT_TRUE(log.is_open());
  int step_events = 0, begin_events = 0, end_events = 0;
  std::string line;
  while (std::getline(log, line)) {
    step_events += line.find("\"type\":\"step\"") != std::string::npos;
    begin_events += line.find("\"type\":\"begin\"") != std::string::npos;
    end_events += line.find("\"type\":\"end\"") != std::string::npos;
  }
  EXPECT_EQ(step_events, full_result.steps);
  EXPECT_EQ(begin_events, 1);
  EXPECT_EQ(end_events, 1);

  // Resume from the first mid-run checkpoint: identical final state.
  RunOptions resume = s.run;
  resume.checkpoint_path.clear();
  resume.checkpoint_every = 0;
  resume.log_path.clear();
  resume.restart_from = full_result.checkpoint_files.front();
  ScenarioRunner restarted(s.sim, resume, test_pool());
  const RunResult restart_result = restarted.run();
  EXPECT_EQ(restart_result.total_steps, full_result.total_steps);
  EXPECT_DOUBLE_EQ(restart_result.final_a, full_result.final_a);
  expect_bitwise_equal(restarted.solver().dm(), full.solver().dm(), "dm");
}

TEST_F(RunnerTest, FixedModeOutputAtZFinalFiresOnceAcrossRestart) {
  // Fixed-mode steps sum Δa to just below a_final (14 steps from z = 200
  // end at a = 0.09090909090909088 < 1/11), so an output at z_final fires
  // only under the stepper's arrival tolerance.
  Scenario s;
  ASSERT_TRUE(find_scenario("cosmology-box", s));
  s.sim.np_side = 6;
  s.sim.n_steps = 14;
  s.run.stepping.mode = StepMode::kFixed;
  s.run.outputs_z = {s.sim.z_final};
  s.run.checkpoint_path = temp_path("fixed_box");
  s.run.checkpoint_every = 7;
  s.run.checkpoint_final = false;

  ScenarioRunner full(s.sim, s.run, test_pool());
  const RunResult full_result = full.run();
  ASSERT_EQ(full_result.steps, 14);
  ASSERT_EQ(full_result.outputs.size(), 1u) << "z_final output";
  EXPECT_EQ(full_result.outputs[0].step, 14);
  ASSERT_EQ(full_result.checkpoint_files.size(), 2u);

  RunOptions resume = s.run;
  resume.checkpoint_path.clear();
  resume.checkpoint_every = 0;

  // Resumed from step 7: the output fires once, in the resumed part.
  resume.restart_from = full_result.checkpoint_files[0];
  ScenarioRunner mid(s.sim, resume, test_pool());
  const RunResult mid_result = mid.run();
  EXPECT_EQ(mid_result.steps, 7);
  ASSERT_EQ(mid_result.outputs.size(), 1u);
  EXPECT_EQ(mid_result.outputs[0].step, 14);

  // Resumed from the final state: the output already fired.
  resume.restart_from = full_result.checkpoint_files[1];
  ScenarioRunner last(s.sim, resume, test_pool());
  const RunResult last_result = last.run();
  EXPECT_EQ(last_result.steps, 0);
  EXPECT_TRUE(last_result.outputs.empty());
}

TEST_F(RunnerTest, RestartRejectsMismatchedConfig) {
  Scenario s;
  ASSERT_TRUE(find_scenario("paper-benchmark", s));
  s.sim.np_side = 6;
  s.sim.n_steps = 2;
  s.run.checkpoint_path = temp_path("mismatch");
  s.run.checkpoint_every = 1;
  ScenarioRunner writer(s.sim, s.run, test_pool());
  const RunResult result = writer.run();
  ASSERT_GE(result.checkpoints_written, 1);

  core::SimConfig other = s.sim;
  other.seed = s.sim.seed + 1;  // different universe, same shapes
  RunOptions resume;
  resume.restart_from = result.checkpoint_files.front();
  ScenarioRunner resumer(other, resume, test_pool());
  EXPECT_THROW(resumer.run(), std::runtime_error);

  RunOptions missing;
  missing.restart_from = temp_path("never-written");
  ScenarioRunner ghost(s.sim, missing, test_pool());
  EXPECT_THROW(ghost.run(), std::runtime_error);
}

TEST_F(RunnerTest, StepStatsAreOrderedAndPopulated) {
  Scenario s;
  ASSERT_TRUE(find_scenario("sph-adiabatic", s));
  s.sim.np_side = 6;
  s.run.outputs_z.clear();
  s.run.max_steps = 6;
  ScenarioRunner runner(s.sim, s.run, test_pool());
  const RunResult result = runner.run();
  ASSERT_GT(result.steps, 0);
  double prev_a = 0.0;
  int expected_step = 1;
  for (const auto& st : result.history) {
    EXPECT_EQ(st.step, expected_step++);
    EXPECT_GT(st.a1, st.a0);
    EXPECT_GT(st.da, 0.0);
    EXPECT_GE(st.a0, prev_a);
    EXPECT_GE(st.wall_seconds, 0.0);
    EXPECT_GT(st.kinetic_energy, 0.0);
    EXPECT_GT(st.max_velocity, 0.0);
    EXPECT_GT(st.max_acceleration, 0.0);
    prev_a = st.a1;
  }
}

}  // namespace
}  // namespace hacc::run
