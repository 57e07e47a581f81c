// Auto-recovery and checkpoint-failure tests for ScenarioRunner: the
// `--restart auto` scan (newest valid wins, corrupt candidates fall back,
// .tmp leftovers are ignored, all-corrupt throws), the loud failure policy
// (durable JSONL error event + throw, or continue-on-error), double-buffered
// retention, and a runner-level crash sweep — a simulated process death at
// every syscall of the first checkpoint write, followed by an auto-restart
// that must end bit-identical to an uninterrupted run.
//
// One single-worker pool throughout so "identical" can mean exact float
// equality (see test_runner.cpp).

#include "run/runner.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "io/fault_fs.hpp"
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

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), {}};
}

void flip_byte(const std::string& path, std::size_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

int count_events(const std::string& log, const std::string& type) {
  int n = 0;
  std::string::size_type pos = 0;
  const std::string needle = "\"type\":\"" + type + "\"";
  while ((pos = log.find(needle, pos)) != std::string::npos) {
    ++n;
    pos += needle.size();
  }
  return n;
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& tail) {
    const std::string p = ::testing::TempDir() + "/hacc_crashrec_" + tail;
    cleanup_.push_back(p);
    return p;
  }
  void TearDown() override {
    io::FaultInjector::global().disarm();
    for (const auto& base : cleanup_) {
      std::remove(base.c_str());
      for (int s = 0; s <= 64; ++s) {
        const std::string step = base + ".step" + std::to_string(s);
        std::remove(step.c_str());
        std::remove((step + ".tmp").c_str());
      }
    }
  }

  // The shared small scenario: 4 fixed steps, checkpoints at 2 and 4.
  Scenario scenario(const std::string& tag) {
    Scenario s;
    EXPECT_TRUE(find_scenario("paper-benchmark", s));
    s.sim.np_side = 6;
    s.sim.n_steps = 4;
    s.run.checkpoint_path = temp_path(tag);
    s.run.checkpoint_every = 2;
    return s;
  }

  std::vector<std::string> cleanup_;
};

TEST_F(CrashRecoveryTest, AutoRestartPicksNewestValidAndFallsBackPastCorrupt) {
  Scenario s = scenario("fallback");
  s.run.log_path = temp_path("fallback.jsonl");

  ScenarioRunner full(s.sim, s.run, test_pool());
  const RunResult full_result = full.run();
  ASSERT_EQ(full_result.checkpoints_written, 2);
  const std::string step2 = full_result.checkpoint_files[0];
  const std::string step4 = full_result.checkpoint_files[1];

  // Corrupt the newest checkpoint mid-payload: auto-recovery must detect it
  // and fall back to step 2, then rerun steps 3..4 to the same final state.
  flip_byte(step4, 2000);
  RunOptions resume = s.run;
  resume.restart_from = RunOptions::kRestartAuto;
  resume.log_path = temp_path("fallback_resume.jsonl");
  ScenarioRunner recovered(s.sim, resume, test_pool());
  const RunResult rr = recovered.run();

  EXPECT_EQ(rr.recovered_from_step, 2);
  EXPECT_EQ(rr.steps, 2);
  EXPECT_EQ(rr.total_steps, 4);
  EXPECT_DOUBLE_EQ(rr.final_a, full_result.final_a);
  expect_bitwise_equal(recovered.solver().dm(), full.solver().dm(), "dm");
  expect_bitwise_equal(recovered.solver().gas(), full.solver().gas(), "gas");

  // The event stream tells the whole story: a failed validation of step 4
  // (crc_mismatch), then the recovery record naming step 2.
  const std::string log = slurp(resume.log_path);
  EXPECT_NE(log.find("\"type\":\"ckpt_validate\",\"step\":4"),
            std::string::npos) << log;
  EXPECT_NE(log.find("\"status\":\"crc_mismatch\""), std::string::npos) << log;
  EXPECT_NE(log.find("\"type\":\"recovery\",\"step\":2"), std::string::npos)
      << log;
  EXPECT_NE(log.find("\"recovered_from\":2"), std::string::npos) << log;
  EXPECT_GE(count_events(log, "ckpt_validate"), 2) << log;
}

TEST_F(CrashRecoveryTest, AutoRestartStartsFreshWhenNoCandidatesExist) {
  Scenario s = scenario("fresh");
  s.run.restart_from = RunOptions::kRestartAuto;
  s.run.log_path = temp_path("fresh.jsonl");

  ScenarioRunner runner(s.sim, s.run, test_pool());
  const RunResult result = runner.run();
  EXPECT_EQ(result.recovered_from_step, -1);
  EXPECT_EQ(result.steps, 4);
  EXPECT_EQ(result.checkpoints_written, 2);

  const std::string log = slurp(s.run.log_path);
  EXPECT_NE(log.find("\"recovered_from\":-1,\"candidates\":0"),
            std::string::npos) << log;
  EXPECT_NE(log.find("\"type\":\"init\""), std::string::npos) << log;
}

TEST_F(CrashRecoveryTest, AutoRestartThrowsWhenEveryCandidateIsCorrupt) {
  Scenario s = scenario("allbad");
  ScenarioRunner writer(s.sim, s.run, test_pool());
  const RunResult result = writer.run();
  ASSERT_EQ(result.checkpoints_written, 2);
  for (const auto& file : result.checkpoint_files) flip_byte(file, 3000);

  RunOptions resume = s.run;
  resume.restart_from = RunOptions::kRestartAuto;
  ScenarioRunner resumer(s.sim, resume, test_pool());
  // Candidates exist but none validates: refusing to silently recompute
  // from ICs is the whole point of the scan.
  EXPECT_THROW(resumer.run(), std::runtime_error);
}

TEST_F(CrashRecoveryTest, AutoRestartIgnoresTmpLeftoversAndForeignSuffixes) {
  Scenario s = scenario("leftover");
  ScenarioRunner writer(s.sim, s.run, test_pool());
  const RunResult result = writer.run();
  ASSERT_EQ(result.checkpoints_written, 2);

  // A .tmp staging leftover of a write that died pre-rename, and a file
  // whose suffix is not purely numeric: neither is a restart candidate.
  std::remove(result.checkpoint_files[1].c_str());  // drop step 4
  const std::string tmp = s.run.checkpoint_path + ".step6.tmp";
  const std::string odd = s.run.checkpoint_path + ".step7x";
  cleanup_.push_back(tmp);
  cleanup_.push_back(odd);
  std::ofstream(tmp, std::ios::binary) << "torn garbage";
  std::ofstream(odd, std::ios::binary) << "not a checkpoint";

  RunOptions resume = s.run;
  resume.restart_from = RunOptions::kRestartAuto;
  resume.checkpoint_every = 0;
  ScenarioRunner recovered(s.sim, resume, test_pool());
  const RunResult rr = recovered.run();
  EXPECT_EQ(rr.recovered_from_step, 2);
  EXPECT_EQ(rr.total_steps, 4);
}

TEST_F(CrashRecoveryTest, AutoRestartSkipsStepSuffixBeyondAnInt) {
  Scenario s = scenario("huge");
  ScenarioRunner writer(s.sim, s.run, test_pool());
  ASSERT_EQ(writer.run().checkpoints_written, 2);

  // An all-digit suffix too large for a step number is not a candidate:
  // the scan skips it and resumes from the valid step-4 file beside it.
  const std::string huge = s.run.checkpoint_path + ".step99999999999";
  cleanup_.push_back(huge);
  std::ofstream(huge, std::ios::binary) << "not a checkpoint";

  RunOptions resume = s.run;
  resume.restart_from = RunOptions::kRestartAuto;
  resume.checkpoint_every = 0;
  ScenarioRunner recovered(s.sim, resume, test_pool());
  const RunResult rr = recovered.run();
  EXPECT_EQ(rr.recovered_from_step, 4);
  EXPECT_EQ(rr.total_steps, 4);
}

TEST_F(CrashRecoveryTest, CheckpointFailureLogsDurableErrorEventAndThrows) {
  Scenario s = scenario("fail");
  s.run.checkpoint_path = temp_path("no-such-dir") + "/nested/ckpt";
  s.run.log_path = temp_path("fail.jsonl");

  ScenarioRunner runner(s.sim, s.run, test_pool());
  EXPECT_THROW(runner.run(), std::runtime_error);

  const std::string log = slurp(s.run.log_path);
  EXPECT_NE(log.find("\"type\":\"error\""), std::string::npos) << log;
  EXPECT_NE(log.find("\"what\":\"checkpoint\""), std::string::npos) << log;
  EXPECT_NE(log.find("\"status\":\"open_failed\""), std::string::npos) << log;
}

TEST_F(CrashRecoveryTest, ContinueOnErrorKeepsSteppingAndCountsFailures) {
  Scenario s = scenario("survive");
  s.run.checkpoint_path = temp_path("no-such-dir") + "/nested/ckpt";
  s.run.checkpoint_continue_on_error = true;
  s.run.log_path = temp_path("survive.jsonl");

  ScenarioRunner runner(s.sim, s.run, test_pool());
  const RunResult result = runner.run();
  EXPECT_EQ(result.steps, 4) << "the run must finish despite failed writes";
  EXPECT_EQ(result.checkpoints_written, 0);
  EXPECT_EQ(result.checkpoint_failures, 2);

  const std::string log = slurp(s.run.log_path);
  EXPECT_EQ(count_events(log, "error"), 2) << log;
}

TEST_F(CrashRecoveryTest, RetentionKeepsOnlyTheNewestCheckpoints) {
  Scenario s = scenario("keep");
  s.sim.n_steps = 6;
  s.run.checkpoint_every = 1;
  s.run.checkpoint_keep = 2;
  s.run.log_path = temp_path("keep.jsonl");

  ScenarioRunner runner(s.sim, s.run, test_pool());
  const RunResult result = runner.run();
  ASSERT_EQ(result.checkpoints_written, 6);
  ASSERT_EQ(result.checkpoint_files.size(), 6u) << "full write history";

  // Only the newest two remain on disk, and both still fully validate.
  for (int step = 1; step <= 6; ++step) {
    const std::string path =
        s.run.checkpoint_path + ".step" + std::to_string(step);
    if (step <= 4) {
      EXPECT_FALSE(file_exists(path)) << path;
    } else {
      ASSERT_TRUE(file_exists(path)) << path;
      const core::CkptResult v = core::validate_run_checkpoint(path);
      EXPECT_TRUE(v) << path << ": " << v.message();
    }
  }
  const std::string log = slurp(s.run.log_path);
  EXPECT_EQ(count_events(log, "ckpt_prune"), 4) << log;

  // The pruned files never confuse a recovery: the scan sees only the two
  // survivors and resumes from the newest.
  RunOptions resume = s.run;
  resume.restart_from = RunOptions::kRestartAuto;
  resume.log_path.clear();
  ScenarioRunner resumed(s.sim, resume, test_pool());
  const RunResult rr = resumed.run();
  EXPECT_EQ(rr.recovered_from_step, 6);
  EXPECT_EQ(rr.steps, 0) << "nothing left to run; the state is final";
}

// The tentpole end-to-end invariant: kill the run (simulated) at EVERY
// syscall boundary of its first checkpoint write — plus points inside the
// second write — then auto-restart.  Every kill point must recover to a
// final state bit-identical to the uninterrupted run.
TEST_F(CrashRecoveryTest, CrashAtEverySyscallOfACheckpointWriteAutoRecovers) {
  if (!io::fault_injection_compiled()) {
    GTEST_SKIP() << "built with HACC_FAULT_INJECTION=OFF";
  }

  // Reference: the uninterrupted run.
  Scenario ref = scenario("sweep_ref");
  ScenarioRunner full(ref.sim, ref.run, test_pool());
  const RunResult full_result = full.run();
  ASSERT_EQ(full_result.checkpoints_written, 2);

  // The checkpoint write protocol's op count is size-independent; measure it
  // once with a record-only plan on tiny particle sets.
  core::ParticleSet tiny_dm, tiny_gas;
  tiny_dm.resize(2);
  tiny_gas.resize(1);
  core::RunCheckpointMeta meta;
  meta.step = 1;
  const std::string probe = temp_path("sweep_probe.ckpt");
  cleanup_.push_back(probe + ".tmp");
  io::FaultInjector::global().arm({});
  ASSERT_TRUE(core::write_run_checkpoint(probe, tiny_dm, tiny_gas, meta));
  const std::uint64_t ops = io::FaultInjector::global().observed().ops;
  io::FaultInjector::global().disarm();
  ASSERT_GE(ops, 5u);

  // Kill points: every op of the first write (ops 1..ops, since reads and
  // the JSONL log bypass the fault layer), plus two inside the second.
  std::vector<std::uint64_t> kill_points;
  for (std::uint64_t k = 1; k <= ops; ++k) kill_points.push_back(k);
  kill_points.push_back(ops + 3);
  kill_points.push_back(2 * ops - 1);

  const Scenario s = scenario("sweep");
  for (const std::uint64_t k : kill_points) {
    // A clean slate per point: the interrupted run's leavings are the only
    // state the recovery run may see.
    for (int step = 0; step <= 8; ++step) {
      const std::string p =
          s.run.checkpoint_path + ".step" + std::to_string(step);
      std::remove(p.c_str());
      std::remove((p + ".tmp").c_str());
    }

    io::FaultInjector::Plan plan;
    plan.crash_at_op = k;
    plan.lose_unsynced = (k % 2 == 0);  // alternate post-crash disk models
    io::FaultInjector::global().arm(plan);
    {
      ScenarioRunner doomed(s.sim, s.run, test_pool());
      EXPECT_THROW(doomed.run(), io::InjectedCrash) << "op " << k;
    }
    io::FaultInjector::global().disarm();  // crash() self-disarms; belt+braces

    // Recovery: auto-restart scans whatever the crash left behind and must
    // finish the run bit-identical to the uninterrupted reference.
    RunOptions resume = s.run;
    resume.restart_from = RunOptions::kRestartAuto;
    ScenarioRunner recovered(s.sim, resume, test_pool());
    const RunResult rr = recovered.run();
    EXPECT_EQ(rr.total_steps, 4) << "op " << k;
    EXPECT_DOUBLE_EQ(rr.final_a, full_result.final_a) << "op " << k;
    expect_bitwise_equal(recovered.solver().dm(), full.solver().dm(), "dm");
    expect_bitwise_equal(recovered.solver().gas(), full.solver().gas(), "gas");

    // And the recovery run's own step-4 checkpoint is valid on disk.
    const std::string final_ckpt = s.run.checkpoint_path + ".step4";
    ASSERT_TRUE(file_exists(final_ckpt)) << "op " << k;
    const core::CkptResult v = core::validate_run_checkpoint(final_ckpt);
    EXPECT_TRUE(v) << "op " << k << ": " << v.message();
  }
}

}  // namespace
}  // namespace hacc::run
