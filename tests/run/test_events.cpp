// Golden-schema tests for the JSONL event stream (the contract
// tools/check_events.py enforces in CI) and the trace/StepStats
// reconciliation the acceptance criteria call for: the summed core.step
// trace spans must agree with the runner's wall-clock stats within 5%.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "run/runner.hpp"
#include "run/scenario.hpp"

namespace hacc::run {
namespace {

util::ThreadPool& test_pool() {
  static util::ThreadPool pool(1);
  return pool;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// The value of "type" in one event line ("" when absent).
std::string event_type(const std::string& line) {
  const std::string key = "\"type\":\"";
  const auto pos = line.find(key);
  if (pos == std::string::npos) return "";
  const auto end = line.find('"', pos + key.size());
  return line.substr(pos + key.size(), end - pos - key.size());
}

bool has_key(const std::string& line, const std::string& key) {
  return line.find("\"" + key + "\":") != std::string::npos;
}

class EventSchemaTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& tail) {
    const std::string p = ::testing::TempDir() + "/hacc_events_" + tail;
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

TEST_F(EventSchemaTest, EveryEventCarriesTypeStepAndTheMetricsSnapshot) {
  Scenario s;
  ASSERT_TRUE(find_scenario("paper-benchmark", s));
  s.sim.np_side = 6;
  s.sim.n_steps = 3;
  s.run.checkpoint_path = temp_path("schema");
  s.run.checkpoint_every = 2;
  s.run.log_path = temp_path("schema.jsonl");

  ScenarioRunner runner(s.sim, s.run, test_pool());
  const RunResult result = runner.run();
  ASSERT_EQ(result.steps, 3);
  ASSERT_GE(result.checkpoints_written, 1);

  const auto lines = read_lines(s.run.log_path);
  ASSERT_GE(lines.size(), 6u);  // begin, init, 3 steps, ckpt, summary, end

  // Envelope: every event is a one-line JSON object with "type" and "step".
  for (const auto& line : lines) {
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(event_type(line), "") << line;
    EXPECT_TRUE(has_key(line, "step")) << line;
  }

  // Stream shape: begin first, then init; run_summary and end close it out.
  EXPECT_EQ(event_type(lines.front()), "begin");
  EXPECT_EQ(event_type(lines[1]), "init");
  EXPECT_EQ(event_type(lines[lines.size() - 2]), "run_summary");
  EXPECT_EQ(event_type(lines.back()), "end");

  // Step events: one per step, each embedding the full metrics snapshot
  // (the runner-registered keys are backend-independent, so they are the
  // ones check_events.py requires on every step event).
  const std::vector<std::string> required_metrics = {
      "tree.builds",      "tree.reuses",     "tree.build_s",
      "sched.pm_s",       "sched.short_s",
      "step.wall_s.count", "step.wall_s.sum", "step.wall_s.p50",
      "step.wall_s.p95",  "step.wall_s.p99", "step.da.count",
      "ops.launches",     "ops.kernel_s",    "ops.interactions",
      "ops.m2p",          "ckpt.writes",     "ckpt.bytes",
      "ckpt.write_s",     "ckpt.validate",   "ckpt.failures",
      "ckpt.recovered_from",                 "run.outputs",
      "stepctl.da_next"};
  int step_events = 0;
  int checkpoint_events = 0;
  int validate_events = 0;
  for (const auto& line : lines) {
    const std::string type = event_type(line);
    if (type == "step") {
      ++step_events;
      ASSERT_TRUE(has_key(line, "metrics")) << line;
      for (const auto& key : required_metrics) {
        EXPECT_TRUE(has_key(line, key)) << key << " missing in: " << line;
      }
      EXPECT_TRUE(has_key(line, "a")) << line;
      EXPECT_TRUE(has_key(line, "wall_s")) << line;
    } else if (type == "checkpoint") {
      ++checkpoint_events;
      EXPECT_TRUE(has_key(line, "file")) << line;
      EXPECT_TRUE(has_key(line, "bytes")) << line;
      EXPECT_TRUE(has_key(line, "write_s")) << line;
      EXPECT_TRUE(has_key(line, "crc")) << line;
    } else if (type == "ckpt_validate") {
      ++validate_events;
      EXPECT_TRUE(has_key(line, "file")) << line;
      EXPECT_TRUE(has_key(line, "status")) << line;
    } else if (type == "run_summary") {
      ASSERT_TRUE(has_key(line, "metrics")) << line;
      for (const auto& key : required_metrics) {
        EXPECT_TRUE(has_key(line, key)) << key << " missing in: " << line;
      }
      // The summary reflects the whole run.
      EXPECT_NE(line.find("\"step.wall_s.count\":3"), std::string::npos) << line;
      EXPECT_NE(line.find("\"tree.builds\":"), std::string::npos) << line;
    }
  }
  EXPECT_EQ(step_events, result.steps);
  EXPECT_EQ(checkpoint_events, result.checkpoints_written);
}

TEST_F(EventSchemaTest, TraceSpanTotalsAgreeWithStepStatsWallTime) {
  // Acceptance criterion: the summed core.step spans in a trace must agree
  // with the StepStats wall-clock totals within 5% (they bracket the same
  // work, so the slack only covers the instrumentation itself).
  auto& tracer = obs::Tracer::global();
  tracer.disable();
  tracer.clear();
  tracer.enable();

  Scenario s;
  ASSERT_TRUE(find_scenario("paper-benchmark", s));
  s.sim.np_side = 6;
  ScenarioRunner runner(s.sim, s.run, test_pool());
  const RunResult result = runner.run();

  tracer.disable();
  double span_total = 0.0;
  int step_spans = 0;
  for (const auto& lane : tracer.snapshot()) {
    for (const auto& e : lane.events) {
      if (std::string(e.name) == "core.step") {
        span_total += e.t1 - e.t0;
        ++step_spans;
      }
    }
  }
  tracer.clear();

  double wall_total = 0.0;
  for (const auto& st : result.history) wall_total += st.wall_seconds;

  EXPECT_EQ(step_spans, result.steps);
  ASSERT_GT(wall_total, 0.0);
  EXPECT_NEAR(span_total, wall_total, 0.05 * wall_total)
      << "trace says " << span_total << " s, StepStats say " << wall_total;
}

}  // namespace
}  // namespace hacc::run
