// Scenario presets, config plumbing, and the step controller.

#include "run/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

namespace hacc::run {
namespace {

TEST(Scenario, ShipsAtLeastThreeNamedPresets) {
  const auto& all = scenarios();
  ASSERT_GE(all.size(), 3u);
  for (const char* name : {"paper-benchmark", "cosmology-box", "sph-adiabatic"}) {
    Scenario s;
    EXPECT_TRUE(find_scenario(name, s)) << name;
    EXPECT_EQ(s.name, name);
    EXPECT_EQ(s.sim.scenario, name);
    EXPECT_FALSE(s.summary.empty());
  }
  // Names are unique.
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_NE(all[i].name, all[j].name);
    }
  }
}

TEST(Scenario, PaperBenchmarkIsTheSolverDefaultConfiguration) {
  Scenario s;
  ASSERT_TRUE(find_scenario("paper-benchmark", s));
  const core::SimConfig defaults;
  EXPECT_EQ(s.sim.np_side, defaults.np_side);
  EXPECT_EQ(s.sim.n_steps, defaults.n_steps);
  EXPECT_EQ(s.sim.hydro, defaults.hydro);
  EXPECT_EQ(s.sim.gravity_backend, defaults.gravity_backend);
  EXPECT_EQ(s.run.stepping.mode, StepMode::kFixed);
  // Identical physics signature: the preset must reproduce Solver::run().
  core::SimConfig named = defaults;
  named.scenario = "paper-benchmark";
  EXPECT_EQ(core::config_signature(s.sim), core::config_signature(named));
}

// The checkpoint signature of each preset and of a few overrides, pinned:
// a moved value makes every existing checkpoint unrestartable.  shard.count
// is execution tuning, so its row must equal its preset's value.
TEST(Scenario, ConfigSignatureIsPinned) {
  struct Pin {
    const char* preset;
    const char* key;  // nullptr: the preset as shipped
    const char* text;
    std::uint64_t signature;
  };
  const Pin kPins[] = {
      {"paper-benchmark", nullptr, nullptr, 0x60cb932617a2504cull},
      {"cosmology-box", nullptr, nullptr, 0x993e3c80530e7c10ull},
      {"sph-adiabatic", nullptr, nullptr, 0x47b76ba80638b5d3ull},
      {"sedov-blast", nullptr, nullptr, 0x91e251efd7d5d497ull},
      {"paper-benchmark", "hydro", "false", 0xd261d3b4afbe9eeull},
      {"paper-benchmark", "gravity.backend", "fmm", 0x60e88a31dd2801c3ull},
      {"paper-benchmark", "ic.kind", "sedov", 0xc4ae73e3ec8e7b68ull},
      {"paper-benchmark", "shard.count", "4", 0x60cb932617a2504cull},
      {"cosmology-box", "shard.count", "4", 0x993e3c80530e7c10ull},
  };
  for (const Pin& pin : kPins) {
    SCOPED_TRACE(std::string(pin.preset) + " " + (pin.key ? pin.key : "") + "=" +
                 (pin.text ? pin.text : ""));
    Scenario s;
    ASSERT_TRUE(find_scenario(pin.preset, s));
    util::Config cfg;
    if (pin.key != nullptr) cfg.set(pin.key, pin.text);
    std::string error;
    ASSERT_TRUE(apply_config(cfg, s.sim, s.run, error)) << error;
    EXPECT_EQ(core::config_signature(s.sim), pin.signature)
        << "0x" << std::hex << core::config_signature(s.sim) << "ull";
  }
}

TEST(Scenario, UnknownNameRejected) {
  Scenario s;
  s.name = "sentinel";
  EXPECT_FALSE(find_scenario("warp-drive", s));
  EXPECT_EQ(s.name, "sentinel");  // untouched on failure
}

TEST(Scenario, ApplyConfigOverridesPhysicsAndRunKeys) {
  Scenario s;
  ASSERT_TRUE(find_scenario("cosmology-box", s));
  util::Config cfg;
  cfg.set("np", "8");
  cfg.set("z_final", "20");
  cfg.set("gravity.backend", "fmm");
  cfg.set("run.mode", "fixed");
  cfg.set("run.checkpoint_every", "2");
  cfg.set("run.outputs_z", "30, 20");
  std::string error;
  ASSERT_TRUE(apply_config(cfg, s.sim, s.run, error)) << error;
  EXPECT_EQ(s.sim.np_side, 8);
  EXPECT_DOUBLE_EQ(s.sim.z_final, 20.0);
  EXPECT_EQ(s.sim.gravity_backend, core::GravityBackend::kFmm);
  EXPECT_EQ(s.run.stepping.mode, StepMode::kFixed);
  EXPECT_EQ(s.run.checkpoint_every, 2);
  ASSERT_EQ(s.run.outputs_z.size(), 2u);
  EXPECT_DOUBLE_EQ(s.run.outputs_z[0], 30.0);
  EXPECT_DOUBLE_EQ(s.run.outputs_z[1], 20.0);
}

TEST(Scenario, ApplyConfigRejectsBadValues) {
  const auto rejects = [](const std::string& key, const std::string& value) {
    Scenario s;
    EXPECT_TRUE(find_scenario("paper-benchmark", s));
    util::Config cfg;
    cfg.set(key, value);
    std::string error;
    const bool ok = apply_config(cfg, s.sim, s.run, error);
    EXPECT_FALSE(ok) << key << "=" << value;
    EXPECT_FALSE(error.empty()) << key << "=" << value;
  };
  rejects("gravity.backend", "p3m");
  rejects("gravity.pm_gradient", "fd8");
  rejects("run.mode", "sometimes");
  rejects("run.outputs_z", "10,abc");
  rejects("np", "1");
  rejects("z_final", "500");  // z_init defaults to 200: must be > z_final
  rejects("domain.skin", "-0.5");
  rejects("domain.skin", "nan");
  rejects("domain.rebuild", "sometimes");
  // Malformed or out-of-range numbers fail loudly instead of keeping the
  // preset's value or wrapping into the field.
  rejects("np", "16x");
  rejects("np", "4294967304");
  rejects("shard.count", "4294967297");
  rejects("hydro", "ture");
  rejects("steps", "1e3");
  rejects("box", "25abc");
  rejects("seed", "-1");
  rejects("run.max_steps", "");
}

TEST(Scenario, ApplyConfigErrorNamesTheKey) {
  Scenario s;
  ASSERT_TRUE(find_scenario("paper-benchmark", s));
  util::Config cfg;
  cfg.set("np", "16x");
  std::string error;
  EXPECT_FALSE(apply_config(cfg, s.sim, s.run, error));
  EXPECT_NE(error.find("np"), std::string::npos) << error;
  EXPECT_NE(error.find("16x"), std::string::npos) << error;
}

TEST(Scenario, DomainKeysRoundTripThroughConfig) {
  Scenario s;
  ASSERT_TRUE(find_scenario("paper-benchmark", s));
  EXPECT_DOUBLE_EQ(s.sim.domain_skin, 0.0);
  EXPECT_EQ(s.sim.domain_rebuild, domain::RebuildPolicy::kAlways);

  util::Config cfg;
  cfg.set("domain.skin", "0.25");
  cfg.set("domain.rebuild", "displacement");
  std::string error;
  ASSERT_TRUE(apply_config(cfg, s.sim, s.run, error)) << error;
  EXPECT_DOUBLE_EQ(s.sim.domain_skin, 0.25);
  EXPECT_EQ(s.sim.domain_rebuild, domain::RebuildPolicy::kDisplacement);

  // Spell the parsed policy back into a config and apply it again: the
  // round trip must land on the same enum value.
  util::Config back;
  back.set("domain.rebuild", domain::to_string(s.sim.domain_rebuild));
  Scenario fresh;
  ASSERT_TRUE(find_scenario("paper-benchmark", fresh));
  ASSERT_TRUE(apply_config(back, fresh.sim, fresh.run, error)) << error;
  EXPECT_EQ(fresh.sim.domain_rebuild, domain::RebuildPolicy::kDisplacement);

  // Domain knobs are execution tuning: they must not change the physics
  // signature a restart is validated against.
  Scenario base;
  ASSERT_TRUE(find_scenario("paper-benchmark", base));
  EXPECT_EQ(core::config_signature(base.sim), core::config_signature(s.sim));
}

TEST(StepMode, StringRoundTrip) {
  for (const StepMode m : {StepMode::kFixed, StepMode::kAdaptive}) {
    StepMode out = StepMode::kFixed;
    ASSERT_TRUE(util::parse_name(to_string(m), out));
    EXPECT_EQ(out, m);
  }
  EXPECT_STREQ(to_string(StepMode::kFixed), "fixed");
  EXPECT_STREQ(to_string(StepMode::kAdaptive), "adaptive");
  StepMode out = StepMode::kAdaptive;
  EXPECT_FALSE(util::parse_name("euler", out));
  EXPECT_EQ(out, StepMode::kAdaptive);
}

TEST(StepController, FixedModePreservesTheSolverStep) {
  core::SimConfig sim;
  StepControllerOptions opt;
  opt.mode = StepMode::kFixed;
  const StepController ctl(sim, opt);
  EXPECT_DOUBLE_EQ(ctl.next_da(0.01, 0.0025, 10.0, 1e4), 0.0025);
  EXPECT_FALSE(ctl.done(0.01, sim.n_steps - 1));
  EXPECT_TRUE(ctl.done(0.01, sim.n_steps));
}

TEST(StepController, AdaptiveRespectsBoundsAndTarget) {
  core::SimConfig sim;
  sim.z_final = 10.0;
  StepControllerOptions opt;
  opt.mode = StepMode::kAdaptive;
  opt.da_min = 1e-5;
  opt.da_max = 0.01;
  const StepController ctl(sim, opt);
  const double a = 0.02;

  // Calm state: the cap binds.
  EXPECT_DOUBLE_EQ(ctl.next_da(a, 0.0, 1e-12, 1e-12), opt.da_max);
  // Violent state: the floor binds.
  EXPECT_DOUBLE_EQ(ctl.next_da(a, 0.0, 1e12, 1e12), opt.da_min);
  // Faster particles never lengthen the step.
  double prev = 1e9;
  for (const double v : {0.1, 1.0, 10.0, 100.0}) {
    const double da = ctl.next_da(a, 0.0, v, 1.0);
    EXPECT_LE(da, prev);
    prev = da;
  }
  // The last step lands exactly on a_final.
  const double near_end = ctl.a_final() - 1e-4;
  EXPECT_DOUBLE_EQ(ctl.next_da(near_end, 0.0, 1e-12, 1e-12),
                   ctl.a_final() - near_end);
  EXPECT_TRUE(ctl.done(ctl.a_final(), 0));
  EXPECT_FALSE(ctl.done(near_end, 1000));
}

}  // namespace
}  // namespace hacc::run
