// Guard table for the config keys' accepted texts: every row goes through
// run::apply_config on the paper-benchmark preset, so it pins what
// `hacc_run key=value` accepts and rejects whatever reader sits behind it.
// A parse rejection must name the key and quote the text; a value that
// parses but fails the key's own check (np >= 2, box > 0, skin >= 0, ...)
// is rejected by that check instead.  A key apply_config does not read
// (a misspelling) changes nothing and is left for Config::unread_keys,
// which hacc_run turns into an error.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "run/scenario.hpp"

namespace hacc::run {
namespace {

enum class Outcome {
  kAccept,        // applied; the field then reads `want`
  kRejectParse,   // the text does not parse or fit: error quotes it
  kRejectCheck,   // parses, but the key's own range check refuses it
  kUnread,        // not a key: applied nowhere, listed by unread_keys()
};

struct Row {
  const char* key;
  const char* text;
  Outcome outcome;
  const char* want = "";  // field value after an accepted row
};

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// The field behind `key`, spelled canonically for comparison.
std::string field(const Scenario& s, const std::string& key) {
  if (key == "np") return std::to_string(s.sim.np_side);
  if (key == "seed") return std::to_string(s.sim.seed);
  if (key == "box") return number(s.sim.box);
  if (key == "hydro") return s.sim.hydro ? "true" : "false";
  if (key == "shard.count") return std::to_string(s.sim.shard_count);
  if (key == "domain.skin") return number(s.sim.domain_skin);
  if (key == "run.checkpoint_final") return s.run.checkpoint_final ? "true" : "false";
  if (key == "gravity.backend") return core::to_string(s.sim.gravity_backend);
  if (key == "gravity.pm_gradient") return gravity::to_string(s.sim.pm_gradient);
  if (key == "ic.kind") return core::to_string(s.sim.ic_kind);
  if (key == "domain.rebuild") return domain::to_string(s.sim.domain_rebuild);
  if (key == "run.mode") return to_string(s.run.stepping.mode);
  ADD_FAILURE() << "no field for " << key;
  return "";
}

constexpr Outcome kOk = Outcome::kAccept;
constexpr Outcome kBad = Outcome::kRejectParse;
constexpr Outcome kRange = Outcome::kRejectCheck;
constexpr Outcome kUnknown = Outcome::kUnread;

const Row kRows[] = {
    // 32-bit integers.
    {"np", "16", kOk, "16"},
    {"np", " 16 ", kOk, "16"},
    {"np", "+16", kOk, "16"},
    {"np", "16x", kBad},
    {"np", "1e3", kBad},
    {"np", "16.0", kBad},
    {"np", "0x10", kBad},
    {"np", "4294967304", kBad},
    {"np", "99999999999999999999", kBad},
    {"np", "", kBad},
    {"np", "-16", kRange},
    {"np", "1", kRange},
    {"shard.count", "4", kOk, "4"},
    {"shard.count", " 4 ", kOk, "4"},
    {"shard.count", "+4", kOk, "4"},
    {"shard.count", "4x", kBad},
    {"shard.count", "1e3", kBad},
    {"shard.count", "4294967297", kBad},
    {"shard.count", "", kBad},
    {"shard.count", "0", kRange},
    // Unsigned 64-bit, read through a signed long: negative and
    // beyond-long texts are refused.
    {"seed", "7", kOk, "7"},
    {"seed", " 16 ", kOk, "16"},
    {"seed", "+16", kOk, "16"},
    {"seed", "4294967304", kOk, "4294967304"},
    {"seed", "9223372036854775807", kOk, "9223372036854775807"},
    {"seed", "-1", kBad},
    {"seed", "18446744073709551615", kBad},
    {"seed", "1e3", kBad},
    {"seed", "16x", kBad},
    {"seed", "", kBad},
    // Doubles: strtod's grammar, whole text, no overflow.
    {"box", "16", kOk, "16"},
    {"box", " 16 ", kOk, "16"},
    {"box", "+16", kOk, "16"},
    {"box", "1e3", kOk, "1000"},
    {"box", "2.5", kOk, "2.5"},
    {"box", "0x1p4", kOk, "16"},
    {"box", "inf", kOk, "inf"},
    {"box", "nan", kRange},
    {"box", "-1", kRange},
    {"box", "25abc", kBad},
    {"box", "1e999", kBad},
    {"box", "", kBad},
    {"domain.skin", "0.25", kOk, "0.25"},
    {"domain.skin", " 0.5 ", kOk, "0.5"},
    {"domain.skin", "1e3", kOk, "1000"},
    {"domain.skin", "inf", kOk, "inf"},
    {"domain.skin", "nan", kRange},
    {"domain.skin", "-0.5", kRange},
    {"domain.skin", "abc", kBad},
    {"domain.skin", "", kBad},
    // Booleans: exactly the eight spellings.
    {"hydro", "true", kOk, "true"},
    {"hydro", "1", kOk, "true"},
    {"hydro", "yes", kOk, "true"},
    {"hydro", "on", kOk, "true"},
    {"hydro", "false", kOk, "false"},
    {"hydro", "0", kOk, "false"},
    {"hydro", "no", kOk, "false"},
    {"hydro", "off", kOk, "false"},
    {"hydro", "ture", kBad},
    {"hydro", "TRUE", kBad},
    {"hydro", " true", kBad},
    {"hydro", "2", kBad},
    {"hydro", "", kBad},
    {"run.checkpoint_final", "yes", kOk, "true"},
    {"run.checkpoint_final", "off", kOk, "false"},
    {"run.checkpoint_final", "ture", kBad},
    {"run.checkpoint_final", "", kBad},
    // Enums: the to_string spellings, case-sensitive.
    {"gravity.backend", "pm_pp", kOk, "pm_pp"},
    {"gravity.backend", "fmm", kOk, "fmm"},
    {"gravity.backend", "treepm", kOk, "treepm"},
    {"gravity.backend", "TreePM", kBad},
    {"gravity.backend", "p3m", kBad},
    {"gravity.backend", "", kBad},
    {"gravity.pm_gradient", "spectral", kOk, "spectral"},
    {"gravity.pm_gradient", "fd4", kOk, "fd4"},
    {"gravity.pm_gradient", "fd6", kOk, "fd6"},
    {"gravity.pm_gradient", "Spectral", kBad},
    {"gravity.pm_gradient", "fd8", kBad},
    {"ic.kind", "zeldovich", kOk, "zeldovich"},
    {"ic.kind", "sedov", kOk, "sedov"},
    {"ic.kind", "Sedov", kBad},
    {"ic.kind", "", kBad},
    {"domain.rebuild", "always", kOk, "always"},
    {"domain.rebuild", "displacement", kOk, "displacement"},
    {"domain.rebuild", "sometimes", kBad},
    {"run.mode", "fixed", kOk, "fixed"},
    {"run.mode", "adaptive", kOk, "adaptive"},
    {"run.mode", "Fixed", kBad},
    {"run.mode", "sometimes", kBad},
    // Range checks: each key's Valid values in docs/CONFIG.md.
    {"z_final", "-1", kRange},
    {"sigma", "-1", kRange},
    {"baryon_fraction", "2", kRange},
    {"u_init", "-1", kRange},
    {"pm_grid", "3", kRange},
    {"pm_grid", "0", kRange},
    {"leaf", "0", kRange},
    {"run.da_max", "-1", kRange},
    {"run.fof_b", "0", kRange},
    {"run.fof_min_members", "0", kRange},
    {"run.checkpoint_every", "-1", kRange},
    // Misspelt keys.
    {"stpes", "1", kUnknown},
    {"gravity.backedn", "fmm", kUnknown},
};

TEST(ConfigGuard, EveryKeyAcceptsExactlyItsTexts) {
  for (const Row& row : kRows) {
    SCOPED_TRACE(std::string(row.key) + "='" + row.text + "'");
    Scenario s;
    ASSERT_TRUE(find_scenario("paper-benchmark", s));
    util::Config cfg;
    cfg.set(row.key, row.text);
    std::string error;
    const bool ok = apply_config(cfg, s.sim, s.run, error);
    switch (row.outcome) {
      case Outcome::kAccept:
        EXPECT_TRUE(ok) << error;
        EXPECT_EQ(field(s, row.key), row.want);
        EXPECT_TRUE(cfg.unread_keys().empty());
        break;
      case Outcome::kRejectParse:
        EXPECT_FALSE(ok);
        EXPECT_NE(error.find(row.key), std::string::npos) << error;
        EXPECT_NE(error.find(std::string("'") + row.text + "'"), std::string::npos)
            << error;
        break;
      case Outcome::kRejectCheck:
        EXPECT_FALSE(ok);
        EXPECT_NE(error.find(row.key), std::string::npos) << error;
        break;
      case Outcome::kUnread: {
        Scenario preset;
        ASSERT_TRUE(find_scenario("paper-benchmark", preset));
        EXPECT_TRUE(ok) << error;
        EXPECT_EQ(s.sim.n_steps, preset.sim.n_steps);
        EXPECT_EQ(s.sim.gravity_backend, preset.sim.gravity_backend);
        EXPECT_EQ(cfg.unread_keys(), std::vector<std::string>{row.key});
        break;
      }
    }
  }
}

// Every keyed row of the two field tables whose field is not a string
// refuses text that is no value of any type, naming its key.
TEST(ConfigGuard, EveryTypedKeyRejectsNonsense) {
  std::vector<std::string> keys;
  const auto collect = [&keys](const util::KeyRow& row, const auto& field) {
    if (!std::is_same_v<std::remove_cvref_t<decltype(field)>, std::string> && row.key) {
      keys.emplace_back(row.key);
    }
  };
  const Scenario defaults;
  core::for_each_sim_field(defaults.sim, collect);
  for_each_run_field(defaults.run, collect);
  EXPECT_GE(keys.size(), 30u);
  for (const std::string& key : keys) {
    SCOPED_TRACE(key);
    Scenario s;
    ASSERT_TRUE(find_scenario("paper-benchmark", s));
    util::Config cfg;
    cfg.set(key, "x!");
    std::string error;
    EXPECT_FALSE(apply_config(cfg, s.sim, s.run, error));
    EXPECT_NE(error.find(key), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace hacc::run
