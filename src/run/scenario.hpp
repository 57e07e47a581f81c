#pragma once

/// \file
/// Named scenario presets and the config-key plumbing that turns a
/// `key = value` util::Config (file and/or command line) into a SimConfig +
/// RunOptions pair.  Presets ship sensible end-to-end runs:
///
/// - `paper-benchmark` — the paper's five fixed KDK steps, z 200 → 50,
///   hydro on, pm_pp gravity.  Reproduces Solver::run() exactly.
/// - `cosmology-box`   — gravity-only structure formation to z = 10 with
///   adaptive stepping, treepm gravity, periodic checkpoints, and halo
///   outputs at z = 50 / 20 / 10.
/// - `sph-adiabatic`   — the adiabatic hydro run with adaptive stepping and
///   a mid-run diagnostics output.
///
/// Every key is documented in docs/CONFIG.md.

#include <string>
#include <vector>

#include "core/solver.hpp"
#include "run/runner.hpp"
#include "util/config.hpp"

namespace hacc::run {

/// A named, fully-specified run: simulation physics plus run options.
struct Scenario {
  std::string name;
  std::string summary;  ///< one-line description for --list / logs
  core::SimConfig sim;
  RunOptions run;
};

/// The built-in presets, in display order.
const std::vector<Scenario>& scenarios();

/// Looks up a preset by name; returns false (out untouched) for unknown
/// names.
bool find_scenario(const std::string& name, Scenario& out);

/// Overlays config keys (np, box, steps, gravity.backend, run.mode, ...)
/// onto a scenario's defaults.  Every typed key is read by
/// util::Config::read.  Returns false and fills `error` (naming the key and
/// its text) on an invalid value: text that does not parse in full or fit
/// its field (`np=16x`, `np=4294967304`, `steps=1e3`, `hydro=ture`,
/// `gravity.backend=TreePM`), or a value a key's range check refuses.
/// Keys it does not know are left alone (they may belong to the caller,
/// e.g. `threads`); the caller lists the keys nobody read with
/// util::Config::unread_keys, and hacc_run rejects them.
bool apply_config(const util::Config& cfg, core::SimConfig& sim,
                  RunOptions& run, std::string& error);

}  // namespace hacc::run
