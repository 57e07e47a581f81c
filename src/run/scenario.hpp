#pragma once

/// \file
/// Named scenario presets and the config-key plumbing that turns a
/// `key = value` util::Config (file and/or command line) into a SimConfig +
/// RunOptions pair.  Presets ship sensible end-to-end runs:
///
/// - `paper-benchmark` — the paper's 5 fixed KDK steps (Solver::run()).
/// - `cosmology-box`   — gravity-only treepm to z = 10: adaptive steps,
///   checkpoints, halo outputs at z = 50 / 20 / 10.
/// - `sph-adiabatic`   — adiabatic hydro, adaptive steps, mid-run outputs.
/// - `sedov-blast`     — a Sedov–Taylor blast near a = 1 (analytic oracle).
///
/// Every key is declared once, in a field table (core::for_each_sim_field,
/// for_each_run_field), and documented in docs/CONFIG.md.

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

/// The RunOptions field table, as core::for_each_sim_field.  `R`: [const] RunOptions.
template <typename R, typename Visit>
void for_each_run_field(R& r, Visit&& visit) {
  using util::above, util::at_least;
  constexpr util::Role kRun = util::Role::kRunControl;
  visit({"run.mode", kRun}, r.stepping.mode);
  visit({"run.displacement_fraction", kRun, above(0)}, r.stepping.displacement_fraction);
  visit({"run.da_min", kRun, above(0)}, r.stepping.da_min);
  visit({"run.da_max", kRun, at_least(0)}, r.stepping.da_max);
  visit({"run.max_steps", kRun, at_least(1)}, r.max_steps);
  visit({"run.checkpoint", kRun}, r.checkpoint_path);
  visit({"run.checkpoint_every", kRun, at_least(0)}, r.checkpoint_every);
  visit({"run.checkpoint_final", kRun}, r.checkpoint_final);
  visit({"run.checkpoint_keep", kRun, at_least(0)}, r.checkpoint_keep);
  visit({"run.checkpoint_on_error_continue", kRun}, r.checkpoint_continue_on_error);
  visit({"run.restart", kRun}, r.restart_from);
  visit({"run.outputs_z", kRun}, r.outputs_z);
  visit({"run.fof_b", kRun, above(0)}, r.fof_b);
  visit({"run.fof_min_members", kRun, at_least(1)}, r.fof_min_members);
  visit({"run.log", kRun}, r.log_path);
  visit({nullptr, kRun}, r.echo_steps);
}

/// Overlays config keys onto a scenario's defaults: core::read_sim_keys,
/// then every keyed row of for_each_run_field, each read by
/// util::Config::read with its range.  Returns false and fills `error`
/// (naming the key and its text) on an invalid value: text that does not
/// parse in full or fit its field (`np=16x`, `hydro=ture`), a value out of
/// range (`np=1`, `pm_grid=3`), z_init <= z_final, or run.restart=auto
/// without run.checkpoint.  Keys it does not know are left alone (they may
/// belong to the caller, e.g. `threads`); hacc_run rejects those nobody
/// read (util::Config::unread_keys).
bool apply_config(const util::Config& cfg, core::SimConfig& sim,
                  RunOptions& run, std::string& error);

}  // namespace hacc::run
