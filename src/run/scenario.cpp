#include "run/scenario.hpp"

#include <sstream>

namespace hacc::run {

namespace {

Scenario make_paper_benchmark() {
  Scenario s;
  s.name = "paper-benchmark";
  s.summary =
      "the paper's 5 fixed KDK steps, z 200->50, adiabatic hydro, pm_pp";
  s.sim.scenario = s.name;  // defaults already are the paper configuration
  s.run.stepping.mode = StepMode::kFixed;
  return s;
}

Scenario make_cosmology_box() {
  Scenario s;
  s.name = "cosmology-box";
  s.summary =
      "gravity-only structure formation to z=10: adaptive steps, treepm, "
      "checkpoints, halo outputs";
  s.sim.scenario = s.name;
  s.sim.np_side = 16;
  s.sim.box = 50.0;
  s.sim.hydro = false;
  s.sim.z_final = 10.0;
  s.sim.sigma_norm = 2.5;  // boosted power: visible halos at these sizes
  s.sim.gravity_backend = core::GravityBackend::kTreePm;
  s.run.stepping.mode = StepMode::kAdaptive;
  s.run.stepping.da_max = 0.01;
  s.run.max_steps = 1000;
  s.run.checkpoint_path = "cosmology-box.ckpt";
  s.run.checkpoint_every = 8;
  s.run.checkpoint_final = true;
  s.run.outputs_z = {50.0, 20.0, 10.0};
  return s;
}

Scenario make_sph_adiabatic() {
  Scenario s;
  s.name = "sph-adiabatic";
  s.summary =
      "adiabatic two-species hydro, z 200->50, adaptive steps, mid-run "
      "diagnostics";
  s.sim.scenario = s.name;
  s.sim.np_side = 10;
  s.run.stepping.mode = StepMode::kAdaptive;
  const double a_i = ic::Cosmology::a_of_z(s.sim.z_init);
  const double a_f = ic::Cosmology::a_of_z(s.sim.z_final);
  s.run.stepping.da_max = (a_f - a_i) / 8.0;
  s.run.max_steps = 500;
  s.run.outputs_z = {100.0, 50.0};
  return s;
}

Scenario make_sedov_blast() {
  Scenario s;
  s.name = "sedov-blast";
  s.summary =
      "Sedov-Taylor point blast in a cold uniform lattice near a=1; "
      "analytic shock-radius oracle";
  s.sim.scenario = s.name;
  s.sim.ic_kind = core::InitialConditions::kSedov;
  s.sim.np_side = 12;
  s.sim.box = 1.0;
  s.sim.hydro = true;
  s.sim.baryon_fraction = 0.5;
  // Cold background so the blast drives a strong shock; the deposited
  // energy dwarfs the thermal floor by many orders of magnitude.
  s.sim.u_init = 1e-8;
  s.sim.sedov_energy = 1.0;
  // A thin slab of scale factor right at a=1: expansion and Hubble drag
  // are negligible, so the non-comoving Sedov solution applies.
  s.sim.z_init = 0.02;
  s.sim.z_final = 0.0;
  s.sim.n_steps = 16;
  s.sim.pm_grid = 16;
  s.run.stepping.mode = StepMode::kFixed;
  return s;
}

// Comma-separated doubles ("50, 20,10"); false on any item that is not
// one whole number.
bool parse_double_list(const std::string& text, std::vector<double>& out) {
  out.clear();
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    double v = 0.0;
    if (!util::parse_number(item, v)) return false;
    out.push_back(v);
  }
  return true;
}

}  // namespace

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> presets = {
      make_paper_benchmark(), make_cosmology_box(), make_sph_adiabatic(),
      make_sedov_blast()};
  return presets;
}

bool find_scenario(const std::string& name, Scenario& out) {
  for (const Scenario& s : scenarios()) {
    if (s.name == name) {
      out = s;
      return true;
    }
  }
  return false;
}

bool apply_config(const util::Config& cfg, core::SimConfig& sim,
                  RunOptions& run, std::string& error) {
  // ---- simulation physics ----
  if (!cfg.read("np", sim.np_side, error) || !cfg.read("box", sim.box, error) ||
      !cfg.read("z_init", sim.z_init, error) ||
      !cfg.read("z_final", sim.z_final, error) ||
      !cfg.read("steps", sim.n_steps, error) ||
      !cfg.read("sigma", sim.sigma_norm, error) ||
      !cfg.read("seed", sim.seed, error) || !cfg.read("hydro", sim.hydro, error) ||
      !cfg.read("baryon_fraction", sim.baryon_fraction, error) ||
      !cfg.read("u_init", sim.u_init, error) ||
      !cfg.read("pm_grid", sim.pm_grid, error) ||
      !cfg.read("gravity.backend", sim.gravity_backend, error) ||
      !cfg.read("gravity.pm_gradient", sim.pm_gradient, error) ||
      !cfg.read("gravity.theta", sim.fmm_theta, error) ||
      !cfg.read("leaf", sim.leaf_size, error) ||
      !cfg.read("ic.kind", sim.ic_kind, error) ||
      !cfg.read("ic.sedov_energy", sim.sedov_energy, error) ||
      !cfg.read("domain.skin", sim.domain_skin, error) ||
      !cfg.read("domain.rebuild", sim.domain_rebuild, error) ||
      !cfg.read("shard.count", sim.shard_count, error) ||
      !cfg.read("shard.ghost_factor", sim.shard_ghost_factor, error)) {
    return false;
  }
  if (!(sim.sedov_energy > 0.0)) {
    error = "invalid ic.sedov_energy (need ic.sedov_energy > 0)";
    return false;
  }
  if (!(sim.domain_skin >= 0.0)) {  // NaN-robust, like the geometry checks
    error = "invalid domain.skin (need domain.skin >= 0)";
    return false;
  }
  if (sim.shard_count < 1) {
    error = "invalid shard.count (need shard.count >= 1)";
    return false;
  }
  if (!(sim.shard_ghost_factor >= 1.0)) {  // NaN-robust
    error = "invalid shard.ghost_factor (need shard.ghost_factor >= 1)";
    return false;
  }
  if (sim.np_side < 2 || sim.n_steps < 1 || !(sim.box > 0.0) ||
      !(sim.z_init > sim.z_final)) {
    error = "invalid geometry/stepping (need np >= 2, steps >= 1, box > 0, "
            "z_init > z_final)";
    return false;
  }

  // ---- run options ----
  if (!cfg.read("run.mode", run.stepping.mode, error) ||
      !cfg.read("run.displacement_fraction", run.stepping.displacement_fraction,
                error) ||
      !cfg.read("run.da_min", run.stepping.da_min, error) ||
      !cfg.read("run.da_max", run.stepping.da_max, error) ||
      !cfg.read("run.max_steps", run.max_steps, error) ||
      !cfg.read("run.checkpoint", run.checkpoint_path, error) ||
      !cfg.read("run.checkpoint_every", run.checkpoint_every, error) ||
      !cfg.read("run.checkpoint_final", run.checkpoint_final, error) ||
      !cfg.read("run.checkpoint_keep", run.checkpoint_keep, error) ||
      !cfg.read("run.checkpoint_on_error_continue",
                run.checkpoint_continue_on_error, error) ||
      !cfg.read("run.restart", run.restart_from, error) ||
      !cfg.read("run.log", run.log_path, error) ||
      !cfg.read("run.fof_b", run.fof_b, error) ||
      !cfg.read("run.fof_min_members", run.fof_min_members, error)) {
    return false;
  }
  if (const std::string z = cfg.get_string("run.outputs_z", "");
      cfg.has("run.outputs_z") && !parse_double_list(z, run.outputs_z)) {
    error = "invalid run.outputs_z '" + z +
            "' (need a comma-separated list of redshifts)";
    return false;
  }
  if (run.stepping.displacement_fraction <= 0.0 || run.stepping.da_min <= 0.0 ||
      run.max_steps < 1 || run.checkpoint_keep < 0) {
    error = "invalid run options (need run.displacement_fraction > 0, "
            "run.da_min > 0, run.max_steps >= 1, run.checkpoint_keep >= 0)";
    return false;
  }
  if (run.restart_from == RunOptions::kRestartAuto &&
      run.checkpoint_path.empty()) {
    error = "run.restart=auto needs run.checkpoint: the recovery scan looks "
            "for <run.checkpoint>.step<N> files";
    return false;
  }
  return true;
}

}  // namespace hacc::run
