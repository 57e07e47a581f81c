#include "run/scenario.hpp"

#include <stdexcept>

namespace hacc::run {

namespace {

// A preset: key overrides of the SimConfig/RunOptions defaults, read by
// apply_config like any other config.
Scenario preset(const char* name, const char* summary, std::vector<const char*> keys) {
  Scenario s{name, summary};
  s.sim.scenario = name;
  util::Config cfg;
  cfg.apply_overrides(static_cast<int>(keys.size()), keys.data());
  if (std::string error; !apply_config(cfg, s.sim, s.run, error)) throw std::logic_error(error);
  return s;
}

}  // namespace

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> presets = [] {
    std::vector<Scenario> p = {
        // The defaults already are the paper configuration.
        preset("paper-benchmark",
               "the paper's 5 fixed KDK steps, z 200->50, adiabatic hydro, pm_pp",
               {"run.mode=fixed"}),
        // Boosted power (sigma): visible halos at these sizes.
        preset("cosmology-box",
               "gravity-only structure formation to z=10: adaptive steps, treepm, "
               "checkpoints, halo outputs",
               {"np=16", "box=50", "hydro=false", "z_final=10", "sigma=2.5",
                "gravity.backend=treepm", "run.mode=adaptive", "run.da_max=0.01",
                "run.max_steps=1000", "run.checkpoint=cosmology-box.ckpt",
                "run.checkpoint_every=8", "run.checkpoint_final=true",
                "run.outputs_z=50,20,10"}),
        preset("sph-adiabatic",
               "adiabatic two-species hydro, z 200->50, adaptive steps, mid-run diagnostics",
               {"np=10", "run.mode=adaptive", "run.max_steps=500", "run.outputs_z=100,50"}),
        // A cold background (u_init): the blast energy dwarfs the thermal
        // floor, so it drives a strong shock.  z 0.02 -> 0 is a thin slab of
        // scale factor at a=1, where expansion and Hubble drag are negligible
        // and the non-comoving Sedov solution applies.
        preset("sedov-blast",
               "Sedov-Taylor point blast in a cold uniform lattice near a=1; "
               "analytic shock-radius oracle",
               {"ic.kind=sedov", "np=12", "box=1", "hydro=true", "baryon_fraction=0.5",
                "u_init=1e-8", "ic.sedov_energy=1", "z_init=0.02", "z_final=0",
                "steps=16", "pm_grid=16", "run.mode=fixed"}),
    };
    // sph-adiabatic caps Δa at an eighth of its scale-factor range.
    Scenario& sph = p[2];
    sph.run.stepping.da_max = (ic::Cosmology::a_of_z(sph.sim.z_final) -
                               ic::Cosmology::a_of_z(sph.sim.z_init)) / 8.0;
    return p;
  }();
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
  if (!core::read_sim_keys(cfg, sim, error)) return false;
  bool ok = true;
  for_each_run_field(run, [&](const util::KeyRow& row, auto& field) {
    ok = ok && cfg.read(row, field, error);
  });
  if (ok && run.restart_from == RunOptions::kRestartAuto &&
      run.checkpoint_path.empty()) {
    error = "run.restart=auto needs run.checkpoint: the recovery scan looks "
            "for <run.checkpoint>.step<N> files";
    return false;
  }
  return ok;
}

}  // namespace hacc::run
