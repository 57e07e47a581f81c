// Quickstart: a miniature CRK-HACC adiabatic simulation — two particle
// species, Zel'dovich initial conditions at z=200, three KDK steps — then a
// dump of the paper's per-kernel timers.
//
//   ./examples/quickstart [key=value ...]   e.g. np=10 steps=5 threads=8

#include <cstdio>

#include "core/solver.hpp"
#include "example_args.hpp"

int main(int argc, char** argv) {
  hacc::examples::Args args(argc, argv, "quickstart");
  const unsigned threads = args.threads();

  hacc::core::SimConfig cfg;
  cfg.np_side = 8;
  cfg.n_steps = 3;
  args.read(cfg);
  if (!args.ok()) return 1;

  hacc::util::ThreadPool pool(threads);
  hacc::core::Solver solver(cfg, pool);

  std::printf("CRK-HACC quickstart: 2 x %d^3 particles, box %.1f, z=%.0f -> z=%.0f in %d steps\n",
              cfg.np_side, cfg.box, cfg.z_init, cfg.z_final, cfg.n_steps);
  solver.initialize();
  for (int s = 0; s < cfg.n_steps; ++s) {
    solver.step();
    const auto d = solver.diagnostics();
    std::printf("  step %d  z=%6.2f  max_disp=%.4f  KE=%.4e  U=%.4e\n", s + 1,
                solver.redshift(), d.max_displacement, d.kinetic_energy,
                d.thermal_energy);
  }

  std::printf("\nPer-kernel walls (the paper's upGeo/upCor/upBar* set):\n");
  for (const auto& [name, k] : solver.queue().aggregate_by_kernel()) {
    std::printf("  %-11s %8.3f ms  (%llu launches)\n", name.c_str(),
                k.seconds * 1e3, static_cast<unsigned long long>(k.launches));
  }
  std::printf("Per-stage walls (force-evaluation stages):\n");
  for (const auto& [name, stage] : solver.stage_totals()) {
    std::printf("  %-11s %8.3f ms  (%llu runs)\n", name.c_str(),
                stage.seconds * 1e3, static_cast<unsigned long long>(stage.runs));
  }

  const auto d = solver.diagnostics();
  std::printf("\nFinal state: total mass %.3e, net momentum (%.2e, %.2e, %.2e)\n",
              d.total_mass, d.momentum[0], d.momentum[1], d.momentum[2]);
  return 0;
}
