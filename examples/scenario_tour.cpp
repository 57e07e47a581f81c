// A tour of the named scenario presets at laptop scale: each preset runs
// end to end through the ScenarioRunner (the layer behind hacc_run), with
// the cosmology-box leg also exercising a mid-run checkpoint + restart.
//
//   ./examples/scenario_tour [np=8] [threads=0]

#include <cstdio>

#include "example_args.hpp"
#include "run/scenario.hpp"

int main(int argc, char** argv) {
  hacc::examples::Args args(argc, argv, "scenario_tour");
  const unsigned threads = args.threads();
  hacc::core::SimConfig keys;
  keys.np_side = 8;
  args.read(keys, "np");
  if (!args.ok()) return 1;
  const int np = keys.np_side;
  hacc::util::ThreadPool pool(threads);

  for (const auto& preset : hacc::run::scenarios()) {
    hacc::run::Scenario s = preset;
    s.sim.np_side = np;
    s.run.checkpoint_path.clear();  // the restart leg below has its own
    s.run.log_path.clear();
    s.run.max_steps = 64;
    std::printf("== %s: %s\n", s.name.c_str(), s.summary.c_str());

    hacc::run::ScenarioRunner runner(s.sim, s.run, pool);
    const auto result = runner.run();
    std::printf(
        "   %d steps (%s) to z=%.2f in %.3f s; %zu diagnostics outputs\n",
        result.steps, to_string(s.run.stepping.mode), result.final_z,
        result.wall_seconds, result.outputs.size());
    for (const auto& out : result.outputs) {
      std::printf("     z=%7.2f: %d halos (largest %d), slowest kernel %s\n",
                  out.z, out.n_halos, out.largest_halo,
                  out.slowest_kernel.c_str());
    }
  }

  // Checkpoint + restart round trip on the adaptive cosmology box.
  std::printf("== checkpoint/restart round trip (cosmology-box)\n");
  hacc::run::Scenario s;
  hacc::run::find_scenario("cosmology-box", s);
  s.sim.np_side = np;
  s.sim.z_final = 20.0;
  s.run.log_path.clear();
  s.run.outputs_z.clear();
  s.run.checkpoint_path = "scenario_tour.ckpt";
  s.run.checkpoint_every = 4;
  hacc::run::ScenarioRunner full(s.sim, s.run, pool);
  const auto full_result = full.run();
  if (full_result.checkpoint_files.empty()) {
    std::printf("   run too short for a checkpoint; try a larger np\n");
    return 0;
  }

  hacc::run::RunOptions resume = s.run;
  resume.checkpoint_path.clear();
  resume.checkpoint_every = 0;
  resume.restart_from = full_result.checkpoint_files.front();
  hacc::run::ScenarioRunner restarted(s.sim, resume, pool);
  const auto restart_result = restarted.run();
  std::printf("   full run: %d steps; restart from %s: %d more steps\n",
              full_result.total_steps, resume.restart_from.c_str(),
              restart_result.steps);
  std::printf("   final a: %.17g (full) vs %.17g (restarted)\n",
              full_result.final_a, restart_result.final_a);
  std::printf("   (run with threads=1 for a bit-for-bit identical state)\n");
  return 0;
}
