// End-to-end scenario benchmarks: whole ScenarioRunner runs (IC stage +
// stepping + diagnostics) per preset and per gravity backend, plus the
// per-step cost of the evolved solver.  The summary emits BENCH_run.json
// (path override: HACC_BENCH_RUN_JSON) next to bench_gravity's
// BENCH_pm.json so every CI run leaves a comparable end-to-end record.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.hpp"
#include "run/scenario.hpp"

namespace {

using namespace hacc;

run::Scenario bench_scenario(const std::string& name, int np) {
  run::Scenario s;
  if (!run::find_scenario(name, s)) std::abort();
  s.sim.np_side = np;
  s.run.checkpoint_path.clear();
  s.run.log_path.clear();
  s.run.outputs_z.clear();
  s.run.max_steps = 64;
  return s;
}

void BM_ScenarioEndToEnd(benchmark::State& state, const std::string& name) {
  const run::Scenario s = bench_scenario(name, 8);
  for (auto _ : state) {
    run::ScenarioRunner runner(s.sim, s.run);
    const auto result = runner.run();
    benchmark::DoNotOptimize(result.final_a);
    state.counters["steps"] = result.steps;
  }
}
BENCHMARK_CAPTURE(BM_ScenarioEndToEnd, paper_benchmark,
                  std::string("paper-benchmark"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ScenarioEndToEnd, cosmology_box,
                  std::string("cosmology-box"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ScenarioEndToEnd, sph_adiabatic,
                  std::string("sph-adiabatic"))
    ->Unit(benchmark::kMillisecond);

void BM_SolverStep(benchmark::State& state, core::GravityBackend backend) {
  core::SimConfig cfg;
  cfg.np_side = static_cast<int>(state.range(0));
  cfg.n_steps = 1 << 20;  // the fixed da stays tiny: state barely evolves
  cfg.gravity_backend = backend;
  cfg.hydro = backend == core::GravityBackend::kPmPp;
  core::Solver solver(cfg);
  solver.initialize();
  for (auto _ : state) {
    const auto stats = solver.step();
    benchmark::DoNotOptimize(stats.a1);
  }
}
BENCHMARK_CAPTURE(BM_SolverStep, pm_pp_hydro, core::GravityBackend::kPmPp)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SolverStep, treepm_gravity_only,
                  core::GravityBackend::kTreePm)
    ->Arg(12)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Figure output: one timed end-to-end run per preset + BENCH_run.json

struct ScenarioRecord {
  std::string name;
  int steps = 0;
  double wall_seconds = 0.0;
  double step_ms = 0.0;      // mean per-step wall
  int n_outputs = 0;
  double tree_seconds = 0.0; // shared-domain tree build/refresh time
  int tree_builds = 0;
  int tree_reuses = 0;
};

ScenarioRecord time_scenario(const std::string& name) {
  run::Scenario s = bench_scenario(name, 8);
  if (name == "cosmology-box") s.run.outputs_z = {20.0, 10.0};
  run::ScenarioRunner runner(s.sim, s.run);
  const auto result = runner.run();
  ScenarioRecord rec;
  rec.name = name;
  rec.steps = result.steps;
  rec.wall_seconds = result.wall_seconds;
  rec.step_ms = result.steps > 0
                    ? 1e3 * result.wall_seconds / result.steps
                    : 0.0;
  rec.n_outputs = static_cast<int>(result.outputs.size());
  for (const auto& stats : result.history) {
    rec.tree_seconds += stats.tree_seconds;
    rec.tree_builds += stats.tree_builds;
    rec.tree_reuses += stats.tree_reuses;
  }
  return rec;
}

void write_bench_json(const ScenarioRecord recs[3]) {
  const char* path = std::getenv("HACC_BENCH_RUN_JSON");
  if (path == nullptr) path = "BENCH_run.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_run: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"scenario_run\",\n  \"np\": 8,\n");
  hacc::bench::write_provenance(f);
  std::fprintf(f, "  \"scenarios\": {\n");
  for (int i = 0; i < 3; ++i) {
    std::fprintf(f,
                 "    \"%s\": {\"steps\": %d, \"wall_s\": %.4f, "
                 "\"step_ms\": %.3f, \"outputs\": %d, \"tree_s\": %.4f, "
                 "\"tree_builds\": %d, \"tree_reuses\": %d}%s\n",
                 recs[i].name.c_str(), recs[i].steps, recs[i].wall_seconds,
                 recs[i].step_ms, recs[i].n_outputs, recs[i].tree_seconds,
                 recs[i].tree_builds, recs[i].tree_reuses, i < 2 ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

void print_summary() {
  hacc::bench::print_header(
      "Scenario runs end to end (np=8, default thread pool)");
  ScenarioRecord recs[3];
  const char* names[3] = {"paper-benchmark", "cosmology-box", "sph-adiabatic"};
  std::printf("%-17s %7s %10s %10s %9s %9s %7s %7s\n", "scenario", "steps",
              "wall s", "step ms", "outputs", "tree ms", "builds", "reuses");
  for (int i = 0; i < 3; ++i) {
    recs[i] = time_scenario(names[i]);
    std::printf("%-17s %7d %10.3f %10.2f %9d %9.2f %7d %7d\n",
                recs[i].name.c_str(), recs[i].steps, recs[i].wall_seconds,
                recs[i].step_ms, recs[i].n_outputs, 1e3 * recs[i].tree_seconds,
                recs[i].tree_builds, recs[i].tree_reuses);
  }
  write_bench_json(recs);
}

}  // namespace

HACC_BENCH_MAIN(print_summary)
