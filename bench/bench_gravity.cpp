// Ablation: the gravity substrate — PM solve timings with a per-phase
// breakdown (deposit / forward / green / inverse / gradient / interp) per
// gradient mode, a spectral-vs-fd4-vs-fd6 accuracy table against an
// all-pairs minimum-image reference, the short-range polynomial order sweep
// (the HACC_CUDA_POLY_ORDER design choice), and split-force accuracy.  The
// phase breakdown and accuracy rows are also emitted as BENCH_pm.json so
// later PRs have a perf trajectory to compare against.

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "gravity/pm.hpp"
#include "gravity/pp_short.hpp"
#include "tree/rcb.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace hacc;
using util::Vec3d;

constexpr double kBox = 25.0;
constexpr int kBreakdownGrid = 128;   // the headline PM solve size
constexpr int kAccuracyParticles = 16 * 16 * 16;

std::vector<Vec3d> random_positions(int n, double box) {
  const util::CounterRng rng(7);
  std::vector<Vec3d> pos(n);
  for (int i = 0; i < n; ++i) {
    pos[i] = {box * rng.uniform(3 * i), box * rng.uniform(3 * i + 1),
              box * rng.uniform(3 * i + 2)};
  }
  return pos;
}

gravity::PmOptions pm_options(int grid, gravity::PmGradient grad) {
  gravity::PmOptions opt;
  opt.grid_n = grid;
  opt.box = kBox;
  opt.r_split = 1.25 * kBox / grid;
  opt.gradient = grad;
  return opt;
}

void BM_PmForces(benchmark::State& state) {
  const int grid = static_cast<int>(state.range(0));
  const auto grad = static_cast<gravity::PmGradient>(state.range(1));
  util::ThreadPool pool;
  gravity::PmSolver pm(pm_options(grid, grad), pool);
  const auto pos = random_positions(4096, kBox);
  const std::vector<double> mass(pos.size(), 1.0);
  std::vector<Vec3d> accel(pos.size());
  for (auto _ : state) {
    pm.compute_forces(pos, mass, accel);
    benchmark::DoNotOptimize(accel.data());
  }
  state.SetLabel("grid " + std::to_string(grid) + "^3 " + to_string(grad));
}
BENCHMARK(BM_PmForces)
    ->Args({16, static_cast<long>(gravity::PmGradient::kSpectral)})
    ->Args({32, static_cast<long>(gravity::PmGradient::kSpectral)})
    ->Args({64, static_cast<long>(gravity::PmGradient::kSpectral)})
    ->Args({64, static_cast<long>(gravity::PmGradient::kFd4)})
    ->Args({128, static_cast<long>(gravity::PmGradient::kSpectral)})
    ->Args({128, static_cast<long>(gravity::PmGradient::kFd4)})
    ->Args({128, static_cast<long>(gravity::PmGradient::kFd6)})
    ->Unit(benchmark::kMillisecond);

void BM_PpShortRange(benchmark::State& state) {
  const auto variant = static_cast<xsycl::CommVariant>(state.range(0));
  const double box = kBox;
  const double rs = 1.0;
  const gravity::PolyShortForce poly(rs, 4.0 * rs);
  const auto pos = random_positions(4096, box);
  std::vector<float> x(pos.size()), y(pos.size()), z(pos.size()), m(pos.size(), 1.f);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    x[i] = float(pos[i].x);
    y[i] = float(pos[i].y);
    z[i] = float(pos[i].z);
  }
  std::vector<float> ax(pos.size()), ay(pos.size()), az(pos.size());
  const tree::RcbTree tr(pos, box, 32);
  const auto pairs = tr.interacting_pairs(poly.r_cut());
  util::ThreadPool pool;
  xsycl::Queue q(pool);
  gravity::PpOptions opt;
  opt.box = float(box);
  opt.softening = 0.05f;
  opt.variant = variant;
  std::uint64_t interactions = 0;
  for (auto _ : state) {
    std::fill(ax.begin(), ax.end(), 0.f);
    std::fill(ay.begin(), ay.end(), 0.f);
    std::fill(az.begin(), az.end(), 0.f);
    const auto stats = run_pp_short(
        q,
        {x.data(), y.data(), z.data(), m.data(), ax.data(), ay.data(), az.data(),
         pos.size()},
        tr, pairs, poly, opt);
    interactions += stats.ops.interactions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(interactions));
  state.SetLabel(std::string("variant ") + to_string(variant));
}
BENCHMARK(BM_PpShortRange)
    ->Arg(static_cast<long>(xsycl::CommVariant::kSelect))
    ->Arg(static_cast<long>(xsycl::CommVariant::kMemoryObject))
    ->Arg(static_cast<long>(xsycl::CommVariant::kBroadcast))
    ->Unit(benchmark::kMillisecond);

void BM_PolyFit(benchmark::State& state) {
  const int order = static_cast<int>(state.range(0));
  for (auto _ : state) {
    gravity::PolyShortForce poly(1.0, 5.0, order);
    benchmark::DoNotOptimize(poly.coefficients().data());
  }
  const gravity::PolyShortForce poly(1.0, 5.0, order);
  state.SetLabel("order " + std::to_string(order) + ", max fit error " +
                 std::to_string(poly.max_abs_error()));
}
BENCHMARK(BM_PolyFit)->DenseRange(2, 7);

// ---------------------------------------------------------------------------
// Figure output: PM phase breakdown + gradient accuracy table + BENCH_pm.json

// Timed solves per measured point, after one warm-up solve.
constexpr int kReps = 9;

struct PmRun {
  gravity::PmPhaseTimes times;  // phases of the median solve
  double min_total = 0.0;       // seconds, over the kReps solves
  double median_total = 0.0;
  double max_total = 0.0;
};

PmRun time_pm(int grid, gravity::PmGradient grad, util::ThreadPool& pool) {
  gravity::PmSolver pm(pm_options(grid, grad), pool);
  const auto pos = random_positions(4096, kBox);
  const std::vector<double> mass(pos.size(), 1.0);
  std::vector<Vec3d> accel(pos.size());
  pm.compute_forces(pos, mass, accel);  // warm-up: sizes the workspace
  std::vector<std::pair<double, gravity::PmPhaseTimes>> solves;
  for (int r = 0; r < kReps; ++r) {
    const double t0 = util::wtime();
    pm.compute_forces(pos, mass, accel);
    solves.emplace_back(util::wtime() - t0, pm.phase_times());
  }
  std::sort(solves.begin(), solves.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  PmRun run;
  run.times = solves[kReps / 2].second;
  run.min_total = solves.front().first;
  run.median_total = solves[kReps / 2].first;
  run.max_total = solves.back().first;
  return run;
}

struct AccuracyRow {
  double vs_allpairs = 0.0;  // rel RMS of PM+PP total force vs all-pairs
  double vs_spectral = 0.0;  // rel RMS of the PM force vs the spectral PM
};

double rel_rms(const std::vector<Vec3d>& a, const std::vector<Vec3d>& b) {
  double diff = 0.0, ref = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff += norm2(a[i] - b[i]);
    ref += norm2(b[i]);
  }
  return std::sqrt(diff / ref);
}

// PM(grad)+PP total forces and the bare PM forces for 16^3 random particles.
void gradient_accuracy(util::ThreadPool& pool, AccuracyRow rows[3]) {
  const int grid = 32;
  const auto pos = random_positions(kAccuracyParticles, kBox);
  const std::size_t n = pos.size();
  const std::vector<double> mass(n, 1.0);

  // All-pairs minimum-image Newton: the reference the fmm parity suite uses.
  std::vector<float> x(n), y(n), z(n), m(n, 1.f);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = float(pos[i].x);
    y[i] = float(pos[i].y);
    z[i] = float(pos[i].z);
  }
  std::vector<float> rx(n, 0.f), ry(n, 0.f), rz(n, 0.f);
  const auto newton = gravity::PolyShortForce::newtonian(kBox);
  gravity::reference_pp_short({x.data(), y.data(), z.data(), m.data(), rx.data(),
                               ry.data(), rz.data(), n},
                              newton, float(kBox), 1.0f, 0.f);
  std::vector<Vec3d> allpairs(n);
  for (std::size_t i = 0; i < n; ++i) allpairs[i] = {rx[i], ry[i], rz[i]};

  // Short-range remainder shared by every gradient mode.
  const gravity::PmOptions opt = pm_options(grid, gravity::PmGradient::kSpectral);
  const gravity::PolyShortForce poly(opt.r_split, 5.0 * opt.r_split);
  std::fill(rx.begin(), rx.end(), 0.f);
  std::fill(ry.begin(), ry.end(), 0.f);
  std::fill(rz.begin(), rz.end(), 0.f);
  gravity::reference_pp_short({x.data(), y.data(), z.data(), m.data(), rx.data(),
                               ry.data(), rz.data(), n},
                              poly, float(kBox), 1.0f, 0.f);

  const gravity::PmGradient grads[3] = {gravity::PmGradient::kSpectral,
                                        gravity::PmGradient::kFd4,
                                        gravity::PmGradient::kFd6};
  std::vector<Vec3d> pm_force[3];
  for (int g = 0; g < 3; ++g) {
    gravity::PmSolver pm(pm_options(grid, grads[g]), pool);
    pm_force[g].resize(n);
    pm.compute_forces(pos, mass, pm_force[g]);
    std::vector<Vec3d> total(n);
    for (std::size_t i = 0; i < n; ++i) {
      total[i] = pm_force[g][i] + Vec3d{rx[i], ry[i], rz[i]};
    }
    rows[g].vs_allpairs = rel_rms(total, allpairs);
    rows[g].vs_spectral = g == 0 ? 0.0 : rel_rms(pm_force[g], pm_force[0]);
  }
}

struct ThreadPoint {
  int threads = 1;
  PmRun run;  // spectral 128^3 solves on that pool width
};

void write_bench_json(const PmRun runs[3], const AccuracyRow rows[3],
                      const std::vector<ThreadPoint>& thread_sweep,
                      unsigned threads) {
  const char* path = std::getenv("HACC_BENCH_JSON");
  if (path == nullptr) path = "BENCH_pm.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_gravity: cannot write %s\n", path);
    return;
  }
  const char* names[3] = {"spectral", "fd4", "fd6"};
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"pm_solve\",\n");
  std::fprintf(f, "  \"grid\": %d,\n  \"particles\": 4096,\n  \"box\": %.1f,\n",
               kBreakdownGrid, kBox);
  std::fprintf(f, "  \"threads\": %u,\n", threads);
  hacc::bench::write_provenance(f);
  std::fprintf(f, "  \"reps\": %d,\n", kReps);
  std::fprintf(f, "  \"threads_sweep\": [\n");
  for (std::size_t i = 0; i < thread_sweep.size(); ++i) {
    const PmRun& r = thread_sweep[i].run;
    std::fprintf(f,
                 "    {\"threads\": %d, \"spectral_min_ms\": %.3f, "
                 "\"spectral_median_ms\": %.3f, \"spectral_max_ms\": %.3f}%s\n",
                 thread_sweep[i].threads, r.min_total * 1e3, r.median_total * 1e3,
                 r.max_total * 1e3, i + 1 < thread_sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"gradients\": {\n");
  for (int g = 0; g < 3; ++g) {
    const auto& t = runs[g].times;
    std::fprintf(f,
                 "    \"%s\": {\"deposit_ms\": %.3f, \"forward_ms\": %.3f, "
                 "\"green_ms\": %.3f, \"inverse_ms\": %.3f, \"gradient_ms\": %.3f, "
                 "\"interp_ms\": %.3f, \"total_min_ms\": %.3f, "
                 "\"total_median_ms\": %.3f, \"total_max_ms\": %.3f}%s\n",
                 names[g], t.deposit * 1e3, t.forward * 1e3, t.green * 1e3,
                 t.inverse * 1e3, t.gradient * 1e3, t.interp * 1e3,
                 runs[g].min_total * 1e3, runs[g].median_total * 1e3,
                 runs[g].max_total * 1e3, g < 2 ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"accuracy_16cubed_grid32\": {\n");
  std::fprintf(f, "    \"reference\": \"all-pairs minimum-image Newton\",\n");
  for (int g = 0; g < 3; ++g) {
    std::fprintf(f, "    \"%s\": {\"pm_pp_vs_allpairs_rel_rms\": %.3e, "
                 "\"pm_vs_spectral_rel_rms\": %.3e}%s\n",
                 names[g], rows[g].vs_allpairs, rows[g].vs_spectral,
                 g < 2 ? "," : "");
  }
  // The pre-refactor PM solve at the same size on the same machine, injected
  // by whoever runs the bench for the record (not measurable from this
  // binary once the old path is gone).
  if (const char* base = std::getenv("HACC_PM_BASELINE_128_MS")) {
    const double base_ms = std::atof(base);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"baseline_pre_pr_ms\": %.1f,\n", base_ms);
    std::fprintf(f, "  \"speedup_vs_baseline\": {");
    for (int g = 0; g < 3; ++g) {
      std::fprintf(f, "\"%s\": %.2f%s", names[g],
                   base_ms / (runs[g].median_total * 1e3), g < 2 ? ", " : "");
    }
    std::fprintf(f, "}\n");
  } else {
    std::fprintf(f, "  }\n");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

void print_summary() {
  util::ThreadPool pool;

  hacc::bench::print_header("PM solve: phase breakdown (grid 128^3, 4096 particles)");
  PmRun runs[3];
  const gravity::PmGradient grads[3] = {gravity::PmGradient::kSpectral,
                                        gravity::PmGradient::kFd4,
                                        gravity::PmGradient::kFd6};
  std::printf("%-9s %9s %9s %9s %9s %9s %9s %10s %17s\n", "gradient", "deposit",
              "forward", "green", "inverse", "fd-grad", "interp", "total ms",
              "(min - max)");
  for (int g = 0; g < 3; ++g) {
    runs[g] = time_pm(kBreakdownGrid, grads[g], pool);
    const auto& t = runs[g].times;
    std::printf("%-9s %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %10.2f (%6.2f - %6.2f)\n",
                to_string(grads[g]), t.deposit * 1e3, t.forward * 1e3,
                t.green * 1e3, t.inverse * 1e3, t.gradient * 1e3, t.interp * 1e3,
                runs[g].median_total * 1e3, runs[g].min_total * 1e3,
                runs[g].max_total * 1e3);
  }
  std::printf("\nPhases and totals are of the median of %d solves.\n", kReps);
  std::printf("spectral runs 1 r2c + 3 c2r half-spectrum transforms; fd4/fd6 run\n"
              "1 r2c + 1 c2r + a finite-difference gradient (the one-FFT path).\n");

  hacc::bench::print_header("PM gradient accuracy (16^3 particles, grid 32^3)");
  AccuracyRow rows[3];
  gradient_accuracy(pool, rows);
  std::printf("%-9s %26s %24s\n", "gradient", "PM+PP vs all-pairs relRMS",
              "PM vs spectral relRMS");
  for (int g = 0; g < 3; ++g) {
    std::printf("%-9s %26.3e %24.3e\n", to_string(grads[g]), rows[g].vs_allpairs,
                rows[g].vs_spectral);
  }

  hacc::bench::print_header("PM solve thread scaling (grid 128^3, spectral)");
  std::vector<ThreadPoint> thread_sweep;
  for (const int n_threads : {1, 2, 4, 8}) {
    util::ThreadPool tp(static_cast<unsigned>(n_threads));
    ThreadPoint pt;
    pt.threads = n_threads;
    pt.run = time_pm(kBreakdownGrid, gravity::PmGradient::kSpectral, tp);
    thread_sweep.push_back(pt);
    std::printf("%d threads: %.2f ms (%.2f - %.2f)\n", pt.threads,
                pt.run.median_total * 1e3, pt.run.min_total * 1e3,
                pt.run.max_total * 1e3);
  }

  write_bench_json(runs, rows, thread_sweep, pool.size());

  hacc::bench::print_header("Gravity ablation: polynomial split-force accuracy");
  const gravity::SplitForce split(1.0);
  std::printf("%-7s %18s\n", "order", "max |poly - l(r)|");
  for (int order = 2; order <= 7; ++order) {
    const gravity::PolyShortForce poly(1.0, 5.0, order);
    std::printf("%-7d %18.3e\n", order, poly.max_abs_error());
  }
  std::printf("\nHACC ships HACC_CUDA_POLY_ORDER=5 (paper Appendix A); at order 5 the\n"
              "fit error is <1%% of the profile peak (%.3e).\n",
              split.long_profile(0.0));
}

}  // namespace

HACC_BENCH_MAIN(print_summary)
