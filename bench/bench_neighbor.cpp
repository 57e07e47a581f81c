// Neighbor-machinery benchmarks for the interaction-domain subsystem:
// tree build vs Verlet-skin reuse cost, streamed pair-traversal throughput,
// and a skin sweep over a drifting particle set showing how the rebuild
// policy cuts the per-step tree + pairs phase.  The summary times each
// point over kReps repetitions (min / median / max) and emits
// BENCH_neighbor.json (path override: HACC_BENCH_NEIGHBOR_JSON) next to
// BENCH_pm.json / BENCH_run.json so every CI run leaves a comparable record.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "domain/domain.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace hacc;
using util::Vec3d;

constexpr double kBox = 10.0;
constexpr int kLeafSize = 32;

struct DriftingSet {
  std::vector<Vec3d> pos;
  std::vector<Vec3d> vel;

  explicit DriftingSet(int n_side, std::uint64_t seed = 17) {
    const int n = n_side * n_side * n_side;
    pos.resize(n);
    vel.resize(n);
    const double dx = kBox / n_side;
    const util::CounterRng rng(seed);
    std::size_t i = 0;
    for (int ix = 0; ix < n_side; ++ix) {
      for (int iy = 0; iy < n_side; ++iy) {
        for (int iz = 0; iz < n_side; ++iz, ++i) {
          pos[i] = {(ix + 0.5) * dx + 0.3 * dx * (rng.uniform(6 * i) - 0.5),
                    (iy + 0.5) * dx + 0.3 * dx * (rng.uniform(6 * i + 1) - 0.5),
                    (iz + 0.5) * dx + 0.3 * dx * (rng.uniform(6 * i + 2) - 0.5)};
          vel[i] = {rng.uniform(6 * i + 3) - 0.5, rng.uniform(6 * i + 4) - 0.5,
                    rng.uniform(6 * i + 5) - 0.5};
        }
      }
    }
  }

  // Advances every particle by dt * vel with periodic wrap.
  void drift(double dt) {
    for (std::size_t i = 0; i < pos.size(); ++i) {
      for (int a = 0; a < 3; ++a) {
        pos[i][a] += dt * vel[i][a];
        pos[i][a] -= kBox * std::floor(pos[i][a] / kBox);
      }
    }
  }
};

domain::DomainOptions domain_options(double skin, domain::RebuildPolicy policy) {
  domain::DomainOptions opt;
  opt.box = kBox;
  opt.leaf_size = kLeafSize;
  opt.skin = skin;
  opt.rebuild = policy;
  return opt;
}

void BM_TreeBuild(benchmark::State& state) {
  const DriftingSet set(static_cast<int>(state.range(0)));
  domain::InteractionDomain dom(
      domain_options(0.0, domain::RebuildPolicy::kAlways));
  for (auto _ : state) {
    dom.update(set.pos);
    benchmark::DoNotOptimize(dom.tree().root());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(set.pos.size()));
}
BENCHMARK(BM_TreeBuild)->Arg(16)->Arg(24)->Unit(benchmark::kMillisecond);

void BM_TreeReuse(benchmark::State& state) {
  // Drift below skin/2 every iteration: update() refreshes instead of
  // rebuilding — the Verlet fast path.
  DriftingSet set(static_cast<int>(state.range(0)));
  const double dx = kBox / static_cast<double>(state.range(0));
  domain::InteractionDomain dom(
      domain_options(10.0 * kBox, domain::RebuildPolicy::kDisplacement));
  dom.update(set.pos);
  for (auto _ : state) {
    set.drift(1e-4 * dx);
    dom.update(set.pos);
    benchmark::DoNotOptimize(dom.stats().reuses);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(set.pos.size()));
}
BENCHMARK(BM_TreeReuse)->Arg(16)->Arg(24)->Unit(benchmark::kMillisecond);

void BM_PairStream(benchmark::State& state) {
  const DriftingSet set(16);
  const double cutoff = 0.12 * kBox * static_cast<double>(state.range(0)) / 10.0;
  domain::InteractionDomain dom(
      domain_options(0.0, domain::RebuildPolicy::kAlways));
  dom.update(set.pos);
  std::uint64_t pairs = 0;
  for (auto _ : state) {
    std::uint64_t n = 0;
    dom.for_each_pair(cutoff, [&n](const tree::LeafPair&) { ++n; });
    benchmark::DoNotOptimize(n);
    pairs += n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pairs));
}
BENCHMARK(BM_PairStream)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_PairMaterialize(benchmark::State& state) {
  const DriftingSet set(16);
  const double cutoff = 0.12 * kBox * static_cast<double>(state.range(0)) / 10.0;
  domain::InteractionDomain dom(
      domain_options(0.0, domain::RebuildPolicy::kAlways));
  dom.update(set.pos);
  std::uint64_t pairs = 0;
  for (auto _ : state) {
    const auto list = dom.interacting_pairs(cutoff);
    benchmark::DoNotOptimize(list.data());
    pairs += list.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pairs));
}
BENCHMARK(BM_PairMaterialize)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Figure output: build-vs-reuse phase timings + skin sweep -> BENCH_neighbor.json

// Timed repetitions per measured point.
constexpr int kReps = 7;

// The spread of one point's repetitions, in milliseconds.
struct Spread {
  double min_ms = 0.0;
  double median_ms = 0.0;
  double max_ms = 0.0;
};

// Runs `once`, which returns the seconds of the work it timed, kReps times.
template <typename F>
Spread time_reps(F once) {
  std::vector<double> ms;
  for (int r = 0; r < kReps; ++r) ms.push_back(1e3 * once());
  std::sort(ms.begin(), ms.end());
  return {ms.front(), ms[kReps / 2], ms.back()};
}

// Writes `"<name>_min_ms": ..., "<name>_median_ms": ..., "<name>_max_ms": ...`.
void write_spread(std::FILE* f, const char* name, const Spread& s) {
  std::fprintf(f, "\"%s_min_ms\": %.4f, \"%s_median_ms\": %.4f, \"%s_max_ms\": %.4f", name,
               s.min_ms, name, s.median_ms, name, s.max_ms);
}

struct SweepRecord {
  double skin_dx = 0.0;    // skin in units of the interparticle spacing
  int builds = 0;
  int reuses = 0;
  Spread phase;            // total tree + pairs time over the sweep steps
};

struct ThreadRecord {
  int threads = 1;
  Spread build;  // one cold build on a pool of that width
};

struct NeighborReport {
  int n_side = 0;
  Spread build;              // one cold tree build (no pool)
  Spread reuse;              // one refresh-path update
  Spread traversal;          // one streamed traversal at the cutoff
  std::uint64_t traversal_pairs = 0;  // leaf pairs one traversal streams
  std::vector<ThreadRecord> thread_sweep;
  std::vector<SweepRecord> sweep;
};

NeighborReport measure_report() {
  NeighborReport rep;
  rep.n_side = 20;
  const double dx = kBox / rep.n_side;
  const double cutoff = 2.5 * dx;
  const int steps = 24;
  const double step_drift = 0.05 * dx;  // per-step max displacement scale

  {  // cold build cost
    const DriftingSet set(rep.n_side);
    rep.build = time_reps([&] {
      domain::InteractionDomain dom(domain_options(0.0, domain::RebuildPolicy::kAlways));
      const double t0 = util::wtime();
      dom.update(set.pos);
      return util::wtime() - t0;
    });
  }
  // refresh cost
  rep.reuse = time_reps([&] {
    DriftingSet set(rep.n_side);
    domain::InteractionDomain dom(
        domain_options(10.0 * kBox, domain::RebuildPolicy::kDisplacement));
    dom.update(set.pos);
    set.drift(step_drift);
    const double t0 = util::wtime();
    dom.update(set.pos);
    return util::wtime() - t0;
  });
  // Level-parallel build scaling: the same cold build on pools of widths
  // 1/2/4/8 (the tree build parallelized across top levels in the
  // task-graph PR; this records how that lands on the current machine).
  for (const int n_threads : {1, 2, 4, 8}) {
    util::ThreadPool pool(static_cast<unsigned>(n_threads));
    const DriftingSet set(rep.n_side);
    domain::DomainOptions opt =
        domain_options(0.0, domain::RebuildPolicy::kAlways);
    opt.pool = &pool;
    ThreadRecord rec;
    rec.threads = n_threads;
    rec.build = time_reps([&] {
      domain::InteractionDomain dom(opt);
      const double t0 = util::wtime();
      dom.update(set.pos);
      return util::wtime() - t0;
    });
    rep.thread_sweep.push_back(rec);
  }

  {  // streamed traversal throughput
    const DriftingSet set(rep.n_side);
    domain::InteractionDomain dom(
        domain_options(0.0, domain::RebuildPolicy::kAlways));
    dom.update(set.pos);
    rep.traversal = time_reps([&] {
      std::uint64_t pairs = 0;
      const double t0 = util::wtime();
      dom.for_each_pair(cutoff, [&pairs](const tree::LeafPair&) { ++pairs; });
      const double dt = util::wtime() - t0;
      rep.traversal_pairs = pairs;
      return dt;
    });
  }

  // Skin sweep: identical drift sequence per skin; skin = 0 with the
  // displacement policy still rebuilds every step (any motion exceeds 0),
  // so it doubles as the always-rebuild baseline.
  for (const double skin_dx : {0.0, 0.1, 0.25, 0.5, 1.0}) {
    SweepRecord rec;
    rec.skin_dx = skin_dx;
    rec.phase = time_reps([&] {
      DriftingSet set(rep.n_side, 17);
      domain::InteractionDomain dom(
          domain_options(skin_dx * dx, domain::RebuildPolicy::kDisplacement));
      double phase = 0.0;
      std::uint64_t pairs = 0;
      for (int s = 0; s < steps; ++s) {
        const double t0 = util::wtime();
        dom.update(set.pos);
        dom.for_each_pair(cutoff, [&pairs](const tree::LeafPair&) { ++pairs; });
        phase += util::wtime() - t0;
        set.drift(step_drift);
      }
      benchmark::DoNotOptimize(pairs);
      rec.builds = static_cast<int>(dom.stats().builds);
      rec.reuses = static_cast<int>(dom.stats().reuses);
      return phase;
    });
    rep.sweep.push_back(rec);
  }
  return rep;
}

// Leaf pairs per second of one traversal of `ms` milliseconds.
double pairs_per_s(const NeighborReport& rep, double ms) {
  return ms > 0.0 ? static_cast<double>(rep.traversal_pairs) / (1e-3 * ms) : 0.0;
}

void write_bench_json(const NeighborReport& rep) {
  const char* path = std::getenv("HACC_BENCH_NEIGHBOR_JSON");
  if (path == nullptr) path = "BENCH_neighbor.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_neighbor: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"neighbor_domain\",\n");
  hacc::bench::write_provenance(f);
  std::fprintf(f, "  \"reps\": %d,\n", kReps);
  std::fprintf(f, "  \"n\": %d,\n", rep.n_side * rep.n_side * rep.n_side);
  std::fprintf(f, "  \"leaf_size\": %d,\n", kLeafSize);
  std::fprintf(f, "  ");
  write_spread(f, "build", rep.build);
  std::fprintf(f, ",\n  ");
  write_spread(f, "reuse", rep.reuse);
  std::fprintf(f, ",\n");
  // The slowest traversal gives the least throughput.
  std::fprintf(f,
               "  \"pairs_per_s_min\": %.3e, \"pairs_per_s_median\": %.3e, "
               "\"pairs_per_s_max\": %.3e,\n",
               pairs_per_s(rep, rep.traversal.max_ms), pairs_per_s(rep, rep.traversal.median_ms),
               pairs_per_s(rep, rep.traversal.min_ms));
  std::fprintf(f, "  \"build_threads_sweep\": [\n");
  for (std::size_t i = 0; i < rep.thread_sweep.size(); ++i) {
    const ThreadRecord& r = rep.thread_sweep[i];
    std::fprintf(f, "    {\"threads\": %d, ", r.threads);
    write_spread(f, "build", r.build);
    std::fprintf(f, "}%s\n", i + 1 < rep.thread_sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"skin_sweep\": [\n");
  for (std::size_t i = 0; i < rep.sweep.size(); ++i) {
    const SweepRecord& r = rep.sweep[i];
    std::fprintf(f, "    {\"skin_dx\": %.2f, \"builds\": %d, \"reuses\": %d, ", r.skin_dx,
                 r.builds, r.reuses);
    write_spread(f, "phase", r.phase);
    std::fprintf(f, "}%s\n", i + 1 < rep.sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

void print_summary() {
  hacc::bench::print_header(
      "Interaction domain: build vs Verlet reuse, streamed pairs, skin sweep");
  const NeighborReport rep = measure_report();
  std::printf("n = %d, leaf %d, median of %d: build %.3f ms, reuse %.3f ms (%.1fx), "
              "stream %.2e pairs/s\n",
              rep.n_side * rep.n_side * rep.n_side, kLeafSize, kReps, rep.build.median_ms,
              rep.reuse.median_ms,
              rep.reuse.median_ms > 0.0 ? rep.build.median_ms / rep.reuse.median_ms : 0.0,
              pairs_per_s(rep, rep.traversal.median_ms));
  std::printf("build threads sweep (median [min, max]):");
  for (const ThreadRecord& r : rep.thread_sweep) {
    std::printf("  %dt %.3f [%.3f, %.3f] ms", r.threads, r.build.median_ms, r.build.min_ms,
                r.build.max_ms);
  }
  std::printf("\n");
  std::printf("%-9s %8s %8s %12s %12s\n", "skin/dx", "builds", "reuses", "phase ms",
              "min-max ms");
  const double baseline = rep.sweep.empty() ? 0.0 : rep.sweep.front().phase.median_ms;
  for (const SweepRecord& r : rep.sweep) {
    std::printf("%-9.2f %8d %8d %12.3f %5.1f-%-6.1f (%.2fx baseline)\n", r.skin_dx, r.builds,
                r.reuses, r.phase.median_ms, r.phase.min_ms, r.phase.max_ms,
                baseline > 0.0 ? r.phase.median_ms / baseline : 0.0);
  }
  write_bench_json(rep);
}

}  // namespace

HACC_BENCH_MAIN(print_summary)
