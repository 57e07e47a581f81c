// Ablation: real measured CPU throughput of the five hot-spot kernels under
// each communication variant on the xsycl substrate (ns per interaction).
// This is the functional execution whose op counts drive the platform
// models — the numbers here are host-CPU times, not GPU projections.

#include <vector>

#include "bench_common.hpp"
#include "core/launch.hpp"
#include "sph/pipeline.hpp"
#include "util/rng.hpp"

namespace {

using namespace hacc;

core::ParticleSet make_gas(int n_side) {
  core::ParticleSet p;
  p.resize(static_cast<std::size_t>(n_side) * n_side * n_side);
  const double dx = 1.0 / n_side;
  const util::CounterRng rng(99);
  std::size_t i = 0;
  for (int ix = 0; ix < n_side; ++ix) {
    for (int iy = 0; iy < n_side; ++iy) {
      for (int iz = 0; iz < n_side; ++iz, ++i) {
        p.x[i] = float((ix + 0.5) * dx + 0.25 * dx * (rng.uniform(6 * i) - 0.5));
        p.y[i] = float((iy + 0.5) * dx + 0.25 * dx * (rng.uniform(6 * i + 1) - 0.5));
        p.z[i] = float((iz + 0.5) * dx + 0.25 * dx * (rng.uniform(6 * i + 2) - 0.5));
        p.vx[i] = float(0.4 * (rng.uniform(6 * i + 3) - 0.5));
        p.vy[i] = float(0.4 * (rng.uniform(6 * i + 4) - 0.5));
        p.vz[i] = float(0.4 * (rng.uniform(6 * i + 5) - 0.5));
        p.mass[i] = float(dx * dx * dx);
        p.h[i] = float(sph::kEta * dx);
        p.u[i] = 1.0f;
      }
    }
  }
  return p;
}

struct Fixture {
  Fixture() : gas(make_gas(10)) {
    sph::PipelineOptions popt;
    popt.hydro.box = 1.0f;
    pipe = sph::build_pipeline(gas, popt);
    // Prime derived state (V, CRK coefficients, EOS) once.
    util::ThreadPool pool;
    xsycl::Queue q(pool);
    sph::run_hydro_pipeline(q, gas, popt);
  }
  core::ParticleSet gas;
  sph::Pipeline pipe;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

const char* kKernels[] = {"upGeo", "upCor", "upBarEx", "upBarAc", "upBarDu"};

void BM_Kernel(benchmark::State& state) {
  auto& f = fixture();
  const char* kernel = kKernels[state.range(0)];
  const auto variant = static_cast<xsycl::CommVariant>(state.range(1));
  const int sg = static_cast<int>(state.range(2));

  sph::HydroOptions opt;
  opt.box = 1.0f;
  opt.variant = variant;
  opt.launch.sub_group_size = sg;

  util::ThreadPool pool;
  xsycl::Queue q(pool);
  std::uint64_t interactions = 0;
  for (auto _ : state) {
    const auto stats = core::KernelRegistry::instance().run(
        kernel, q, f.gas, f.pipe.domain->all(), f.pipe.pairs, opt);
    interactions += stats.ops.interactions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(interactions));
  state.SetLabel(std::string(kernel) + "/" + to_string(variant) + "/sg" +
                 std::to_string(sg));
}

void register_benchmarks() {
  for (int k = 0; k < 5; ++k) {
    for (const auto v : xsycl::kAllVariants) {
      benchmark::RegisterBenchmark("BM_Kernel", BM_Kernel)
          ->Args({k, static_cast<long>(v), 32})
          ->UseRealTime()
          ->Unit(benchmark::kMillisecond);
    }
  }
  // Sub-group size sweep on the acceleration kernel (the §5.2 knob).
  for (const int sg : {16, 32, 64}) {
    benchmark::RegisterBenchmark("BM_Kernel_sg_sweep", BM_Kernel)
        ->Args({3, static_cast<long>(xsycl::CommVariant::kSelect), sg})
        ->UseRealTime()
        ->Unit(benchmark::kMillisecond);
  }
}

void print_summary() {
  hacc::bench::print_header(
      "Functional kernel ablation: items_per_second above is real pair\n"
      "interactions per second on the host CPU substrate");
  std::printf(
      "All five variants compute identical physics (see test_sph variant\n"
      "equivalence suite); they differ in communication mechanics, which the\n"
      "platform models price per architecture for Figures 9-11.\n");
}

}  // namespace

int main(int argc, char** argv) {
  register_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_summary();
  return 0;
}
