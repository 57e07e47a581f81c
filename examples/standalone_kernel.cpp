// The standalone-kernel workflow of §7.2: CRK-HACC's biggest hot spots were
// extracted into standalone applications driven by checkpoint files, so one
// kernel at a time can be recompiled and re-run while experimenting with
// variants.  This driver reproduces that workflow:
//
//   # write a checkpoint from a generated gas state
//   ./examples/standalone_kernel mode=generate checkpoint=/tmp/gas.ckpt np=12
//
//   # run one kernel from the checkpoint, by name, with a chosen variant
//   ./examples/standalone_kernel checkpoint=/tmp/gas.ckpt kernel=upBarAc
//       variant=memobj sg=16 repeats=5

#include <cstdio>
#include <exception>
#include <span>
#include <string>

#include "core/checkpoint.hpp"
#include "core/launch.hpp"
#include "example_args.hpp"
#include "sph/pipeline.hpp"
#include "util/enum_names.hpp"
#include "util/rng.hpp"

namespace {

// What the run does: write a checkpoint, or run one kernel from it.
enum class Mode { kRun, kGenerate };

std::span<const hacc::util::EnumName<Mode>> enum_names(Mode) {
  static constexpr hacc::util::EnumName<Mode> kNames[] = {{Mode::kRun, {"run"}},
                                                          {Mode::kGenerate, {"generate"}}};
  return kNames;
}

hacc::core::ParticleSet generate_gas(int n_side, double box, std::uint64_t seed) {
  hacc::core::ParticleSet p;
  p.resize(static_cast<std::size_t>(n_side) * n_side * n_side);
  const double dx = box / n_side;
  const hacc::util::CounterRng rng(seed);
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
        p.h[i] = float(hacc::sph::kEta * dx);
        p.u[i] = 1.0f;
      }
    }
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) try {
  hacc::examples::Args args(argc, argv, "standalone_kernel");
  const unsigned threads = args.threads();
  const std::string path = args.get<std::string>("checkpoint", "/tmp/crkhacc_gas.ckpt");
  hacc::core::SimConfig keys;
  keys.np_side = 12;
  keys.box = 1.0;
  keys.seed = 7;
  for (const char* key : {"np", "box", "seed"}) args.read(keys, key);
  const int np = keys.np_side;
  const double box = keys.box;
  const std::uint64_t seed = keys.seed;
  const int sg = args.get<int>("sg", 32);
  const int repeats = args.get<int>("repeats", 3);
  const auto variant = args.get("variant", hacc::xsycl::CommVariant::kSelect);
  const Mode mode = args.get("mode", Mode::kRun);
  const std::string kernel = args.get<std::string>("kernel", "upBarAc");
  if (!args.ok()) return 1;

  if (mode == Mode::kGenerate) {
    auto gas = generate_gas(np, box, seed);
    // Prime the derived state so any kernel can run in isolation.
    hacc::util::ThreadPool pool;
    hacc::xsycl::Queue q(pool);
    hacc::sph::PipelineOptions popt;
    popt.hydro.box = static_cast<float>(box);
    hacc::sph::run_hydro_pipeline(q, gas, popt);
    hacc::core::RunCheckpointMeta meta;
    meta.box = box;
    meta.scale_factor = 1.0;
    if (!hacc::core::write_run_checkpoint(path, {}, gas, meta)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote checkpoint %s (%zu particles, box %.2f)\n", path.c_str(),
                gas.size(), box);
    return 0;
  }

  hacc::core::ParticleSet dm, gas;
  hacc::core::RunCheckpointMeta meta;
  if (!hacc::core::read_run_checkpoint(path, dm, gas, meta)) {
    std::fprintf(stderr, "cannot read %s (generate first: mode=generate)\n",
                 path.c_str());
    return 1;
  }

  const auto& registry = hacc::core::KernelRegistry::instance();
  if (!registry.has(kernel)) {
    std::fprintf(stderr, "unknown kernel '%s'; available:", kernel.c_str());
    for (const auto& n : registry.names()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 1;
  }

  hacc::sph::PipelineOptions popt;
  popt.hydro.box = static_cast<float>(meta.box);
  popt.hydro.variant = variant;
  popt.hydro.launch.sub_group_size = sg;
  const auto pipe = hacc::sph::build_pipeline(gas, popt);

  hacc::util::ThreadPool pool(threads);
  hacc::xsycl::Queue q(pool);

  std::printf("standalone %s: %zu particles, %zu leaf pairs, %s, sg %d, %d repeats\n",
              kernel.c_str(), gas.size(), pipe.pairs.size(), to_string(variant),
              popt.hydro.launch.sub_group_size, repeats);
  for (int r = 0; r < repeats; ++r) {
    const auto stats =
        registry.run(kernel, q, gas, pipe.domain->all(), pipe.pairs, popt.hydro);
    std::printf("  run %d: %.4f s, %llu interactions\n", r + 1, stats.seconds,
                static_cast<unsigned long long>(stats.ops.interactions));
  }
  for (const auto& [name, k] : q.aggregate_by_kernel()) {
    std::printf("counters: %s\n", k.ops.summary().c_str());
    std::printf("kernel %s: %.4f s over %llu launches\n", name.c_str(),
                k.seconds, static_cast<unsigned long long>(k.launches));
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "standalone_kernel: %s\n", e.what());
  return 1;
}
