#include "platform/workload.hpp"

#include "core/particles.hpp"
#include "gravity/pp_short.hpp"
#include "sph/pipeline.hpp"
#include "util/rng.hpp"

namespace hacc::platform {

namespace {

core::ParticleSet make_workload_gas(const WorkloadOptions& opt) {
  core::ParticleSet p;
  const int n = opt.n_side;
  p.resize(static_cast<std::size_t>(n) * n * n);
  const double box = 1.0;
  const double dx = box / n;
  const util::CounterRng rng(opt.seed);
  std::size_t i = 0;
  for (int ix = 0; ix < n; ++ix) {
    for (int iy = 0; iy < n; ++iy) {
      for (int iz = 0; iz < n; ++iz, ++i) {
        p.x[i] = float((ix + 0.5) * dx + opt.jitter * dx * (rng.uniform(6 * i) - 0.5));
        p.y[i] = float((iy + 0.5) * dx + opt.jitter * dx * (rng.uniform(6 * i + 1) - 0.5));
        p.z[i] = float((iz + 0.5) * dx + opt.jitter * dx * (rng.uniform(6 * i + 2) - 0.5));
        p.vx[i] = float(opt.vel_amp * (rng.uniform(6 * i + 3) - 0.5));
        p.vy[i] = float(opt.vel_amp * (rng.uniform(6 * i + 4) - 0.5));
        p.vz[i] = float(opt.vel_amp * (rng.uniform(6 * i + 5) - 0.5));
        p.mass[i] = float(dx * dx * dx);
        p.h[i] = float(sph::kEta * dx);
        p.u[i] = 1.0f;
      }
    }
  }
  return p;
}

}  // namespace

KernelProfiles collect_profiles(xsycl::CommVariant variant, int sg_size,
                                const WorkloadOptions& opt) {
  core::ParticleSet gas = make_workload_gas(opt);
  xsycl::Queue queue;

  sph::PipelineOptions popt;
  popt.hydro.box = 1.0f;
  popt.hydro.variant = variant;
  popt.hydro.launch.sub_group_size = sg_size;
  popt.hydro.launch.sg_per_wg = opt.sg_per_wg;
  popt.corrector_pass = true;  // covers upBarAcF / upBarDuF
  sph::run_hydro_pipeline(queue, gas, popt);

  // Short-range gravity over the same particles.
  {
    const auto pos = gas.positions();
    const double rs = 0.08;
    const gravity::PolyShortForce poly(rs, 4.0 * rs);
    const tree::RcbTree tr(pos, 1.0, popt.leaf_size);
    const auto pairs = tr.interacting_pairs(poly.r_cut());
    std::vector<float> ax(gas.size(), 0.f), ay(gas.size(), 0.f), az(gas.size(), 0.f);
    gravity::PpOptions gopt;
    gopt.box = 1.0f;
    gopt.variant = variant == xsycl::CommVariant::kVISA ? xsycl::CommVariant::kVISA
                                                        : variant;
    gopt.launch.sub_group_size = sg_size;
    gopt.launch.sg_per_wg = opt.sg_per_wg;
    gravity::GravityArrays arrays{gas.x.data(), gas.y.data(), gas.z.data(),
                                  gas.mass.data(), ax.data(), ay.data(), az.data(),
                                  gas.size()};
    gravity::run_pp_short(queue, arrays, tr, pairs, poly, gopt);
  }

  KernelProfiles out;
  for (const auto& [name, totals] : queue.aggregate_by_kernel()) out[name] = totals.ops;
  return out;
}

const KernelProfiles& ProfileCache::get(xsycl::CommVariant variant, int sg_size) {
  const auto key = std::make_pair(variant, sg_size);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    it = cache_.emplace(key, collect_profiles(variant, sg_size, opt_)).first;
  }
  return it->second;
}

}  // namespace hacc::platform
