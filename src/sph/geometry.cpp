#include "sph/geometry.hpp"

#include <algorithm>

namespace hacc::sph {

xsycl::LaunchStats run_geometry(xsycl::Queue& q, core::ParticleSet& p,
                                const domain::SpeciesView& view,
                                const domain::PairSource& pairs,
                                const HydroOptions& opt, const std::string& timer_name) {
  std::fill(p.m0.begin(), p.m0.end(), 0.f);

  GeometryTraits traits{&p, p.m0.data(), opt.box};
  const auto stats = launch_pairs(q, timer_name, traits, view, pairs, opt);

  // Finalize: add the self contribution and invert to a volume.
  auto* m0 = p.m0.data();
  auto* h = p.h.data();
  auto* V = p.V.data();
  launch_particles(
      q, timer_name, p.size(),
      [m0, h, V](std::int32_t i) {
        const float total = m0[i] + kernel_self(h[i]);
        m0[i] = total;
        V[i] = total > 0.f ? 1.f / total : 0.f;
      },
      opt);
  return stats;
}

}  // namespace hacc::sph
