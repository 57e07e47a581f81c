#include "sph/extras.hpp"

#include <algorithm>

namespace hacc::sph {

xsycl::LaunchStats run_extras(xsycl::Queue& q, core::ParticleSet& p,
                              const domain::SpeciesView& view,
                              const domain::PairSource& pairs,
                              const HydroOptions& opt, const std::string& timer_name) {
  std::fill(p.rho.begin(), p.rho.end(), 0.f);
  std::fill(p.dvel.begin(), p.dvel.end(), 0.f);

  ExtrasTraits traits{&p, p.rho.data(), p.dvel.data(), opt.box};
  const auto stats = launch_pairs(q, timer_name, traits, view, pairs, opt);

  // Finalize: self density term + equation of state.
  auto* rho = p.rho.data();
  auto* mass = p.mass.data();
  auto* h = p.h.data();
  auto* crk = p.crk.data();
  auto* u = p.u.data();
  auto* P = p.P.data();
  auto* cs = p.cs.data();
  launch_particles(
      q, timer_name, p.size(),
      [rho, mass, h, crk, u, P, cs](std::int32_t i) {
        const float A = crk[core::crk_idx::kCount * static_cast<std::size_t>(i) +
                            core::crk_idx::kA];
        rho[i] += mass[i] * A * kernel_self(h[i]);
        P[i] = eos_pressure(rho[i], u[i]);
        cs[i] = eos_sound_speed(rho[i], P[i]);
      },
      opt);
  return stats;
}

}  // namespace hacc::sph
