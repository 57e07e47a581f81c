#include "sph/energy.hpp"

#include <algorithm>

namespace hacc::sph {

xsycl::LaunchStats run_energy(xsycl::Queue& q, core::ParticleSet& p,
                              const domain::SpeciesView& view,
                              const domain::PairSource& pairs,
                              const HydroOptions& opt, const std::string& timer_name) {
  std::fill(p.du.begin(), p.du.end(), 0.f);
  EnergyTraits traits{&p, p.du.data(), opt.box, opt.visc};
  return launch_pairs(q, timer_name, traits, view, pairs, opt);
}

}  // namespace hacc::sph
