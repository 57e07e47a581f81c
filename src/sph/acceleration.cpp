#include "sph/acceleration.hpp"

#include <algorithm>

namespace hacc::sph {

xsycl::LaunchStats run_acceleration(xsycl::Queue& q, core::ParticleSet& p,
                                    const domain::SpeciesView& view,
                                    const domain::PairSource& pairs,
                                    const HydroOptions& opt,
                                    const std::string& timer_name) {
  std::fill(p.ax.begin(), p.ax.end(), 0.f);
  std::fill(p.ay.begin(), p.ay.end(), 0.f);
  std::fill(p.az.begin(), p.az.end(), 0.f);
  std::fill(p.vsig.begin(), p.vsig.end(), 0.f);

  AccelerationTraits traits{&p,       p.ax.data(), p.ay.data(), p.az.data(),
                            p.vsig.data(), opt.box,     opt.visc};
  return launch_pairs(q, timer_name, traits, view, pairs, opt);
}

}  // namespace hacc::sph
