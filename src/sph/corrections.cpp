#include "sph/corrections.hpp"

#include <algorithm>

namespace hacc::sph {

namespace {

using core::crk_idx::dB;
using core::crk_idx::kA;
using core::crk_idx::kB;
using core::crk_idx::kdA;

}  // namespace

xsycl::LaunchStats run_corrections(xsycl::Queue& q, core::ParticleSet& p,
                                   const domain::SpeciesView& view,
                                   const domain::PairSource& pairs,
                                   const HydroOptions& opt,
                                   const std::string& timer_name) {
  std::fill(p.moments.begin(), p.moments.end(), 0.f);

  CorrectionsTraits traits{&p, p.moments.data(), opt.box};
  const auto stats = launch_pairs(q, timer_name, traits, view, pairs, opt);

  // Finalize: self contribution + double-precision moment solve per particle.
  auto* moments = p.moments.data();
  auto* crk = p.crk.data();
  auto* h = p.h.data();
  auto* V = p.V.data();
  launch_particles(
      q, timer_name, p.size(),
      [moments, crk, h, V](std::int32_t i) {
        CrkMoments<double> m = CrkMoments<double>::from_flat(
            moments + core::mom_idx::kCount * static_cast<std::size_t>(i));
        corrections_self(m, double(V[i]), double(h[i]));
        const CrkCoeffs<double> c = solve_crk(m);
        float* out = crk + core::crk_idx::kCount * static_cast<std::size_t>(i);
        out[kA] = float(c.A);
        for (int a = 0; a < 3; ++a) out[kB + a] = float(c.B[a]);
        for (int g = 0; g < 3; ++g) out[kdA + g] = float(c.dA[g]);
        for (int r = 0; r < 3; ++r) {
          for (int g = 0; g < 3; ++g) out[dB(r, g)] = float(c.dB[r][g]);
        }
      },
      opt);
  return stats;
}

}  // namespace hacc::sph
