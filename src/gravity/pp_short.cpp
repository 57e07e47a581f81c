#include "gravity/pp_short.hpp"

#include <cmath>

#include "sph/half_warp.hpp"
#include "util/periodic.hpp"

namespace hacc::gravity {

xsycl::LaunchStats run_pp_short(xsycl::Queue& q, const GravityArrays& arrays,
                                const domain::SpeciesView& view,
                                const domain::PairSource& pairs,
                                const PolyShortForce& poly, const PpOptions& opt,
                                const std::string& timer_name) {
  GravityTraits traits;
  traits.arrays = arrays;
  traits.poly = &poly;
  traits.box = opt.box;
  traits.G = opt.G;
  traits.eps2 = opt.softening * opt.softening;
  traits.rcut2 = static_cast<float>(poly.r_cut() * poly.r_cut());
  return sph::launch_pair_batches(q, timer_name, traits, view, pairs,
                                  opt.variant, opt.launch);
}

void reference_pp_short(const GravityArrays& arrays, const PolyShortForce& poly,
                        float box, float G, float softening) {
  const double eps2 = double(softening) * softening;
  const double rcut2 = poly.r_cut() * poly.r_cut();
  for (std::size_t i = 0; i < arrays.n; ++i) {
    double fx = 0, fy = 0, fz = 0;
    for (std::size_t j = 0; j < arrays.n; ++j) {
      if (j == i) continue;
      double dx = double(arrays.x[i]) - arrays.x[j];
      double dy = double(arrays.y[i]) - arrays.y[j];
      double dz = double(arrays.z[i]) - arrays.z[j];
      dx = util::min_image(dx, double(box));
      dy = util::min_image(dy, double(box));
      dz = util::min_image(dz, double(box));
      const double r2 = dx * dx + dy * dy + dz * dz;
      if (r2 >= rcut2 || r2 <= 0.0) continue;
      const double f =
          double(G) * arrays.mass[j] * poly.short_profile(float(r2), float(eps2));
      fx -= f * dx;
      fy -= f * dy;
      fz -= f * dz;
    }
    arrays.ax[i] += static_cast<float>(fx);
    arrays.ay[i] += static_cast<float>(fy);
    arrays.az[i] += static_cast<float>(fz);
  }
}

}  // namespace hacc::gravity
