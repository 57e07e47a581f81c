#pragma once

/// \file
/// Short-range particle-particle gravity: the direct-comparison kernel
/// branch of HACC (§3.1), executed through the same half-warp machinery as
/// the SPH kernels so the full application exercises the xsycl
/// communication variants end to end.

#include <array>
#include <cmath>
#include <span>

#include "domain/domain.hpp"
#include "gravity/poisson.hpp"
#include "sph/lane_block.hpp"
#include "sph/states.hpp"
#include "tree/rcb.hpp"
#include "xsycl/comm_variant.hpp"
#include "xsycl/queue.hpp"

namespace hacc::gravity {

/// Flat array view of the combined (dark matter + baryon) particle state
/// the gravity solver operates on.
struct GravityArrays {
  const float* x = nullptr;
  const float* y = nullptr;
  const float* z = nullptr;
  const float* mass = nullptr;
  float* ax = nullptr;  ///< accumulated (not zeroed here)
  float* ay = nullptr;
  float* az = nullptr;
  std::size_t n = 0;
};

/// Physics and launch knobs of the short-range kernel.
struct PpOptions {
  float box = 1.0f;
  float G = 1.0f;
  float softening = 0.0f;  ///< Plummer softening length
  xsycl::CommVariant variant = xsycl::CommVariant::kSelect;
  xsycl::LaunchConfig launch;
};

/// Flops per particle-pair interaction (cost model / op counting).
inline constexpr double kGravityPpFlops = 40.0;

/// Lane state of the short-range kernel.
struct GravState {
  float px, py, pz;
  float mass;
  std::int32_t idx;
  std::int32_t valid;
};
static_assert(sizeof(GravState) == 24);

/// Pair Traits of the short-range kernel (contract in sph/half_warp.hpp).
struct GravityTraits {
  using State = GravState;
  struct Accum {
    float fx = 0.f, fy = 0.f, fz = 0.f;
  };
  static constexpr int kAccumWords = 3;

  GravityArrays arrays;
  const PolyShortForce* poly;
  float box;
  float G;
  float eps2;
  float rcut2;

  State load(std::int32_t i) const {
    return {arrays.x[i], arrays.y[i], arrays.z[i], arrays.mass[i], i, 1};
  }

  // Zero outside 0 < r² < r_cut²: a bool for a float r², a mask for a
  // four-lane one.
  template <typename Real>
  auto in_reach(Real r2) const {
    return !(r2 >= rcut2 || r2 <= 0.f);
  }

  bool reaches(const State& own, const State& other) const {
    return in_reach(norm2(sph::separation(own, other, box)));
  }

  double reach_radius(const State&, float) const { return std::sqrt(double(rcut2)); }

  // Newton minus the polynomial grid profile, attractive toward the
  // partner.  Real is float (accumulate) or sph::Floats4 (accumulate4).
  template <typename Real>
  util::Vec3<Real> force(const util::Vec3<Real>& d, Real r2, Real other_mass) const {
    const Real f = G * other_mass * poly->short_profile(r2, Real(eps2));
    return {-f * d.x, -f * d.y, -f * d.z};
  }

  // Only called for pairs that reach.
  void accumulate(Accum& a, const State& own, const State& other) const {
    const util::Vec3<float> d = sph::separation(own, other, box);
    const util::Vec3<float> t = force(d, norm2(d), other.mass);
    a.fx += t.x;
    a.fy += t.y;
    a.fz += t.z;
  }

  // Four-lane form (sph/half_warp.hpp, "Vector blocks"): the members it
  // reads, in the order it indexes them.
  static constexpr std::array kLaneFields{&State::px, &State::py, &State::pz,
                                          &State::mass};
  enum LaneField { kX, kY, kZ, kMass };
  using Lanes = sph::LaneBlock<kLaneFields.size()>;
  using Accum4 = util::Vec3<sph::Floats4>;

  // Inlined into the round loop, the block's sums stay in registers.
  [[gnu::always_inline]] sph::Mask4 accumulate4(Accum4& a, const Lanes& own,
                                                const Lanes& other,
                                                sph::Mask4 pair) const {
    const util::Vec3<sph::Floats4> d = sph::min_image(
        util::Vec3<sph::Floats4>{own.f[kX] - other.f[kX], own.f[kY] - other.f[kY],
                                 own.f[kZ] - other.f[kZ]},
        box);
    const sph::Floats4 r2 = norm2(d);
    const sph::Mask4 reach = pair && in_reach(r2);
    if (sph::stdx::none_of(reach)) return reach;
    util::Vec3<sph::Floats4> t = force(d, r2, other.f[kMass]);
    // An unreached lane adds +0: its sum is unchanged.
    for (int c = 0; c < 3; ++c) where(!reach, t[c]) = 0.f;
    a += t;
    return reach;
  }

  static Accum lane(const Accum4& a, int k) { return {a.x[k], a.y[k], a.z[k]}; }

  void commit(std::int32_t idx, const Accum& a) const {
    arrays.ax[idx] += a.fx;
    arrays.ay[idx] += a.fy;
    arrays.az[idx] += a.fz;
  }

  static void charge_commit(xsycl::OpCounters& c) { c.atomic_f32_add += kAccumWords; }
};

/// Runs the short-range kernel over the leaf pairs of `pairs` (cutoff must
/// match poly.r_cut()).  The view is a whole tree (implicit conversion) or a
/// species-filtered window of the shared interaction domain; a streamed
/// PairSource feeds the launch machinery in leaf-pair batches.
/// Accelerations are accumulated into arrays.ax/ay/az.
xsycl::LaunchStats run_pp_short(xsycl::Queue& q, const GravityArrays& arrays,
                                const domain::SpeciesView& view,
                                const domain::PairSource& pairs,
                                const PolyShortForce& poly, const PpOptions& opt,
                                const std::string& timer_name = "grav_pp");

/// Scalar double-precision reference (brute force over all pairs).
void reference_pp_short(const GravityArrays& arrays, const PolyShortForce& poly,
                        float box, float G, float softening);

}  // namespace hacc::gravity
