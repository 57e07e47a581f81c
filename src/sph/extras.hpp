#pragma once

// Extras kernel ("upBarEx"): evaluates the CRK density interpolant and the
// corrected velocity gradient (the "density and state gradients" of §5),
// then applies the ideal-gas EOS per particle.

#include <algorithm>

#include "sph/context.hpp"
#include "sph/states.hpp"

namespace hacc::sph {

inline constexpr double kExtrasFlops = 190.0;

// Pair Traits of the PairInteractionKernel (contract in half_warp.hpp).
struct ExtrasTraits {
  using State = HydroState;
  using Accum = ExtrasTerm<float>;
  static constexpr int kAccumWords = 10;

  const core::ParticleSet* p;
  float* rho_out;
  float* dvel_out;
  float box;

  // load_extras_state, not load_hydro_state: rho_out aliases p->rho, the
  // output this launch accumulates into, so it is no input.
  State load(std::int32_t i) const { return load_extras_state(*p, i); }

  template <typename Lanes>
  auto reaches(const Lanes& own, const Lanes& other) const {
    return reaches_own_support(own, other, box);
  }

  double reach_radius(const State& own, float) const { return kSupport * own.h; }

  template <typename Lanes>
  auto term(const Lanes& own, const Lanes& other) const {
    return extras_term(to_side(own), to_side(other), box);
  }

  void commit(std::int32_t idx, const Accum& a) const {
    rho_out[idx] += a.rho;
    float* dv = dvel_out + 9 * static_cast<std::size_t>(idx);
    for (int k = 0; k < 9; ++k) dv[k] += a.dv[k / 3][k % 3];
  }

  static void charge_commit(xsycl::OpCounters& c) { c.atomic_f32_add += kAccumWords; }
};

xsycl::LaunchStats run_extras(xsycl::Queue& q, core::ParticleSet& p,
                              const domain::SpeciesView& view,
                              const domain::PairSource& pairs,
                              const HydroOptions& opt,
                              const std::string& timer_name = "upBarEx");

}  // namespace hacc::sph
