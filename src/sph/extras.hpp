#pragma once

// Extras kernel ("upBarEx"): evaluates the CRK density interpolant and the
// corrected velocity gradient (the "density and state gradients" of §5),
// then applies the ideal-gas EOS per particle.

#include <algorithm>

#include "sph/context.hpp"
#include "sph/states.hpp"
#include "xsycl/atomic.hpp"

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

  // load_extras_state, not load_hydro_state: rho_out aliases p->rho, so a
  // plain load of p->rho here would race the atomic commits below.
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

  void commit(xsycl::SubGroup& sg, std::int32_t idx, const Accum& a) const {
    xsycl::atomic_ref<float> rho_ref(rho_out[idx], sg.counters());
    rho_ref.fetch_add(a.rho);
    float* dv = dvel_out + 9 * static_cast<std::size_t>(idx);
    for (int k = 0; k < 9; ++k) {
      xsycl::atomic_ref<float> ref(dv[k], sg.counters());
      ref.fetch_add(a.dv[k / 3][k % 3]);
    }
  }

  static void charge_commit(xsycl::OpCounters& c) { c.atomic_f32_add += kAccumWords; }
};

xsycl::LaunchStats run_extras(xsycl::Queue& q, core::ParticleSet& p,
                              const domain::SpeciesView& view,
                              const domain::PairSource& pairs,
                              const HydroOptions& opt,
                              const std::string& timer_name = "upBarEx");

}  // namespace hacc::sph
