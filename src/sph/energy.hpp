#pragma once

// Energy kernel ("upBarDu"/"upBarDuF"): solves the derivative of the
// internal energy (§5) with the compatible pairwise-work partition, so that
// kinetic + internal energy is conserved exactly in the flat-space limit.

#include <algorithm>

#include "sph/context.hpp"
#include "sph/states.hpp"
#include "xsycl/atomic.hpp"

namespace hacc::sph {

inline constexpr double kEnergyFlops = 240.0;

// Pair Traits of the PairInteractionKernel (contract in half_warp.hpp).
struct EnergyTraits {
  using State = HydroState;
  struct Accum {
    float du = 0.f;
  };
  static constexpr int kAccumWords = 1;

  const core::ParticleSet* p;
  float* du_out;
  float box;
  ViscosityParams<float> visc;

  State load(std::int32_t i) const { return load_hydro_state(*p, i); }

  bool reaches(const State& own, const State& other) const {
    return reaches_pair_support(own, other, box);
  }

  double reach_radius(const State& own, float hmax_other) const {
    return kSupport * std::max(double(own.h), double(hmax_other));
  }

  void accumulate(Accum& a, const State& own, const State& other) const {
    a.du += energy_term(to_side(own), to_side(other), box, visc);
  }

  void commit(xsycl::SubGroup& sg, std::int32_t idx, const Accum& a) const {
    xsycl::atomic_ref<float>(du_out[idx], sg.counters()).fetch_add(a.du);
  }

  static void charge_commit(xsycl::OpCounters& c) { c.atomic_f32_add += kAccumWords; }
};

xsycl::LaunchStats run_energy(xsycl::Queue& q, core::ParticleSet& p,
                              const domain::SpeciesView& view,
                              const domain::PairSource& pairs,
                              const HydroOptions& opt,
                              const std::string& timer_name = "upBarDu");

}  // namespace hacc::sph
