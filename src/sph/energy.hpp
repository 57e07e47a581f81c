#pragma once

// Energy kernel ("upBarDu"/"upBarDuF"): solves the derivative of the
// internal energy (§5) with the compatible pairwise-work partition, so that
// kinetic + internal energy is conserved exactly in the flat-space limit.

#include <algorithm>

#include "sph/context.hpp"
#include "sph/states.hpp"

namespace hacc::sph {

inline constexpr double kEnergyFlops = 240.0;

// Pair Traits of the PairInteractionKernel (contract in half_warp.hpp).
struct EnergyTraits {
  using State = HydroState;
  // A lane's sum (float), or the pair terms of four lanes (Floats4).
  template <typename Real>
  struct Sum {
    Real du{};

    template <typename From>
    void add(const Sum<From>& t, int k = 0) {
      du += lanes::lane(t.du, k);
    }
  };
  using Accum = Sum<float>;
  static constexpr int kAccumWords = 1;

  const core::ParticleSet* p;
  float* du_out;
  float box;
  ViscosityParams<float> visc;

  State load(std::int32_t i) const { return load_hydro_state(*p, i); }

  template <typename Lanes>
  auto reaches(const Lanes& own, const Lanes& other) const {
    return reaches_pair_support(own, other, box);
  }

  double reach_radius(const State& own, float hmax_other) const {
    return kSupport * std::max(double(own.h), double(hmax_other));
  }

  template <typename Lanes>
  auto term(const Lanes& own, const Lanes& other) const {
    auto du = energy_term(to_side(own), to_side(other), box, visc);
    return Sum<decltype(du)>{du};
  }

  void commit(std::int32_t idx, const Accum& a) const { du_out[idx] += a.du; }

  static void charge_commit(xsycl::OpCounters& c) { c.atomic_f32_add += kAccumWords; }
};

xsycl::LaunchStats run_energy(xsycl::Queue& q, core::ParticleSet& p,
                              const domain::SpeciesView& view,
                              const domain::PairSource& pairs,
                              const HydroOptions& opt,
                              const std::string& timer_name = "upBarDu");

}  // namespace hacc::sph
