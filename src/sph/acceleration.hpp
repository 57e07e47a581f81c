#pragma once

// Acceleration kernel ("upBarAc"/"upBarAcF"): calculates the momentum
// derivative (§5).  Pair-wise antisymmetric CRK pressure + artificial-
// viscosity forces; additionally tracks the maximum signal velocity, whose
// commit is priced as a floating-point atomic fetch_max — the atomic the
// paper calls out as natively supported in SYCL but CAS-emulated on NVIDIA
// hardware (§5.1).

#include <algorithm>

#include "sph/context.hpp"
#include "sph/states.hpp"

namespace hacc::sph {

inline constexpr double kAccelerationFlops = 320.0;

// Pair Traits of the PairInteractionKernel (contract in half_warp.hpp).
struct AccelerationTraits {
  using State = HydroState;
  using Accum = AccelTerm<float>;
  static constexpr int kAccumWords = 4;

  const core::ParticleSet* p;
  float* ax_out;
  float* ay_out;
  float* az_out;
  float* vsig_out;
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
    return accel_term(to_side(own), to_side(other), box, visc);
  }

  void commit(std::int32_t idx, const Accum& a) const {
    ax_out[idx] += a.accel.x;
    ay_out[idx] += a.accel.y;
    az_out[idx] += a.accel.z;
    if (a.vsig > vsig_out[idx]) vsig_out[idx] = a.vsig;  // fetch_max's rule
  }

  static void charge_commit(xsycl::OpCounters& c) {
    c.atomic_f32_add += 3;
    c.atomic_f32_minmax += 1;
  }
};

xsycl::LaunchStats run_acceleration(xsycl::Queue& q, core::ParticleSet& p,
                                    const domain::SpeciesView& view,
                                    const domain::PairSource& pairs,
                                    const HydroOptions& opt,
                                    const std::string& timer_name = "upBarAc");

}  // namespace hacc::sph
