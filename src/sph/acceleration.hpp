#pragma once

// Acceleration kernel ("upBarAc"/"upBarAcF"): calculates the momentum
// derivative (§5).  Pair-wise antisymmetric CRK pressure + artificial-
// viscosity forces; additionally tracks the maximum signal velocity with a
// floating-point atomic fetch_max — the atomic the paper calls out as
// natively supported in SYCL but CAS-emulated on NVIDIA hardware (§5.1).

#include <algorithm>

#include "sph/context.hpp"
#include "sph/states.hpp"
#include "xsycl/atomic.hpp"

namespace hacc::sph {

inline constexpr double kAccelerationFlops = 320.0;

// Pair Traits of the PairInteractionKernel (contract in half_warp.hpp).
struct AccelerationTraits {
  using State = HydroState;
  struct Accum {
    float fx = 0.f, fy = 0.f, fz = 0.f;
    float vsig = 0.f;
  };
  static constexpr int kAccumWords = 4;

  const core::ParticleSet* p;
  float* ax_out;
  float* ay_out;
  float* az_out;
  float* vsig_out;
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
    const auto term = accel_term(to_side(own), to_side(other), box, visc);
    a.fx += term.accel.x;
    a.fy += term.accel.y;
    a.fz += term.accel.z;
    a.vsig = std::max(a.vsig, term.vsig);  // signal velocity combines by max
  }

  void commit(xsycl::SubGroup& sg, std::int32_t idx, const Accum& a) const {
    xsycl::atomic_ref<float>(ax_out[idx], sg.counters()).fetch_add(a.fx);
    xsycl::atomic_ref<float>(ay_out[idx], sg.counters()).fetch_add(a.fy);
    xsycl::atomic_ref<float>(az_out[idx], sg.counters()).fetch_add(a.fz);
    xsycl::atomic_ref<float>(vsig_out[idx], sg.counters()).fetch_max(a.vsig);
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
