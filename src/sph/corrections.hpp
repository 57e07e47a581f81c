#pragma once

// Corrections kernel ("upCor"): computes the reproducing-kernel coefficients
// of the higher-order SPH solver (§5).  Accumulates the CRK moments and
// their gradients over neighbors, then solves per particle for A, B, ∇A, ∇B.
// The 40-float accumulator makes this the most register-hungry kernel.

#include <algorithm>

#include "sph/context.hpp"
#include "sph/states.hpp"

namespace hacc::sph {

inline constexpr double kCorrectionsFlops = 220.0;

// Pair Traits of the PairInteractionKernel (contract in half_warp.hpp).
struct CorrectionsTraits {
  using State = CorState;
  using Accum = CrkMoments<float>;  // the flat mom_idx block commit() adds
  static constexpr int kAccumWords = core::mom_idx::kCount;

  const core::ParticleSet* p;
  float* moments_out;
  float box;

  State load(std::int32_t i) const { return load_cor_state(*p, i); }

  template <typename Lanes>
  auto reaches(const Lanes& own, const Lanes& other) const {
    return reaches_own_support(own, other, box);
  }

  double reach_radius(const State& own, float) const { return kSupport * own.h; }

  template <typename Lanes>
  auto term(const Lanes& own, const Lanes& other) const {
    return corrections_term(to_side(own), to_side(other), box);
  }

  void commit(std::int32_t idx, const Accum& a) const {
    float* base = moments_out + static_cast<std::size_t>(core::mom_idx::kCount) * idx;
    for (int k = 0; k < core::mom_idx::kCount; ++k) base[k] += a.v[k];
  }

  static void charge_commit(xsycl::OpCounters& c) { c.atomic_f32_add += kAccumWords; }
};

xsycl::LaunchStats run_corrections(xsycl::Queue& q, core::ParticleSet& p,
                                   const domain::SpeciesView& view,
                                   const domain::PairSource& pairs,
                                   const HydroOptions& opt,
                                   const std::string& timer_name = "upCor");

}  // namespace hacc::sph
