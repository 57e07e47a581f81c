#pragma once

// Geometry kernel ("upGeo"): measures the volumes of gas particles (§5).
// Accumulates m0_i = Σ_j W(r_ij, h_i) over neighbors (plus the self term)
// and sets V_i = 1 / m0_i.

#include <algorithm>

#include "sph/context.hpp"
#include "sph/states.hpp"
#include "xsycl/atomic.hpp"

namespace hacc::sph {

// Per-interaction cost estimate for the platform model (flops).
inline constexpr double kGeometryFlops = 24.0;

// Pair Traits of the PairInteractionKernel (contract in half_warp.hpp).
struct GeometryTraits {
  using State = GeoState;
  struct Accum {
    float m0 = 0.f;
  };
  static constexpr int kAccumWords = 1;

  const core::ParticleSet* p;
  float* m0_out;
  float box;

  State load(std::int32_t i) const { return load_geo_state(*p, i); }

  bool reaches(const State& own, const State& other) const {
    return reaches_own_support(own, other, box);
  }

  double reach_radius(const State& own, float) const { return kSupport * own.h; }

  void accumulate(Accum& a, const State& own, const State& other) const {
    a.m0 += geometry_term(to_side(own), to_side(other), box);
  }

  void commit(xsycl::SubGroup& sg, std::int32_t idx, const Accum& a) const {
    xsycl::atomic_ref<float> ref(m0_out[idx], sg.counters());
    ref.fetch_add(a.m0);
  }

  static void charge_commit(xsycl::OpCounters& c) { c.atomic_f32_add += kAccumWords; }
};

// Runs the pair accumulation and the per-particle finalize; returns the
// stats of the pair launch (the dominant one).
xsycl::LaunchStats run_geometry(xsycl::Queue& q, core::ParticleSet& p,
                                const domain::SpeciesView& view,
                                const domain::PairSource& pairs,
                                const HydroOptions& opt,
                                const std::string& timer_name = "upGeo");

}  // namespace hacc::sph
