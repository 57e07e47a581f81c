#pragma once

// Geometry kernel ("upGeo"): measures the volumes of gas particles (§5).
// Accumulates m0_i = Σ_j W(r_ij, h_i) over neighbors (plus the self term)
// and sets V_i = 1 / m0_i.

#include <algorithm>

#include "sph/context.hpp"
#include "sph/states.hpp"

namespace hacc::sph {

// Per-interaction cost estimate for the platform model (flops).
inline constexpr double kGeometryFlops = 24.0;

// Pair Traits of the PairInteractionKernel (contract in half_warp.hpp).
struct GeometryTraits {
  using State = GeoState;
  // A lane's sum (float), or the pair terms of four lanes (Floats4).
  template <typename Real>
  struct Sum {
    Real m0{};

    template <typename From>
    void add(const Sum<From>& t, int k = 0) {
      m0 += lanes::lane(t.m0, k);
    }
  };
  using Accum = Sum<float>;
  static constexpr int kAccumWords = 1;

  const core::ParticleSet* p;
  float* m0_out;
  float box;

  State load(std::int32_t i) const { return load_geo_state(*p, i); }

  template <typename Lanes>
  auto reaches(const Lanes& own, const Lanes& other) const {
    return reaches_own_support(own, other, box);
  }

  double reach_radius(const State& own, float) const { return kSupport * own.h; }

  template <typename Lanes>
  auto term(const Lanes& own, const Lanes& other) const {
    auto m0 = geometry_term(to_side(own), to_side(other), box);
    return Sum<decltype(m0)>{m0};
  }

  void commit(std::int32_t idx, const Accum& a) const { m0_out[idx] += a.m0; }

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
