#pragma once

// The lane-register states exchanged between work-items by the half-warp
// kernels.  Each kernel exchanges the smallest composite object it needs —
// the object size drives the cost of every communication variant (words
// selected, local-memory traffic, broadcast count) and the register
// pressure model.  All structs are trivially copyable 4-byte multiples.

#include <concepts>
#include <cstdint>

#include "core/particles.hpp"
#include "sph/lanes.hpp"
#include "sph/physics.hpp"

namespace hacc::sph {

// Geometry: position + smoothing length (6 words).
struct GeoState {
  float px, py, pz;
  float h;
  std::int32_t idx;
  std::int32_t valid;
};
static_assert(sizeof(GeoState) == 24);

// Corrections: position, smoothing length, volume (8 words incl. padding).
struct CorState {
  float px, py, pz;
  float h, V;
  std::int32_t idx;
  std::int32_t valid;
  float pad;
};
static_assert(sizeof(CorState) == 32);

// Extras / Acceleration / Energy: the full hydro side incl. CRK coefficients
// (30 words) — the large composite object of §5.3.1.
struct HydroState {
  float px, py, pz;
  float vx, vy, vz;
  float mass, h, V, rho, P, cs;
  float crk[core::crk_idx::kCount];
  std::int32_t idx;
  std::int32_t valid;
};
static_assert(sizeof(HydroState) == 120);

// ---- Loaders from the SoA particle set ----

inline GeoState load_geo_state(const core::ParticleSet& p, std::int32_t i) {
  return {p.x[i], p.y[i], p.z[i], p.h[i], i, 1};
}

inline CorState load_cor_state(const core::ParticleSet& p, std::int32_t i) {
  return {p.x[i], p.y[i], p.z[i], p.h[i], p.V[i], i, 1, 0.f};
}

inline HydroState load_hydro_state(const core::ParticleSet& p, std::int32_t i) {
  HydroState s;
  s.px = p.x[i]; s.py = p.y[i]; s.pz = p.z[i];
  s.vx = p.vx[i]; s.vy = p.vy[i]; s.vz = p.vz[i];
  s.mass = p.mass[i]; s.h = p.h[i]; s.V = p.V[i];
  s.rho = p.rho[i]; s.P = p.P[i]; s.cs = p.cs[i];
  for (int k = 0; k < core::crk_idx::kCount; ++k) {
    s.crk[k] = p.crk[core::crk_idx::kCount * i + k];
  }
  s.idx = i;
  s.valid = 1;
  return s;
}

// Loader for the Extras kernel only: p.rho is that kernel's *output* array,
// zero-filled before the launch and accumulated into by its commits, so a
// read of it here would load an output, not an input — and extras_term
// consumes none of rho/P/cs.  Zero them instead of loading.
inline HydroState load_extras_state(const core::ParticleSet& p, std::int32_t i) {
  HydroState s;
  s.px = p.x[i]; s.py = p.y[i]; s.pz = p.z[i];
  s.vx = p.vx[i]; s.vy = p.vy[i]; s.vz = p.vz[i];
  s.mass = p.mass[i]; s.h = p.h[i]; s.V = p.V[i];
  s.rho = 0.f; s.P = 0.f; s.cs = 0.f;
  for (int k = 0; k < core::crk_idx::kCount; ++k) {
    s.crk[k] = p.crk[core::crk_idx::kCount * i + k];
  }
  s.idx = i;
  s.valid = 1;
  return s;
}

// ---- Pair geometry and conversions to the templated physics side ----

// Minimum-image x_own - x_other of one lane state with a position, or of
// four (a Gather4), computed as the pair terms compute it.
template <typename Lanes>
inline auto separation(const Lanes& own, const Lanes& other, float box) {
  using State = typename StateOf<Lanes>::type;
  const auto position = [](const Lanes& s) {
    return util::Vec3{read(s, &State::px), read(s, &State::py), read(s, &State::pz)};
  };
  return min_image(position(own) - position(other), box);
}

// The harness's reach tests on lane states (see physics.hpp): a bool for
// one pair, a Mask4 for four.
template <typename Lanes>
inline auto reaches_own_support(const Lanes& own, const Lanes& other, float box) {
  using State = typename StateOf<Lanes>::type;
  return in_own_support(norm(separation(own, other, box)), read(own, &State::h));
}

template <typename Lanes>
inline auto reaches_pair_support(const Lanes& own, const Lanes& other, float box) {
  using State = typename StateOf<Lanes>::type;
  return in_pair_support(norm(separation(own, other, box)), read(own, &State::h),
                         read(other, &State::h));
}

// The physics side of one lane state (float) or of four (a Gather4 of
// them, Floats4), holding the members the state carries.
template <typename Lanes>
inline auto to_side(const Lanes& s) {
  using State = typename StateOf<Lanes>::type;
  const auto get = [&](auto field) { return read(s, field); };
  HydroSide<decltype(get(&State::px))> out;
  out.pos = {get(&State::px), get(&State::py), get(&State::pz)};
  out.h = get(&State::h);
  if constexpr (requires { &State::V; }) out.V = get(&State::V);
  if constexpr (std::same_as<State, HydroState>) {
    out.vel = {get(&State::vx), get(&State::vy), get(&State::vz)};
    out.mass = get(&State::mass);
    out.rho = get(&State::rho);
    out.P = get(&State::P);
    out.cs = get(&State::cs);
    const auto crk = [&](int k) { return get([k](const State& x) { return x.crk[k]; }); };
    using core::crk_idx::dB;
    using core::crk_idx::kA;
    using core::crk_idx::kB;
    using core::crk_idx::kdA;
    out.crk.A = crk(kA);
    out.crk.B = {crk(kB), crk(kB + 1), crk(kB + 2)};
    out.crk.dA = {crk(kdA), crk(kdA + 1), crk(kdA + 2)};
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 3; ++c) out.crk.dB[r][c] = crk(dB(r, c));
    }
  }
  return out;
}

// Double-precision side for the scalar reference path.
HydroSide<double> load_side_double(const core::ParticleSet& p, std::int32_t i);

}  // namespace hacc::sph
