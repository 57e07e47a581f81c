#pragma once

// The lane-register states exchanged between work-items by the half-warp
// kernels.  Each kernel exchanges the smallest composite object it needs —
// the object size drives the cost of every communication variant (words
// selected, local-memory traffic, broadcast count) and the register
// pressure model.  All structs are trivially copyable 4-byte multiples.

#include <cstdint>

#include "core/particles.hpp"
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

// Loader for the Extras kernel only: p.rho is that kernel's *output* array
// while the launch is in flight (sub-groups commit into it via atomic_ref as
// others load states), so a plain read of it here is a data race — and
// extras_term consumes none of rho/P/cs.  Zero them instead of loading.
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

// Minimum-image x_own - x_other of any lane state with a position, computed
// as the pair terms compute it.
template <typename State>
inline util::Vec3<float> separation(const State& own, const State& other, float box) {
  return min_image(util::Vec3<float>{own.px, own.py, own.pz} -
                       util::Vec3<float>{other.px, other.py, other.pz},
                   box);
}

// The harness's cull tests on lane states (see physics.hpp).
template <typename State>
inline bool reaches_own_support(const State& own, const State& other, float box) {
  return in_own_support(norm(separation(own, other, box)), own.h);
}

template <typename State>
inline bool reaches_pair_support(const State& own, const State& other, float box) {
  return in_pair_support(norm(separation(own, other, box)), own.h, other.h);
}

inline HydroSide<float> to_side(const GeoState& s) {
  HydroSide<float> out;
  out.pos = {s.px, s.py, s.pz};
  out.h = s.h;
  return out;
}

inline HydroSide<float> to_side(const CorState& s) {
  HydroSide<float> out;
  out.pos = {s.px, s.py, s.pz};
  out.h = s.h;
  out.V = s.V;
  return out;
}

inline HydroSide<float> to_side(const HydroState& s) {
  HydroSide<float> out;
  out.pos = {s.px, s.py, s.pz};
  out.vel = {s.vx, s.vy, s.vz};
  out.mass = s.mass;
  out.h = s.h;
  out.V = s.V;
  out.rho = s.rho;
  out.P = s.P;
  out.cs = s.cs;
  using core::crk_idx::dB;
  using core::crk_idx::kA;
  using core::crk_idx::kB;
  using core::crk_idx::kdA;
  out.crk.A = s.crk[kA];
  out.crk.B = {s.crk[kB], s.crk[kB + 1], s.crk[kB + 2]};
  out.crk.dA = {s.crk[kdA], s.crk[kdA + 1], s.crk[kdA + 2]};
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) out.crk.dB[r][c] = s.crk[dB(r, c)];
  }
  return out;
}

// Double-precision side for the scalar reference path.
HydroSide<double> load_side_double(const core::ParticleSet& p, std::int32_t i);

}  // namespace hacc::sph
