#include "sph/reference.hpp"

#include <algorithm>

#include "sph/states.hpp"

namespace hacc::sph {

HydroSide<double> load_side_double(const core::ParticleSet& p, std::int32_t i) {
  HydroSide<double> s;
  s.pos = {p.x[i], p.y[i], p.z[i]};
  s.vel = {p.vx[i], p.vy[i], p.vz[i]};
  s.mass = p.mass[i];
  s.h = p.h[i];
  s.V = p.V[i];
  s.rho = p.rho[i];
  s.P = p.P[i];
  s.cs = p.cs[i];
  const float* c = p.crk.data() + core::crk_idx::kCount * static_cast<std::size_t>(i);
  s.crk.A = c[core::crk_idx::kA];
  s.crk.B = {c[core::crk_idx::kB], c[core::crk_idx::kB + 1], c[core::crk_idx::kB + 2]};
  s.crk.dA = {c[core::crk_idx::kdA], c[core::crk_idx::kdA + 1], c[core::crk_idx::kdA + 2]};
  for (int r = 0; r < 3; ++r) {
    for (int g = 0; g < 3; ++g) s.crk.dB[r][g] = c[core::crk_idx::dB(r, g)];
  }
  return s;
}

ReferenceResults reference_hydro(const core::ParticleSet& p, double box,
                                 const ViscosityParams<double>& visc) {
  const std::size_t n = p.size();
  ReferenceResults out;
  out.m0.assign(n, 0.0);
  out.V.assign(n, 0.0);
  out.crk.assign(n, {});
  out.rho.assign(n, 0.0);
  out.dvel.assign(n, {});
  out.P.assign(n, 0.0);
  out.cs.assign(n, 0.0);
  out.accel.assign(n, {});
  out.vsig.assign(n, 0.0);
  out.du.assign(n, 0.0);

  // Double-precision sides built once per stage so each stage reads the
  // previous stage's double results (mirroring the kernel chain).
  std::vector<HydroSide<double>> side(n);
  for (std::size_t i = 0; i < n; ++i) {
    side[i].pos = {p.x[i], p.y[i], p.z[i]};
    side[i].vel = {p.vx[i], p.vy[i], p.vz[i]};
    side[i].mass = p.mass[i];
    side[i].h = p.h[i];
  }

  // ---- Geometry ----
  for (std::size_t i = 0; i < n; ++i) {
    double m0 = kernel_self(double(p.h[i]));
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      m0 += geometry_term(side[i], side[j], box);
    }
    out.m0[i] = m0;
    out.V[i] = m0 > 0.0 ? 1.0 / m0 : 0.0;
  }
  for (std::size_t i = 0; i < n; ++i) side[i].V = out.V[i];

  // ---- Corrections ----
  for (std::size_t i = 0; i < n; ++i) {
    CrkMoments<double> m;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      m.add(corrections_term(side[i], side[j], box));
    }
    corrections_self(m, out.V[i], double(p.h[i]));
    out.crk[i] = solve_crk(m);
  }
  for (std::size_t i = 0; i < n; ++i) side[i].crk = out.crk[i];

  // ---- Extras + EOS ----
  for (std::size_t i = 0; i < n; ++i) {
    double rho = side[i].mass * out.crk[i].A * kernel_self(double(p.h[i]));
    std::array<double, 9> dv{};
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const auto term = extras_term(side[i], side[j], box);
      rho += term.rho;
      for (int r = 0; r < 3; ++r) {
        for (int c = 0; c < 3; ++c) dv[3 * r + c] += term.dv[r][c];
      }
    }
    out.rho[i] = rho;
    out.dvel[i] = dv;
    out.P[i] = eos_pressure(rho, double(p.u[i]));
    out.cs[i] = eos_sound_speed(rho, out.P[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    side[i].rho = out.rho[i];
    side[i].P = out.P[i];
    side[i].cs = out.cs[i];
  }

  // ---- Acceleration ----
  for (std::size_t i = 0; i < n; ++i) {
    util::Vec3d a{};
    double vsig = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const auto term = accel_term(side[i], side[j], box, visc);
      a += term.accel;
      vsig = std::max(vsig, term.vsig);
    }
    out.accel[i] = a;
    out.vsig[i] = vsig;
  }

  // ---- Energy ----
  for (std::size_t i = 0; i < n; ++i) {
    double du = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      du += energy_term(side[i], side[j], box, visc);
    }
    out.du[i] = du;
  }

  return out;
}

}  // namespace hacc::sph
