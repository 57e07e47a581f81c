#include "gravity/pm.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace hacc::gravity {

namespace {

// CIC assignment window along one axis (squared sinc), at mesh frequency
// index n of an N-cell grid.
double cic_window_1d(int n, int grid_n) {
  if (n == 0) return 1.0;
  const double x = M_PI * n / grid_n;
  const double s = std::sin(x) / x;
  return s * s;
}

// Signed frequency index in [-N/2, N/2).
int signed_freq(int i, int n) { return i < n / 2 ? i : i - n; }

}  // namespace

const char* to_string(PmGradient g) {
  switch (g) {
    case PmGradient::kSpectral:
      return "spectral";
    case PmGradient::kFd4:
      return "fd4";
    case PmGradient::kFd6:
      return "fd6";
  }
  return "spectral";
}

bool parse_pm_gradient(const std::string& name, PmGradient& out) {
  if (name == "spectral") {
    out = PmGradient::kSpectral;
  } else if (name == "fd4") {
    out = PmGradient::kFd4;
  } else if (name == "fd6") {
    out = PmGradient::kFd6;
  } else {
    return false;
  }
  return true;
}

PmSolver::PmSolver(const PmOptions& opt, util::ThreadPool& pool)
    : opt_(opt), pool_(&pool), fft_(opt.grid_n, pool), depositor_(pool) {
  auto& m = obs::MetricsRegistry::global();
  m_solves_ = m.counter("pm.solves");
  m_deposit_s_ = m.counter("pm.deposit_s");
  m_forward_s_ = m.counter("pm.forward_s");
  m_green_s_ = m.counter("pm.green_s");
  m_inverse_s_ = m.counter("pm.inverse_s");
  m_gradient_s_ = m.counter("pm.gradient_s");
  m_interp_s_ = m.counter("pm.interp_s");
}

void PmSolver::compute_forces(std::span<const util::Vec3d> pos,
                              std::span<const double> mass,
                              std::span<util::Vec3d> accel) {
  if (mass.size() != pos.size() || accel.size() != pos.size()) {
    throw std::invalid_argument(
        "PmSolver::compute_forces: pos, mass and accel must have equal lengths");
  }
  const int n = opt_.grid_n;
  const double box = opt_.box;
  const double cell_vol = (box / n) * (box / n) * (box / n);
  const SplitForce split(opt_.r_split);
  const bool spectral = opt_.gradient == PmGradient::kSpectral;
  times_ = PmPhaseTimes{};
  potential_ready_ = false;

  // Density contrast source: 4 pi G (rho - rho_bar); the k=0 mode removal
  // implements the mean subtraction.  The mass -> density conversion
  // (1/cell_vol) is folded into the Green's function below, so the deposit
  // grid goes into the transform untouched.
  double t0 = util::wtime();
  if (mass_grid_.n() != n) {
    mass_grid_ = mesh::GridD(n);
  } else {
    mass_grid_.fill(0.0);
  }
  depositor_.deposit(mass_grid_, pos, mass, box);
  double t1 = util::wtime();
  times_.deposit = t1 - t0;
  // The t0/t1 readings already bracket each phase, so trace spans reuse
  // them directly instead of layering RAII spans with their own clocks.
  obs::Tracer::global().record("pm.deposit", t0, t1);

  t0 = util::wtime();
  fft_.forward_r2c(mass_grid_.data(), phi_k_);
  t1 = util::wtime();
  times_.forward = t1 - t0;
  obs::Tracer::global().record("pm.forward", t0, t1);

  // Green's function on the half spectrum, separable per axis:
  //   G(k) = c0 f(kx) f(ky) f(kz) / (kx^2 + ky^2 + kz^2),
  // with f = split filter / CIC window^2 (the window enters twice: deposit
  // and interpolation).  One table over the signed frequencies serves all
  // three axes; the half axis' Nyquist plane iz = n/2 reads the entry of
  // signed index -n/2, which is exact because k^2, the filter and the
  // window are even in k.
  t0 = util::wtime();
  const double two_pi_over_l = 2.0 * M_PI / box;
  k_.resize(n);
  std::vector<double> k2(n), f(n);
  for (int i = 0; i < n; ++i) {
    const int s = signed_freq(i, n);
    k_[i] = two_pi_over_l * s;
    k2[i] = k_[i] * k_[i];
    f[i] = opt_.r_split > 0.0 ? split.k_filter(k_[i]) : 1.0;
    if (opt_.deconvolve_cic) {
      const double w = cic_window_1d(s, n);
      f[i] /= w * w;
    }
  }
  const double c0 = -4.0 * M_PI * opt_.G / cell_vol;
  const int nh = fft_.half_nz();
  // shared: phi_k_ (disjoint kx-plane rows per index; tables read-only).
  pool_->parallel_for_chunks(n, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t ix = b; ix < e; ++ix) {
      for (int iy = 0; iy < n; ++iy) {
        fft::cplx* row = phi_k_.data() + (static_cast<std::size_t>(ix) * n + iy) * nh;
        const double cxy = c0 * f[ix] * f[iy];
        const double k2xy = k2[ix] + k2[iy];
        int iz = 0;
        if (ix == 0 && iy == 0) row[iz++] = 0.0;  // k = 0: mean removed
        for (; iz < nh; ++iz) row[iz] *= cxy * f[iz] / (k2xy + k2[iz]);
      }
    }
  });
  t1 = util::wtime();
  times_.green = t1 - t0;
  obs::Tracer::global().record("pm.green", t0, t1);

  // Spectral: each component's c2r reads phi(k) as -i k_a phi(k) (zero on
  // that axis' Nyquist plane, where -i k breaks Hermitian symmetry; the
  // full-spectrum transform's real part discarded exactly that part too)
  // and works in one scratch spectrum, so phi(k) stays intact for a lazy
  // potential().  fd: phi(k) is inverted in place into the potential the
  // stencil differentiates.
  t0 = util::wtime();
  for (auto& grid : force_) {
    if (grid.n() != n) grid = mesh::GridD(n);
  }
  if (spectral) {
    for (int a = 0; a < 3; ++a) {
      const fft::Derivative d{a, k_};
      fft_.inverse_c2r(phi_k_, force_[a].data(), scratch_k_, &d);
    }
  } else {
    if (potential_.n() != n) potential_ = mesh::GridD(n);
    fft_.inverse_c2r(phi_k_, potential_.data());
    potential_ready_ = true;
  }
  t1 = util::wtime();
  times_.inverse = t1 - t0;
  obs::Tracer::global().record("pm.inverse", t0, t1);

  if (!spectral) {
    t0 = util::wtime();
    if (opt_.gradient == PmGradient::kFd4) {
      fd_gradient<4>();
    } else {
      fd_gradient<6>();
    }
    t1 = util::wtime();
    times_.gradient = t1 - t0;
    obs::Tracer::global().record("pm.gradient", t0, t1);
  }

  t0 = util::wtime();
  // shared: accel (one element per particle index; force_ grids read-only).
  pool_->parallel_for_chunks(
      static_cast<std::int64_t>(pos.size()), 256, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          accel[i] = mesh::cic_interpolate3(force_[0], force_[1], force_[2], pos[i], box);
        }
      });
  t1 = util::wtime();
  times_.interp = t1 - t0;
  obs::Tracer::global().record("pm.interp", t0, t1);

  auto& m = obs::MetricsRegistry::global();
  m.inc(m_solves_);
  m.inc(m_deposit_s_, times_.deposit);
  m.inc(m_forward_s_, times_.forward);
  m.inc(m_green_s_, times_.green);
  m.inc(m_inverse_s_, times_.inverse);
  m.inc(m_gradient_s_, times_.gradient);
  m.inc(m_interp_s_, times_.interp);
}

const mesh::GridD& PmSolver::potential() {
  if (!potential_ready_ && !phi_k_.empty()) {
    // phi(k) must survive for later calls: the c2r only reads it.
    if (potential_.n() != opt_.grid_n) potential_ = mesh::GridD(opt_.grid_n);
    fft_.inverse_c2r(phi_k_, potential_.data(), scratch_k_);
    potential_ready_ = true;
  }
  return potential_;
}

// Centered finite-difference gradient of the real-space potential,
// a = -grad phi, at 4th (Order=4) or 6th (Order=6) order with periodic wrap.
template <int Order>
void PmSolver::fd_gradient() {
  static_assert(Order == 4 || Order == 6);
  const int n = opt_.grid_n;
  const double h = opt_.box / n;
  // d/dx f ~ [c1 (f+1 - f-1) + c2 (f+2 - f-2) + c3 (f+3 - f-3)] / h;
  // the minus of a = -grad phi is folded into the coefficients.
  const double s1 = -(Order == 4 ? 8.0 / 12.0 : 45.0 / 60.0) / h;
  const double s2 = -(Order == 4 ? -1.0 / 12.0 : -9.0 / 60.0) / h;
  const double s3 = -(Order == 4 ? 0.0 : 1.0 / 60.0) / h;

  // Periodic neighbor index tables (branch-free inner loops).
  const int reach = Order / 2;
  std::vector<int> off[7];  // off[r + 3][i] = wrap(i + r)
  for (int r = -reach; r <= reach; ++r) {
    if (r == 0) continue;
    auto& tab = off[r + 3];
    tab.resize(n);
    for (int i = 0; i < n; ++i) tab[i] = potential_.wrap(i + r);
  }

  const double* phi = potential_.data().data();
  const std::size_t nn = static_cast<std::size_t>(n) * n;
  // shared: force_ (disjoint x-plane rows per index; potential_ read-only).
  pool_->parallel_for_chunks(n, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t ix = b; ix < e; ++ix) {
      const double* xp1 = phi + off[4][ix] * nn;
      const double* xm1 = phi + off[2][ix] * nn;
      const double* xp2 = phi + off[5][ix] * nn;
      const double* xm2 = phi + off[1][ix] * nn;
      const double* xp3 = Order == 6 ? phi + off[6][ix] * nn : nullptr;
      const double* xm3 = Order == 6 ? phi + off[0][ix] * nn : nullptr;
      const std::size_t xrow = ix * nn;
      for (int iy = 0; iy < n; ++iy) {
        const std::size_t ry = static_cast<std::size_t>(iy) * n;
        const std::size_t base = xrow + ry;
        const double* p0 = phi + base;
        const double* yp1 = phi + xrow + static_cast<std::size_t>(off[4][iy]) * n;
        const double* ym1 = phi + xrow + static_cast<std::size_t>(off[2][iy]) * n;
        const double* yp2 = phi + xrow + static_cast<std::size_t>(off[5][iy]) * n;
        const double* ym2 = phi + xrow + static_cast<std::size_t>(off[1][iy]) * n;
        const double* yp3 =
            Order == 6 ? phi + xrow + static_cast<std::size_t>(off[6][iy]) * n : nullptr;
        const double* ym3 =
            Order == 6 ? phi + xrow + static_cast<std::size_t>(off[0][iy]) * n : nullptr;
        double* fx = force_[0].data().data() + base;
        double* fy = force_[1].data().data() + base;
        double* fz = force_[2].data().data() + base;
        const int* zp1 = off[4].data();
        const int* zm1 = off[2].data();
        const int* zp2 = off[5].data();
        const int* zm2 = off[1].data();
        for (int iz = 0; iz < n; ++iz) {
          double ax = s1 * (xp1[ry + iz] - xm1[ry + iz]) + s2 * (xp2[ry + iz] - xm2[ry + iz]);
          double ay = s1 * (yp1[iz] - ym1[iz]) + s2 * (yp2[iz] - ym2[iz]);
          double az = s1 * (p0[zp1[iz]] - p0[zm1[iz]]) + s2 * (p0[zp2[iz]] - p0[zm2[iz]]);
          if constexpr (Order == 6) {
            ax += s3 * (xp3[ry + iz] - xm3[ry + iz]);
            ay += s3 * (yp3[iz] - ym3[iz]);
            az += s3 * (p0[off[6][iz]] - p0[off[0][iz]]);
          }
          fx[iz] = ax;
          fy[iz] = ay;
          fz[iz] = az;
        }
      }
    }
  });
}

}  // namespace hacc::gravity
