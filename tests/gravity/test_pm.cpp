#include "gravity/pm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "gravity/pp_short.hpp"
#include "tree/rcb.hpp"
#include "util/rng.hpp"
#include "xsycl/queue.hpp"

namespace hacc::gravity {
namespace {

using util::Vec3d;

TEST(PmSolver, UniformLatticeFeelsNoForce) {
  util::ThreadPool pool(4);
  PmOptions opt;
  opt.grid_n = 16;
  opt.box = 8.0;
  opt.G = 1.0;
  PmSolver pm(opt, pool);
  std::vector<Vec3d> pos;
  std::vector<double> mass;
  for (int ix = 0; ix < 8; ++ix) {
    for (int iy = 0; iy < 8; ++iy) {
      for (int iz = 0; iz < 8; ++iz) {
        pos.push_back({ix + 0.5, iy + 0.5, iz + 0.5});
        mass.push_back(1.0);
      }
    }
  }
  std::vector<Vec3d> accel(pos.size());
  pm.compute_forces(pos, mass, accel);
  for (const auto& a : accel) {
    EXPECT_NEAR(norm(a), 0.0, 1e-10);
  }
}

TEST(PmSolver, NetMomentumChangeVanishes) {
  util::ThreadPool pool(4);
  PmOptions opt;
  opt.grid_n = 32;
  opt.box = 10.0;
  PmSolver pm(opt, pool);
  util::CounterRng rng(5);
  std::vector<Vec3d> pos;
  std::vector<double> mass;
  for (int i = 0; i < 300; ++i) {
    pos.push_back({10.0 * rng.uniform(3 * i), 10.0 * rng.uniform(3 * i + 1),
                   10.0 * rng.uniform(3 * i + 2)});
    mass.push_back(0.5 + rng.uniform(1000 + i));
  }
  std::vector<Vec3d> accel(pos.size());
  pm.compute_forces(pos, mass, accel);
  Vec3d net{};
  double scale = 0.0;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    net += accel[i] * mass[i];
    scale += mass[i] * norm(accel[i]);
  }
  EXPECT_LT(norm(net), 2e-2 * scale);
}

TEST(PmSolver, PairForceIsAttractiveAndSymmetric) {
  util::ThreadPool pool(2);
  PmOptions opt;
  opt.grid_n = 32;
  opt.box = 16.0;
  opt.r_split = 0.0;  // unfiltered: full force from the mesh
  PmSolver pm(opt, pool);
  const std::vector<Vec3d> pos = {{6.0, 8.0, 8.0}, {10.0, 8.0, 8.0}};
  const std::vector<double> mass = {1.0, 1.0};
  std::vector<Vec3d> accel(2);
  pm.compute_forces(pos, mass, accel);
  EXPECT_GT(accel[0].x, 0.0);  // pulled toward the other particle
  EXPECT_LT(accel[1].x, 0.0);
  EXPECT_NEAR(accel[0].x, -accel[1].x, 1e-6 * std::abs(accel[0].x) + 1e-12);
  EXPECT_NEAR(accel[0].y, 0.0, 1e-8);
  EXPECT_NEAR(accel[0].z, 0.0, 1e-8);
}

// The force-splitting recombination test: PM(filtered) + PP(short) must
// reproduce Newton across separations spanning the split scale.
class SplitRecombination : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(Separations, SplitRecombination,
                         ::testing::Values(0.8, 1.5, 2.5, 4.0),
                         [](const auto& info) {
                           return "r" + std::to_string(int(info.param * 10));
                         });

TEST_P(SplitRecombination, PmPlusPpMatchesNewton) {
  const double sep = GetParam();
  util::ThreadPool pool(2);
  const double box = 32.0;
  const double g = 1.0;
  const double rs = 1.25;  // split scale ~ PM cell
  PmOptions opt;
  opt.grid_n = 64;
  opt.box = box;
  opt.r_split = rs;
  opt.G = g;
  PmSolver pm(opt, pool);
  const PolyShortForce poly(rs, 5.0 * rs);

  const Vec3d x0{16.0 - sep / 2, 16.0, 16.0};
  const Vec3d x1{16.0 + sep / 2, 16.0, 16.0};
  const std::vector<Vec3d> pos = {x0, x1};
  const std::vector<double> mass = {1.0, 1.0};
  std::vector<Vec3d> accel(2);
  pm.compute_forces(pos, mass, accel);

  // Short-range contribution (reference path, brute force).
  std::vector<float> xs = {float(x0.x), float(x1.x)};
  std::vector<float> ys = {float(x0.y), float(x1.y)};
  std::vector<float> zs = {float(x0.z), float(x1.z)};
  std::vector<float> ms = {1.f, 1.f};
  std::vector<float> ax(2, 0.f), ay(2, 0.f), az(2, 0.f);
  GravityArrays arrays{xs.data(), ys.data(), zs.data(), ms.data(),
                       ax.data(), ay.data(), az.data(), 2};
  reference_pp_short(arrays, poly, float(box), float(g), 0.f);

  const double total_x = accel[0].x + ax[0];
  const double newton = g / (sep * sep);
  EXPECT_NEAR(total_x, newton, 0.05 * newton) << "sep=" << sep;
}

TEST(PmGradient, ParseRoundTripAndRejects) {
  for (const PmGradient g : {PmGradient::kSpectral, PmGradient::kFd4, PmGradient::kFd6}) {
    PmGradient out = PmGradient::kFd4;
    ASSERT_TRUE(util::parse_name(to_string(g), out)) << to_string(g);
    EXPECT_EQ(out, g);
  }
  EXPECT_STREQ(to_string(PmGradient::kSpectral), "spectral");
  EXPECT_STREQ(to_string(PmGradient::kFd4), "fd4");
  EXPECT_STREQ(to_string(PmGradient::kFd6), "fd6");
  PmGradient out = PmGradient::kFd6;
  EXPECT_FALSE(util::parse_name("fd2", out));
  EXPECT_FALSE(util::parse_name("", out));
  EXPECT_FALSE(util::parse_name("SPECTRAL", out));
  EXPECT_EQ(out, PmGradient::kFd6);  // untouched on failure
}

namespace gradient_modes {

struct Cloud {
  std::vector<Vec3d> pos;
  std::vector<double> mass;
};

Cloud random_cloud(int n, double box) {
  util::CounterRng rng(19);
  Cloud s;
  for (int i = 0; i < n; ++i) {
    s.pos.push_back({box * rng.uniform(3 * i), box * rng.uniform(3 * i + 1),
                     box * rng.uniform(3 * i + 2)});
    s.mass.push_back(0.5 + rng.uniform(4000 + i));
  }
  return s;
}

std::vector<Vec3d> forces_for(PmGradient g, const Cloud& s, double box,
                              util::ThreadPool& pool,
                              std::unique_ptr<PmSolver>* keep = nullptr) {
  PmOptions opt;
  opt.grid_n = 32;
  opt.box = box;
  opt.r_split = 1.25 * box / opt.grid_n;
  opt.gradient = g;
  auto pm = std::make_unique<PmSolver>(opt, pool);
  std::vector<Vec3d> accel(s.pos.size());
  pm->compute_forces(s.pos, s.mass, accel);
  if (keep) *keep = std::move(pm);
  return accel;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double rel_rms_diff(const std::vector<Vec3d>& a, const std::vector<Vec3d>& b) {
  double diff = 0.0, ref = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff += norm2(a[i] - b[i]);
    ref += norm2(b[i]);
  }
  return std::sqrt(diff / ref);
}

}  // namespace gradient_modes

TEST(PmGradient, FdPathsTrackSpectralWithinDocumentedBounds) {
  // The split-filtered long-range field is smooth on the mesh scale, so the
  // centered differences converge fast: fd4 stays within a few percent of
  // the spectral reference and fd6 within about one percent (the bounds
  // documented in the README; the bench prints the measured values).
  using namespace gradient_modes;
  util::ThreadPool pool(4);
  const double box = 10.0;
  const Cloud s = random_cloud(400, box);
  const auto spectral = forces_for(PmGradient::kSpectral, s, box, pool);
  const auto fd4 = forces_for(PmGradient::kFd4, s, box, pool);
  const auto fd6 = forces_for(PmGradient::kFd6, s, box, pool);
  const double err4 = rel_rms_diff(fd4, spectral);
  const double err6 = rel_rms_diff(fd6, spectral);
  EXPECT_LT(err4, 0.04) << "fd4 vs spectral";
  EXPECT_LT(err6, 0.015) << "fd6 vs spectral";
  EXPECT_LT(err6, err4) << "higher order must be closer to spectral";
}

TEST(PmGradient, PotentialIsIdenticalAcrossGradientModes) {
  // The gradient mode only changes how forces are derived; the spectral
  // potential solve is shared.
  using namespace gradient_modes;
  util::ThreadPool pool(2);
  const double box = 10.0;
  const Cloud s = random_cloud(200, box);
  std::unique_ptr<PmSolver> pm_s, pm_fd;
  forces_for(PmGradient::kSpectral, s, box, pool, &pm_s);
  forces_for(PmGradient::kFd6, s, box, pool, &pm_fd);
  const auto& a = pm_s->potential().data();
  const auto& b = pm_fd->potential().data();
  ASSERT_EQ(a.size(), b.size());
  double max_mag = 0.0;
  for (double v : a) max_mag = std::max(max_mag, std::abs(v));
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], 1e-12 * max_mag) << i;
  }
}

TEST(PmGradient, FdPathConservesMomentum) {
  using namespace gradient_modes;
  util::ThreadPool pool(4);
  const double box = 10.0;
  const Cloud s = random_cloud(300, box);
  const auto accel = forces_for(PmGradient::kFd4, s, box, pool);
  Vec3d net{};
  double scale = 0.0;
  for (std::size_t i = 0; i < accel.size(); ++i) {
    net += accel[i] * s.mass[i];
    scale += s.mass[i] * norm(accel[i]);
  }
  EXPECT_LT(norm(net), 2e-2 * scale);
}

TEST(PmSolver, PhaseTimesCoverThePipeline) {
  using namespace gradient_modes;
  util::ThreadPool pool(2);
  const double box = 10.0;
  const Cloud s = random_cloud(100, box);
  std::unique_ptr<PmSolver> pm;
  forces_for(PmGradient::kSpectral, s, box, pool, &pm);
  const PmPhaseTimes& t = pm->phase_times();
  EXPECT_GT(t.total(), 0.0);
  EXPECT_GT(t.forward, 0.0);
  EXPECT_GT(t.inverse, 0.0);
  EXPECT_EQ(t.gradient, 0.0);  // spectral path has no FD stage
  std::unique_ptr<PmSolver> pm_fd;
  forces_for(PmGradient::kFd4, s, box, pool, &pm_fd);
  EXPECT_GT(pm_fd->phase_times().gradient, 0.0);
}

TEST(PmSolver, MismatchedSpanLengthsThrowInvalidArgument) {
  // A short mass or accel span would be read or written out of bounds by the
  // CIC deposit and interpolation loops; the solver rejects it up front.
  util::ThreadPool pool(1);
  PmOptions opt;
  opt.grid_n = 8;
  opt.box = 1.0;
  PmSolver pm(opt, pool);
  const std::vector<Vec3d> pos = {{0.1, 0.2, 0.3}, {0.5, 0.5, 0.5}, {0.9, 0.1, 0.4}};
  const std::vector<double> mass(3, 1.0), short_mass(2, 1.0);
  std::vector<Vec3d> accel(3), short_accel(2), long_accel(4);
  EXPECT_THROW(pm.compute_forces(pos, short_mass, accel), std::invalid_argument);
  EXPECT_THROW(pm.compute_forces(pos, mass, short_accel), std::invalid_argument);
  EXPECT_THROW(pm.compute_forces(pos, mass, long_accel), std::invalid_argument);
  EXPECT_NO_THROW(pm.compute_forces(pos, mass, accel));
}

TEST(PmPotential, FollowsEverySpectralSolve) {
  // The spectral path inverts the potential on demand and caches it; a
  // second solve must drop that cache, so the potential after it is the
  // moved state's, bit for bit, not the first solve's.
  using namespace gradient_modes;
  util::ThreadPool pool(2);
  const double box = 10.0;
  const Cloud first = random_cloud(200, box);
  Cloud moved = first;
  util::CounterRng rng(23);
  for (std::size_t i = 0; i < moved.pos.size(); ++i) {
    moved.pos[i].x = std::fmod(moved.pos[i].x + 0.7 * rng.uniform(i), box);
  }
  std::unique_ptr<PmSolver> reused, fresh;
  forces_for(PmGradient::kSpectral, first, box, pool, &reused);
  const std::vector<double> stale = reused->potential().data();
  std::vector<Vec3d> accel(moved.pos.size());
  reused->compute_forces(moved.pos, moved.mass, accel);
  forces_for(PmGradient::kSpectral, moved, box, pool, &fresh);
  const std::vector<double> want = fresh->potential().data();
  EXPECT_TRUE(same_bits(reused->potential().data(), want));
  EXPECT_FALSE(same_bits(stale, want)) << "the move must change the potential";
}

TEST(PmPotential, RepeatedCallsReturnTheSameBits) {
  using namespace gradient_modes;
  util::ThreadPool pool(2);
  const double box = 10.0;
  const Cloud s = random_cloud(200, box);
  for (const PmGradient g : {PmGradient::kSpectral, PmGradient::kFd4}) {
    std::unique_ptr<PmSolver> pm;
    forces_for(g, s, box, pool, &pm);
    const std::vector<double> once = pm->potential().data();
    const mesh::GridD& again = pm->potential();
    EXPECT_EQ(&again, &pm->potential()) << to_string(g);
    EXPECT_TRUE(same_bits(again.data(), once)) << to_string(g);
  }
}

namespace pm_oracle {

// The per-mode reference the solver is held to: its Green's function
// evaluates the sin windows and k_filter(|k|) at every mode, and the
// spectral gradient builds all three force spectra side by side, each
// inverted with the public Fft3D API.  The fd gradient is a plain
// at_wrapped stencil.

double cic_window_1d(int n, int grid_n) {
  if (n == 0) return 1.0;
  const double x = M_PI * n / grid_n;
  const double s = std::sin(x) / x;
  return s * s;
}

int signed_freq(int i, int n) { return i < n / 2 ? i : i - n; }

void fd_gradient(const mesh::GridD& pot, int order, double h,
                 std::array<mesh::GridD, 3>& force) {
  const int n = pot.n();
  const double c4[3] = {8.0 / 12.0, -1.0 / 12.0, 0.0};
  const double c6[3] = {45.0 / 60.0, -9.0 / 60.0, 1.0 / 60.0};
  const double* c = order == 4 ? c4 : c6;
  for (int ix = 0; ix < n; ++ix) {
    for (int iy = 0; iy < n; ++iy) {
      for (int iz = 0; iz < n; ++iz) {
        double d[3] = {0.0, 0.0, 0.0};
        for (int r = 1; r <= order / 2; ++r) {
          d[0] += c[r - 1] * (pot.at_wrapped(ix + r, iy, iz) - pot.at_wrapped(ix - r, iy, iz));
          d[1] += c[r - 1] * (pot.at_wrapped(ix, iy + r, iz) - pot.at_wrapped(ix, iy - r, iz));
          d[2] += c[r - 1] * (pot.at_wrapped(ix, iy, iz + r) - pot.at_wrapped(ix, iy, iz - r));
        }
        for (int a = 0; a < 3; ++a) force[a].at(ix, iy, iz) = -d[a] / h;
      }
    }
  }
}

std::vector<Vec3d> reference_forces(const PmOptions& opt, const gradient_modes::Cloud& s,
                                    util::ThreadPool& pool) {
  const int n = opt.grid_n;
  const double box = opt.box;
  const double cell_vol = (box / n) * (box / n) * (box / n);
  const SplitForce split(opt.r_split);
  const bool spectral = opt.gradient == PmGradient::kSpectral;

  mesh::GridD mass_grid(n);
  mesh::CicDepositor(pool).deposit(mass_grid, s.pos, s.mass, box);
  const fft::Fft3D fft(n, pool);
  std::vector<fft::cplx> phi_k;
  fft.forward_r2c(mass_grid.data(), phi_k);

  const int nh = fft.half_nz();
  std::vector<fft::cplx> comp_k[3];
  for (auto& c : comp_k) c.assign(fft.half_size(), 0.0);
  const double two_pi_over_l = 2.0 * M_PI / box;
  for (int ix = 0; ix < n; ++ix) {
    const int nx = signed_freq(ix, n);
    for (int iy = 0; iy < n; ++iy) {
      const int ny = signed_freq(iy, n);
      for (int iz = 0; iz < nh; ++iz) {
        const std::size_t idx = (static_cast<std::size_t>(ix) * n + iy) * nh + iz;
        if (nx == 0 && ny == 0 && iz == 0) {
          phi_k[idx] = 0.0;
          continue;
        }
        const double kx = two_pi_over_l * nx;
        const double ky = two_pi_over_l * ny;
        const double kz = two_pi_over_l * iz;
        const double k2 = kx * kx + ky * ky + kz * kz;
        double green = -4.0 * M_PI * opt.G / (k2 * cell_vol);
        if (opt.r_split > 0.0) green *= split.k_filter(std::sqrt(k2));
        if (opt.deconvolve_cic) {
          const double w =
              cic_window_1d(nx, n) * cic_window_1d(ny, n) * cic_window_1d(iz, n);
          green /= (w * w);
        }
        const fft::cplx phi = green * phi_k[idx];
        phi_k[idx] = phi;
        // a = -ik phi, zeroed on the differentiated axis' Nyquist plane.
        if (2 * ix != n) comp_k[0][idx] = fft::cplx(0.0, -kx) * phi;
        if (2 * iy != n) comp_k[1][idx] = fft::cplx(0.0, -ky) * phi;
        if (2 * iz != n) comp_k[2][idx] = fft::cplx(0.0, -kz) * phi;
      }
    }
  }

  std::array<mesh::GridD, 3> force{mesh::GridD(n), mesh::GridD(n), mesh::GridD(n)};
  if (spectral) {
    for (int a = 0; a < 3; ++a) fft.inverse_c2r(comp_k[a], force[a].data());
  } else {
    mesh::GridD pot(n);
    fft.inverse_c2r(phi_k, pot.data());
    fd_gradient(pot, opt.gradient == PmGradient::kFd4 ? 4 : 6, box / n, force);
  }
  std::vector<Vec3d> accel(s.pos.size());
  for (std::size_t i = 0; i < s.pos.size(); ++i) {
    accel[i] = mesh::cic_interpolate3(force[0], force[1], force[2], s.pos[i], box);
  }
  return accel;
}

}  // namespace pm_oracle

class PmOracle : public ::testing::TestWithParam<std::tuple<int, PmGradient>> {};

INSTANTIATE_TEST_SUITE_P(
    GridsAndGradients, PmOracle,
    ::testing::Combine(::testing::Values(8, 32, 128),
                       ::testing::Values(PmGradient::kSpectral, PmGradient::kFd4,
                                         PmGradient::kFd6)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_" +
             to_string(std::get<1>(info.param));
    });

TEST_P(PmOracle, ForcesMatchPerModeReference) {
  // The separable Green's function and the one-scratch-spectrum gradient
  // move forces by rounding only.  Nyquist-plane handling is exercised at
  // full strength: with r_split = 0 nothing damps the Nyquist modes.
  using namespace gradient_modes;
  const auto [n, gradient] = GetParam();
  util::ThreadPool pool(4);
  const double box = 10.0;
  const Cloud s = random_cloud(2000, box);
  for (const double r_split : {0.0, box / n}) {
    for (const bool deconvolve : {true, false}) {
      PmOptions opt;
      opt.grid_n = n;
      opt.box = box;
      opt.r_split = r_split;
      opt.G = 0.8;
      opt.deconvolve_cic = deconvolve;
      opt.gradient = gradient;
      PmSolver pm(opt, pool);
      std::vector<Vec3d> accel(s.pos.size());
      pm.compute_forces(s.pos, s.mass, accel);
      const std::vector<Vec3d> want = pm_oracle::reference_forces(opt, s, pool);
      double max_mag = 0.0, max_diff = 0.0;
      for (std::size_t i = 0; i < want.size(); ++i) {
        max_mag = std::max({max_mag, std::abs(want[i].x), std::abs(want[i].y),
                            std::abs(want[i].z)});
        const Vec3d d = accel[i] - want[i];
        max_diff = std::max({max_diff, std::abs(d.x), std::abs(d.y), std::abs(d.z)});
      }
      const std::string label = "r_split=" + std::to_string(r_split) +
                                " deconvolve=" + std::to_string(deconvolve);
      ASSERT_GT(max_mag, 0.0) << label;
      EXPECT_LT(rel_rms_diff(accel, want), 1e-12) << label;
      EXPECT_LE(max_diff, 1e-13 * max_mag) << label;
    }
  }
}

TEST(PpShortKernel, MatchesBruteForceReference) {
  util::ThreadPool pool(4);
  xsycl::Queue q(pool);
  const float box = 10.0f;
  const double rs = 0.8;
  const PolyShortForce poly(rs, 4.0 * rs);
  util::CounterRng rng(11);
  const int n = 500;
  std::vector<Vec3d> pos_d(n);
  std::vector<float> x(n), y(n), z(n), m(n);
  for (int i = 0; i < n; ++i) {
    pos_d[i] = {box * rng.uniform(3 * i), box * rng.uniform(3 * i + 1),
                box * rng.uniform(3 * i + 2)};
    x[i] = float(pos_d[i].x);
    y[i] = float(pos_d[i].y);
    z[i] = float(pos_d[i].z);
    m[i] = 1.0f + float(rng.uniform(9000 + i));
  }
  // Kernel path.
  std::vector<float> ax(n, 0.f), ay(n, 0.f), az(n, 0.f);
  tree::RcbTree tr(pos_d, box, 24);
  const auto pairs = tr.interacting_pairs(poly.r_cut());
  PpOptions opt;
  opt.box = box;
  opt.G = 0.7f;
  opt.softening = 0.05f;
  run_pp_short(q, {x.data(), y.data(), z.data(), m.data(), ax.data(), ay.data(),
                   az.data(), static_cast<std::size_t>(n)},
               tr, pairs, poly, opt);
  // Reference path.
  std::vector<float> rx(n, 0.f), ry(n, 0.f), rz(n, 0.f);
  reference_pp_short({x.data(), y.data(), z.data(), m.data(), rx.data(), ry.data(),
                      rz.data(), static_cast<std::size_t>(n)},
                     poly, box, 0.7f, 0.05f);
  double scale = 1e-20;
  for (int i = 0; i < n; ++i) scale = std::max(scale, double(std::abs(rx[i])));
  for (int i = 0; i < n; ++i) {
    ASSERT_NEAR(ax[i], rx[i], 2e-4 * scale) << i;
    ASSERT_NEAR(ay[i], ry[i], 2e-4 * scale) << i;
    ASSERT_NEAR(az[i], rz[i], 2e-4 * scale) << i;
  }
}

TEST(PpShortKernel, MomentumConservedAcrossVariants) {
  util::ThreadPool pool(4);
  const float box = 8.0f;
  const double rs = 0.6;
  const PolyShortForce poly(rs, 4.0 * rs);
  util::CounterRng rng(13);
  const int n = 300;
  std::vector<Vec3d> pos_d(n);
  std::vector<float> x(n), y(n), z(n), m(n);
  for (int i = 0; i < n; ++i) {
    pos_d[i] = {box * rng.uniform(3 * i), box * rng.uniform(3 * i + 1),
                box * rng.uniform(3 * i + 2)};
    x[i] = float(pos_d[i].x);
    y[i] = float(pos_d[i].y);
    z[i] = float(pos_d[i].z);
    m[i] = 1.0f;
  }
  tree::RcbTree tr(pos_d, box, 16);
  const auto pairs = tr.interacting_pairs(poly.r_cut());
  for (const auto variant : xsycl::kAllVariants) {
    xsycl::Queue q(pool);
    std::vector<float> ax(n, 0.f), ay(n, 0.f), az(n, 0.f);
    PpOptions opt;
    opt.box = box;
    opt.softening = 0.05f;
    opt.variant = variant;
    run_pp_short(q, {x.data(), y.data(), z.data(), m.data(), ax.data(), ay.data(),
                     az.data(), static_cast<std::size_t>(n)},
                 tr, pairs, poly, opt);
    double px = 0, scale = 0;
    for (int i = 0; i < n; ++i) {
      px += ax[i];
      scale += std::abs(ax[i]);
    }
    EXPECT_NEAR(px, 0.0, 1e-3 * std::max(scale, 1e-12)) << to_string(variant);
  }
}

}  // namespace
}  // namespace hacc::gravity
