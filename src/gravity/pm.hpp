#pragma once

/// \file
/// Particle-mesh long-range gravity: CIC deposit -> real-to-complex FFT ->
/// filtered inverse-Laplacian Green's function on the half spectrum ->
/// gradient -> CIC interpolation.  This is the distributed-FFT Poisson path
/// of HACC (§3.1), realized with the in-house threaded FFT at single-node
/// scale.
///
/// The density field is real, so the spectral pipeline runs on an
/// n x n x (n/2+1) half spectrum (Hermitian symmetry) instead of full
/// complex grids.  The Green's function is separable: k^2 is a sum and the
/// split filter and CIC window are products of per-axis factors, so each
/// mode costs one table product and one division.  The force gradient is
/// selectable: the spectral reference runs three c2r inverses that each
/// read phi(k) as -i k_a phi(k) and work in one scratch spectrum (phi(k)
/// stays intact, so the potential is inverted lazily, only when
/// potential() asks for it), while the fd4/fd6 paths inverse-transform phi
/// once and differentiate the real-space potential with a 4th/6th-order
/// centered stencil — trading a small, documented force error for 3x fewer
/// inverse transforms.

#include <span>
#include <string>
#include <vector>

#include "fft/fft.hpp"
#include "gravity/poisson.hpp"
#include "mesh/cic.hpp"
#include "obs/metrics.hpp"
#include "util/vec3.hpp"

namespace hacc::gravity {

/// How real-space forces are derived from the spectral potential phi(k).
enum class PmGradient {
  kSpectral,  ///< -i k_a phi(k), one inverse per component (accuracy reference)
  kFd4,       ///< one inverse of phi(k) + 4th-order finite-difference gradient
  kFd6,       ///< one inverse of phi(k) + 6th-order finite-difference gradient
};

/// The config-key spelling of a gradient mode ("spectral" | "fd4" | "fd6").
const char* to_string(PmGradient g);

/// Parses "spectral" | "fd4" | "fd6"; returns false (out untouched) for
/// unknown names — the util::Config wiring used by examples and tools.
bool parse_pm_gradient(const std::string& name, PmGradient& out);

/// Mesh geometry and physics knobs of one PM solve.
struct PmOptions {
  int grid_n = 32;          ///< mesh cells per side (power of two)
  double box = 1.0;         ///< periodic box size
  double r_split = 0.0;     ///< Gaussian split scale; 0 disables the filter
  double G = 1.0;           ///< gravitational constant in code units
  bool deconvolve_cic = true;  ///< divide by the CIC window twice
  PmGradient gradient = PmGradient::kSpectral;
};

/// Wall-clock breakdown of the last compute_forces call, in seconds.
struct PmPhaseTimes {
  double deposit = 0.0;   ///< CIC scatter of particle masses
  double forward = 0.0;   ///< r2c forward transform
  double green = 0.0;     ///< Green's function on the half grid
  double inverse = 0.0;   ///< c2r inverse(s), each applying its derivative as it reads
  double gradient = 0.0;  ///< finite-difference gradient (fd4/fd6 only)
  double interp = 0.0;    ///< CIC gather of accelerations
  double total() const {
    return deposit + forward + green + inverse + gradient + interp;
  }
};

/// The long-range Poisson solver.  Thread-compatible, not thread-safe:
/// compute_forces parallelizes internally over the pool but works in member
/// workspace buffers (mass/potential/force grids, half-spectrum arrays)
/// reused across calls, so concurrent calls — potential() included — need
/// one PmSolver instance per caller (docs/CONCURRENCY.md).
class PmSolver {
 public:
  explicit PmSolver(const PmOptions& opt,
                    util::ThreadPool& pool = util::ThreadPool::global());

  const PmOptions& options() const { return opt_; }

  /// The gravitational "constant" varies with the scale factor in comoving
  /// coordinates; the solver rescales it per force evaluation.
  void set_gravitational_constant(double g) { opt_.G = g; }

  /// Computes long-range accelerations at the particle positions; accel is
  /// overwritten.  Throws std::invalid_argument unless mass and accel have
  /// the length of pos.
  void compute_forces(std::span<const util::Vec3d> pos, std::span<const double> mass,
                      std::span<util::Vec3d> accel);

  /// The gravitational potential grid from the last compute_forces call
  /// (diagnostics / tests).  The fd paths invert it eagerly; the spectral
  /// path runs its c2r here, on the first call after each solve.
  const mesh::GridD& potential();

  /// Phase timing of the last compute_forces call (bench / diagnostics).
  const PmPhaseTimes& phase_times() const { return times_; }

 private:
  template <int Order>
  void fd_gradient();

  PmOptions opt_;
  util::ThreadPool* pool_;
  fft::Fft3D fft_;
  mesh::CicDepositor depositor_;
  PmPhaseTimes times_;

  // Handles into obs::MetricsRegistry::global(), interned once at
  // construction: a solve count plus accumulated per-phase seconds.  The
  // registry keeps registrations across reset(), so these stay valid for
  // the solver's lifetime (docs/OBSERVABILITY.md).
  obs::MetricsRegistry::Handle m_solves_;
  obs::MetricsRegistry::Handle m_deposit_s_;
  obs::MetricsRegistry::Handle m_forward_s_;
  obs::MetricsRegistry::Handle m_green_s_;
  obs::MetricsRegistry::Handle m_inverse_s_;
  obs::MetricsRegistry::Handle m_gradient_s_;
  obs::MetricsRegistry::Handle m_interp_s_;

  // Persistent workspace, sized on first use and reused across calls.
  mesh::GridD mass_grid_;
  std::vector<double> k_;             // wavenumber per mesh index (signed freq)
  std::vector<fft::cplx> phi_k_;      // half-spectrum potential
  std::vector<fft::cplx> scratch_k_;  // c2r work spectrum (phi_k_ is only read)
  mesh::GridD potential_;
  bool potential_ready_ = false;      // potential_ holds the last solve's phi
  mesh::GridD force_[3];
};

}  // namespace hacc::gravity
