#pragma once

// Flat FLRW background cosmology: expansion rate, linear growth factor, and
// the KDK drift/kick time integrals the stepper uses.  Units: H0 = 1 (time
// measured in 1/H0), comoving lengths in box units.

namespace hacc::ic {

struct Cosmology {
  double omega_m = 0.31;  // matter density parameter
  double h = 0.68;        // dimensionless Hubble parameter (for the transfer function)
  double n_s = 0.96;      // primordial spectral index

  double omega_lambda() const { return 1.0 - omega_m; }

  // E(a) = H(a)/H0 for a flat matter + Lambda universe.
  double e_of_a(double a) const;

  // Unnormalized linear growth factor D(a) ∝ E(a) ∫ da' / (a' E)^3.
  double growth(double a) const;

  // dD/da by numerical differentiation of growth().
  double growth_deriv(double a) const;

  static double a_of_z(double z) { return 1.0 / (1.0 + z); }
  static double z_of_a(double a) { return 1.0 / a - 1.0; }

  // Kick integral over [a0, a1] with dp/dt = -∇Φ: Δp = -∇Φ ∫ dt = -∇Φ ∫ da/(a E).
  double kick_factor(double a0, double a1) const;

  // ∫ dt/a = ∫ da/(a^2 E): drift factor for the peculiar-velocity form
  // (v = a dx/dt), used by the solver.
  double conformal_factor(double a0, double a1) const;
};

}  // namespace hacc::ic
