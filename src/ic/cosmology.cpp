#include "ic/cosmology.hpp"

#include <cmath>

namespace hacc::ic {

namespace {

// Simpson's rule on a fixed number of panels.
template <typename F>
double integrate(F f, double a, double b, int n_panels = 256) {
  if (b <= a) return 0.0;
  const double h = (b - a) / n_panels;
  double sum = f(a) + f(b);
  for (int i = 1; i < n_panels; ++i) {
    sum += f(a + i * h) * (i % 2 == 1 ? 4.0 : 2.0);
  }
  return sum * h / 3.0;
}

}  // namespace

double Cosmology::e_of_a(double a) const {
  return std::sqrt(omega_m / (a * a * a) + omega_lambda());
}

double Cosmology::growth(double a) const {
  // D(a) ∝ E(a) ∫_0^a da' / (a' E(a'))^3; the integrand scales as a'^(3/2)
  // near zero, so starting at a tiny epsilon loses nothing.
  const double eps = 1e-6;
  const double integral = integrate(
      [this](double x) {
        const double xe = x * e_of_a(x);
        return 1.0 / (xe * xe * xe);
      },
      eps, a, 512);
  return e_of_a(a) * integral;
}

double Cosmology::growth_deriv(double a) const {
  const double da = 1e-5 * a;
  return (growth(a + da) - growth(a - da)) / (2.0 * da);
}

double Cosmology::kick_factor(double a0, double a1) const {
  return integrate([this](double a) { return 1.0 / (a * e_of_a(a)); }, a0, a1);
}

double Cosmology::conformal_factor(double a0, double a1) const {
  return integrate([this](double a) { return 1.0 / (a * a * e_of_a(a)); }, a0, a1);
}

}  // namespace hacc::ic
