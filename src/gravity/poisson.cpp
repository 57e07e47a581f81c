#include "gravity/poisson.hpp"

#include <cassert>
#include <cmath>
#include <limits>

namespace hacc::gravity {

double SplitForce::short_fraction(double r) const {
  if (r <= 0.0) return 1.0;
  const double x = r / (2.0 * rs_);
  return std::erfc(x) + (r / (rs_ * std::sqrt(M_PI))) * std::exp(-x * x);
}

double SplitForce::long_profile(double r) const {
  if (r < 1e-6 * rs_) {
    // Series expansion: 1 - s(r) = r^3 / (6 sqrt(pi) r_s^3) + O(r^5), so
    // l(0) = 1/(6 sqrt(pi) r_s^3).
    return 1.0 / (6.0 * std::sqrt(M_PI) * rs_ * rs_ * rs_);
  }
  return (1.0 - short_fraction(r)) / (r * r * r);
}

double SplitForce::k_filter(double k) const { return std::exp(-k * k * rs_ * rs_); }

namespace {

// Solves the (order+1)x(order+1) normal equations with Gaussian elimination
// and partial pivoting.  The system is tiny and well scaled after mapping
// r^2 to [0, 1].
std::vector<double> solve_dense(std::vector<std::vector<double>> m,
                                std::vector<double> b) {
  const int n = static_cast<int>(b.size());
  for (int col = 0; col < n; ++col) {
    int pivot = col;
    for (int row = col + 1; row < n; ++row) {
      if (std::abs(m[row][col]) > std::abs(m[pivot][col])) pivot = row;
    }
    std::swap(m[col], m[pivot]);
    std::swap(b[col], b[pivot]);
    assert(std::abs(m[col][col]) > 0.0);
    for (int row = col + 1; row < n; ++row) {
      const double f = m[row][col] / m[col][col];
      for (int k = col; k < n; ++k) m[row][k] -= f * m[col][k];
      b[row] -= f * b[col];
    }
  }
  std::vector<double> x(n);
  for (int row = n - 1; row >= 0; --row) {
    double acc = b[row];
    for (int k = row + 1; k < n; ++k) acc -= m[row][k] * x[k];
    x[row] = acc / m[row][row];
  }
  return x;
}

}  // namespace

PolyShortForce::PolyShortForce(double r_split, double r_cut, int order)
    : rs_(r_split), rcut_(r_cut), order_(order) {
  // Least-squares fit of l(r) as a polynomial in t = r^2 / r_cut^2 over
  // [0, 1], then rescale coefficients back to r^2.
  const SplitForce split(rs_);
  const int n_terms = order_ + 1;
  const int n_samples = 256;
  std::vector<std::vector<double>> ata(n_terms, std::vector<double>(n_terms, 0.0));
  std::vector<double> atb(n_terms, 0.0);
  for (int s = 0; s < n_samples; ++s) {
    const double t = (s + 0.5) / n_samples;  // r^2/rcut^2
    const double r = rcut_ * std::sqrt(t);
    const double y = split.long_profile(r);
    double powers[32];
    powers[0] = 1.0;
    for (int i = 1; i < n_terms; ++i) powers[i] = powers[i - 1] * t;
    for (int i = 0; i < n_terms; ++i) {
      for (int j = 0; j < n_terms; ++j) ata[i][j] += powers[i] * powers[j];
      atb[i] += powers[i] * y;
    }
  }
  const std::vector<double> scaled = solve_dense(std::move(ata), std::move(atb));
  // coef_[i] multiplies (r^2)^i = (t * rcut^2)^i.
  coef_.resize(n_terms);
  double scale = 1.0;
  for (int i = 0; i < n_terms; ++i) {
    coef_[i] = scaled[i] * scale;
    scale /= (rcut_ * rcut_);
  }
  coef32_.assign(coef_.begin(), coef_.end());
}

PolyShortForce PolyShortForce::newtonian(double r_cut) {
  PolyShortForce f;
  f.rs_ = std::numeric_limits<double>::infinity();  // nothing on the mesh side
  f.rcut_ = r_cut;
  f.coef_.assign(1, 0.0);
  f.coef32_.assign(1, 0.f);
  return f;
}

double PolyShortForce::max_abs_error(int n_samples) const {
  const SplitForce split(rs_);
  double worst = 0.0;
  for (int s = 0; s < n_samples; ++s) {
    const double r = rcut_ * (s + 0.5) / n_samples;
    const double err = std::abs(poly(static_cast<float>(r * r)) - split.long_profile(r));
    worst = std::max(worst, err);
  }
  return worst;
}

}  // namespace hacc::gravity
