#include "shard/layout.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hacc::shard {

namespace {

// Wraps a coordinate into [0, box).  fmod keeps the sign of its argument,
// so one conditional add covers the negative branch; the box itself maps
// to zero.
double wrap(double x, double box) {
  x = std::fmod(x, box);
  return x < 0.0 ? x + box : x;
}

// Periodic distance from coordinate x (wrapped) to the closed interval
// [lo, hi] on a circle of circumference box: zero inside, else the shorter
// of the two arc gaps to the nearest endpoint.
double axis_distance(double x, double lo, double hi, double box) {
  if (x >= lo && x <= hi) return 0.0;
  const double below = x < lo ? lo - x : lo + box - x;   // gap up to lo
  const double above = x > hi ? x - hi : x + box - hi;   // gap down to hi
  return std::min(below, above);
}

}  // namespace

ShardLayout::ShardLayout(double box, int nx, int ny, int nz)
    : box_(box), nx_(nx), ny_(ny), nz_(nz) {}

ShardLayout ShardLayout::make(double box, int count) {
  if (!(box > 0.0)) {
    throw std::invalid_argument("ShardLayout: box must be > 0");
  }
  if (count < 1) {
    throw std::invalid_argument("ShardLayout: shard count must be >= 1");
  }
  // Greedy near-cubic factorization: peel the smallest prime factor and
  // assign it to the currently shortest dimension, so 8 -> 2x2x2 and
  // 12 -> 3x2x2 while a prime count degrades to a 1-D column of slabs.
  int dims[3] = {1, 1, 1};
  int rest = count;
  while (rest > 1) {
    int factor = rest;  // rest itself when prime
    for (int p = 2; p * p <= rest; ++p) {
      if (rest % p == 0) {
        factor = p;
        break;
      }
    }
    int* smallest = std::min_element(dims, dims + 3);
    *smallest *= factor;
    rest /= factor;
  }
  std::sort(dims, dims + 3, std::greater<int>());
  return ShardLayout(box, dims[0], dims[1], dims[2]);
}

int ShardLayout::owner_of(const util::Vec3d& p) const {
  const auto cell_index = [this](double x, int n) {
    const int i = static_cast<int>(std::floor(wrap(x, box_) / box_ * n));
    return std::clamp(i, 0, n - 1);  // x just below box can round to n
  };
  const int ix = cell_index(p.x, nx_);
  const int iy = cell_index(p.y, ny_);
  const int iz = cell_index(p.z, nz_);
  return (ix * ny_ + iy) * nz_ + iz;
}

util::Vec3d ShardLayout::lo(int cell) const {
  const int iz = cell % nz_;
  const int iy = (cell / nz_) % ny_;
  const int ix = cell / (ny_ * nz_);
  return {box_ * ix / nx_, box_ * iy / ny_, box_ * iz / nz_};
}

util::Vec3d ShardLayout::hi(int cell) const {
  const int iz = cell % nz_;
  const int iy = (cell / nz_) % ny_;
  const int ix = cell / (ny_ * nz_);
  return {box_ * (ix + 1) / nx_, box_ * (iy + 1) / ny_, box_ * (iz + 1) / nz_};
}

double ShardLayout::distance_to(int cell, const util::Vec3d& p) const {
  const util::Vec3d l = lo(cell);
  const util::Vec3d h = hi(cell);
  const double dx = axis_distance(wrap(p.x, box_), l.x, h.x, box_);
  const double dy = axis_distance(wrap(p.y, box_), l.y, h.y, box_);
  const double dz = axis_distance(wrap(p.z, box_), l.z, h.z, box_);
  return std::sqrt(dx * dx + dy * dy + dz * dz);
}

std::vector<int> ShardLayout::neighbors_within(int cell, double radius) const {
  std::vector<int> out;
  const util::Vec3d l = lo(cell);
  const util::Vec3d h = hi(cell);
  for (int other = 0; other < count(); ++other) {
    if (other == cell) continue;
    const util::Vec3d ol = lo(other);
    const util::Vec3d oh = hi(other);
    // Per-axis gap between the two closed intervals under wrap: zero when
    // they touch; the cells interact when the combined gap is within radius.
    const auto gap = [](double alo, double ahi, double blo, double bhi,
                        double box) {
      if (ahi >= blo && bhi >= alo) return 0.0;  // overlapping / touching
      const double ab = wrap(blo - ahi, box);
      const double ba = wrap(alo - bhi, box);
      return std::min(ab, ba);
    };
    const double gx = gap(l.x, h.x, ol.x, oh.x, box_);
    const double gy = gap(l.y, h.y, ol.y, oh.y, box_);
    const double gz = gap(l.z, h.z, ol.z, oh.z, box_);
    if (gx * gx + gy * gy + gz * gz <= radius * radius) out.push_back(other);
  }
  return out;
}

}  // namespace hacc::shard
