#include "halo/fof.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "halo/union_find.hpp"

namespace hacc::halo {

namespace {

// Periodic cell grid: bins points into cells no smaller than the search
// radius so neighbor candidates live in the (up to) 27 surrounding cells.
class CellGrid {
 public:
  CellGrid(std::span<const util::Vec3d> pos, double box, double radius)
      : pos_(pos), box_(box) {
    n_ = std::max(1, static_cast<int>(std::floor(box / std::max(radius, 1e-12))));
    n_ = std::min(n_, 128);
    cells_.resize(static_cast<std::size_t>(n_) * n_ * n_);
    for (std::size_t i = 0; i < pos.size(); ++i) {
      cells_[cell_of(pos[i])].push_back(static_cast<std::int32_t>(i));
    }
  }

  template <typename Fn>
  void for_each_neighbor_candidate(std::int32_t i, Fn fn) const {
    const auto& p = pos_[i];
    const int cx = coord(p.x), cy = coord(p.y), cz = coord(p.z);
    // With fewer than 3 cells per side, c - 1 and c + 1 wrap onto the same
    // cell: visit only the first min(n, 3) of c - 1, c, c + 1, which are
    // distinct, so no candidate is seen twice.
    const int k = std::min(n_, 3);
    for (int dx = 0; dx < k; ++dx) {
      for (int dy = 0; dy < k; ++dy) {
        for (int dz = 0; dz < k; ++dz) {
          const std::size_t c =
              index(wrap(cx + dx - 1), wrap(cy + dy - 1), wrap(cz + dz - 1));
          for (const std::int32_t j : cells_[c]) fn(j);
        }
      }
    }
  }

  double min_image_dist2(std::int32_t i, std::int32_t j) const {
    double d2 = 0.0;
    for (int a = 0; a < 3; ++a) {
      double d = std::fabs(pos_[i][a] - pos_[j][a]);
      d = std::min(d, box_ - d);
      d2 += d * d;
    }
    return d2;
  }

 private:
  int coord(double x) const {
    const int c = static_cast<int>(x / box_ * n_);
    return std::clamp(c, 0, n_ - 1);
  }
  int wrap(int c) const { return (c % n_ + n_) % n_; }
  std::size_t index(int x, int y, int z) const {
    return (static_cast<std::size_t>(x) * n_ + y) * n_ + z;
  }
  std::size_t cell_of(const util::Vec3d& p) const {
    return index(coord(p.x), coord(p.y), coord(p.z));
  }

  std::span<const util::Vec3d> pos_;
  double box_;
  int n_ = 1;
  std::vector<std::vector<std::int32_t>> cells_;
};

}  // namespace

FofResult friends_of_friends(std::span<const util::Vec3d> pos, double box,
                             const FofOptions& opt) {
  const std::size_t n = pos.size();
  UnionFind uf(n);
  const double b2 = opt.linking_length * opt.linking_length;
  const CellGrid grid(pos, box, opt.linking_length);
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(n); ++i) {
    grid.for_each_neighbor_candidate(i, [&](std::int32_t j) {
      if (j <= i) return;
      if (grid.min_image_dist2(i, j) <= b2) uf.unite(i, j);
    });
  }

  // Collect groups, filter by size, order halos by descending size.
  std::map<std::int64_t, std::int32_t> root_count;
  for (std::size_t i = 0; i < n; ++i) ++root_count[uf.find(static_cast<std::int64_t>(i))];
  std::vector<std::pair<std::int64_t, std::int32_t>> halos;
  for (const auto& [root, count] : root_count) {
    if (count >= opt.min_members) halos.push_back({root, count});
  }
  std::sort(halos.begin(), halos.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  FofResult out;
  out.halo_id.assign(n, -1);
  std::map<std::int64_t, std::int32_t> root_to_id;
  for (std::size_t h = 0; h < halos.size(); ++h) {
    root_to_id[halos[h].first] = static_cast<std::int32_t>(h);
    out.halo_sizes.push_back(halos[h].second);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = root_to_id.find(uf.find(static_cast<std::int64_t>(i)));
    if (it != root_to_id.end()) out.halo_id[i] = it->second;
  }
  return out;
}

DbscanResult dbscan(std::span<const util::Vec3d> pos, double box, double eps,
                    int min_pts) {
  const std::size_t n = pos.size();
  const CellGrid grid(pos, box, eps);
  const double eps2 = eps * eps;

  // Core classification: at least min_pts neighbors within eps (incl. self).
  std::vector<bool> core(n, false);
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(n); ++i) {
    int count = 0;
    grid.for_each_neighbor_candidate(i, [&](std::int32_t j) {
      if (grid.min_image_dist2(i, j) <= eps2) ++count;
    });
    core[i] = count >= min_pts;
  }

  // Union core points within eps of each other.
  UnionFind uf(n);
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(n); ++i) {
    if (!core[i]) continue;
    grid.for_each_neighbor_candidate(i, [&](std::int32_t j) {
      if (j <= i || !core[j]) return;
      if (grid.min_image_dist2(i, j) <= eps2) uf.unite(i, j);
    });
  }

  DbscanResult out;
  out.is_core = core;
  out.cluster_id.assign(n, -1);
  std::map<std::int64_t, std::int32_t> root_to_id;
  for (std::size_t i = 0; i < n; ++i) {
    if (!core[i]) continue;
    const std::int64_t root = uf.find(static_cast<std::int64_t>(i));
    auto [it, inserted] = root_to_id.try_emplace(root, out.n_clusters);
    if (inserted) ++out.n_clusters;
    out.cluster_id[i] = it->second;
  }
  // Border points adopt the cluster of any core neighbor.
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(n); ++i) {
    if (core[i]) continue;
    grid.for_each_neighbor_candidate(i, [&](std::int32_t j) {
      if (out.cluster_id[i] >= 0 || !core[j]) return;
      if (grid.min_image_dist2(i, j) <= eps2) out.cluster_id[i] = out.cluster_id[j];
    });
  }
  return out;
}

}  // namespace hacc::halo
