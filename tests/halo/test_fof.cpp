#include "halo/fof.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "halo/union_find.hpp"
#include "util/rng.hpp"

namespace hacc::halo {
namespace {

using util::Vec3d;

TEST(UnionFind, BasicMerging) {
  UnionFind uf(6);
  EXPECT_FALSE(uf.same(0, 1));
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(0, 1));  // already joined
  uf.unite(2, 3);
  uf.unite(1, 2);
  EXPECT_TRUE(uf.same(0, 3));
  EXPECT_FALSE(uf.same(0, 4));
  EXPECT_EQ(uf.component_size(3), 4);
  EXPECT_EQ(uf.component_size(5), 1);
}

TEST(UnionFind, TransitiveChains) {
  UnionFind uf(100);
  for (int i = 0; i + 1 < 100; ++i) uf.unite(i, i + 1);
  EXPECT_TRUE(uf.same(0, 99));
  EXPECT_EQ(uf.component_size(50), 100);
}

// Two tight clusters + background noise.
std::vector<Vec3d> two_clusters(int per_cluster, int noise, double box,
                                std::uint64_t seed) {
  util::CounterRng rng(seed);
  std::vector<Vec3d> pos;
  const Vec3d c1{box * 0.25, box * 0.25, box * 0.25};
  const Vec3d c2{box * 0.75, box * 0.75, box * 0.75};
  for (int i = 0; i < per_cluster; ++i) {
    pos.push_back(c1 + Vec3d{0.02 * box * (rng.uniform(6 * i) - 0.5),
                             0.02 * box * (rng.uniform(6 * i + 1) - 0.5),
                             0.02 * box * (rng.uniform(6 * i + 2) - 0.5)});
    pos.push_back(c2 + Vec3d{0.02 * box * (rng.uniform(6 * i + 3) - 0.5),
                             0.02 * box * (rng.uniform(6 * i + 4) - 0.5),
                             0.02 * box * (rng.uniform(6 * i + 5) - 0.5)});
  }
  for (int i = 0; i < noise; ++i) {
    pos.push_back({box * rng.uniform(100'000 + 3 * i), box * rng.uniform(100'001 + 3 * i),
                   box * rng.uniform(100'002 + 3 * i)});
  }
  return pos;
}

TEST(Fof, FindsTwoSeparatedClusters) {
  const double box = 10.0;
  const auto pos = two_clusters(50, 0, box, 1);
  FofOptions opt;
  opt.linking_length = 0.15;
  opt.min_members = 10;
  const auto r = friends_of_friends(pos, box, opt);
  EXPECT_EQ(r.n_halos(), 2);
  EXPECT_EQ(r.halo_sizes[0], 50);
  EXPECT_EQ(r.halo_sizes[1], 50);
  // Cluster membership is consistent: alternating construction order.
  const std::int32_t id_a = r.halo_id[0];
  const std::int32_t id_b = r.halo_id[1];
  EXPECT_NE(id_a, id_b);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    EXPECT_EQ(r.halo_id[i], i % 2 == 0 ? id_a : id_b) << i;
  }
}

TEST(Fof, MinMembersFiltersSmallGroups) {
  const double box = 10.0;
  auto pos = two_clusters(50, 0, box, 2);
  pos.push_back({1.0, 9.0, 5.0});  // isolated particle
  FofOptions opt;
  opt.linking_length = 0.15;
  opt.min_members = 60;  // larger than either cluster
  const auto r = friends_of_friends(pos, box, opt);
  EXPECT_EQ(r.n_halos(), 0);
  for (const auto id : r.halo_id) EXPECT_EQ(id, -1);
}

TEST(Fof, LinkingLengthBridgesClusters) {
  // With a huge linking length the two clusters merge into one halo.
  const double box = 10.0;
  const auto pos = two_clusters(30, 0, box, 3);
  FofOptions opt;
  opt.linking_length = 9.0;
  opt.min_members = 10;
  const auto r = friends_of_friends(pos, box, opt);
  EXPECT_EQ(r.n_halos(), 1);
  EXPECT_EQ(r.halo_sizes[0], 60);
}

TEST(Fof, PeriodicWrapJoinsHalosAcrossBoundary) {
  const double box = 10.0;
  std::vector<Vec3d> pos;
  for (int i = 0; i < 20; ++i) pos.push_back({0.05, 5.0 + 0.01 * i, 5.0});
  for (int i = 0; i < 20; ++i) pos.push_back({9.95, 5.0 + 0.01 * i, 5.0});
  FofOptions opt;
  opt.linking_length = 0.3;
  opt.min_members = 5;
  const auto r = friends_of_friends(pos, box, opt);
  ASSERT_EQ(r.n_halos(), 1);  // joined through the periodic boundary
  EXPECT_EQ(r.halo_sizes[0], 40);
}

TEST(Fof, HaloSizesSortedDescending) {
  const double box = 20.0;
  util::CounterRng rng(5);
  std::vector<Vec3d> pos;
  // Three clusters of different sizes.
  const int sizes[3] = {40, 25, 12};
  const Vec3d centers[3] = {{3, 3, 3}, {10, 10, 10}, {17, 17, 3}};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < sizes[c]; ++i) {
      const std::uint64_t k = 1000 * c + 3 * i;
      pos.push_back(centers[c] + Vec3d{0.2 * (rng.uniform(k) - 0.5),
                                       0.2 * (rng.uniform(k + 1) - 0.5),
                                       0.2 * (rng.uniform(k + 2) - 0.5)});
    }
  }
  FofOptions opt;
  opt.linking_length = 0.3;
  opt.min_members = 5;
  const auto r = friends_of_friends(pos, box, opt);
  ASSERT_EQ(r.n_halos(), 3);
  EXPECT_EQ(r.halo_sizes[0], 40);
  EXPECT_EQ(r.halo_sizes[1], 25);
  EXPECT_EQ(r.halo_sizes[2], 12);
}

class FofDbscanEquivalence : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(LinkingLengths, FofDbscanEquivalence,
                         ::testing::Values(0.1, 0.2, 0.4),
                         [](const auto& info) {
                           return "b" + std::to_string(int(info.param * 100));
                         });

TEST_P(FofDbscanEquivalence, FofEqualsDbscanWithMinPtsTwo) {
  // The ArborX connection (§3.1): FOF is exactly DBSCAN with min_pts <= 2.
  const double b = GetParam();
  const double box = 10.0;
  const auto pos = two_clusters(40, 30, box, 7);
  FofOptions opt;
  opt.linking_length = b;
  opt.min_members = 1;
  const auto fof = friends_of_friends(pos, box, opt);
  const auto db = dbscan(pos, box, b, 2);
  // Same partitioning: pairs agree on same-cluster membership.
  for (std::size_t i = 0; i < pos.size(); i += 7) {
    for (std::size_t j = i + 1; j < pos.size(); j += 11) {
      const bool same_fof = fof.halo_id[i] == fof.halo_id[j];
      const bool same_db =
          db.cluster_id[i] >= 0 && db.cluster_id[i] == db.cluster_id[j];
      EXPECT_EQ(same_fof, same_db) << i << "," << j;
    }
  }
}

TEST(Dbscan, NoisePointsGetNoCluster) {
  const double box = 10.0;
  auto pos = two_clusters(40, 0, box, 9);
  pos.push_back({0.2, 9.8, 0.2});  // far from everything
  const auto r = dbscan(pos, box, 0.3, 4);
  EXPECT_EQ(r.cluster_id.back(), -1);
  EXPECT_FALSE(r.is_core.back());
  EXPECT_EQ(r.n_clusters, 2);
}

TEST(Dbscan, MinPtsControlsCoreClassification) {
  // A sparse line of points: with high min_pts nothing is core.
  const double box = 10.0;
  std::vector<Vec3d> pos;
  for (int i = 0; i < 10; ++i) pos.push_back({1.0 + 0.2 * i, 5.0, 5.0});
  const auto strict = dbscan(pos, box, 0.25, 5);
  EXPECT_EQ(strict.n_clusters, 0);
  const auto loose = dbscan(pos, box, 0.25, 2);
  EXPECT_EQ(loose.n_clusters, 1);
}

TEST(Dbscan, CoarseGridCountsEachNeighborOnce) {
  // eps > box/3 leaves the cell grid two cells per side, where the cells
  // one step left and right of a point are the same cell.  Three points
  // 0.4 apart (0.2 across the periodic boundary) each have 3 neighbors,
  // themselves included: none is core at min_pts 4.
  const std::vector<Vec3d> pos = {{0.1, 0.5, 0.5}, {0.5, 0.5, 0.5}, {0.9, 0.5, 0.5}};
  const auto r = dbscan(pos, 1.0, 0.45, 4);
  for (std::size_t i = 0; i < pos.size(); ++i) EXPECT_FALSE(r.is_core[i]) << i;
  EXPECT_EQ(r.n_clusters, 0);
  EXPECT_TRUE(dbscan(pos, 1.0, 0.45, 3).is_core[0]);
}

// O(n^2) DBSCAN over every pair under the minimum image: the reference the
// cell grid must reproduce at any eps, including eps > box/3.
class DbscanBruteForce : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(EpsFractions, DbscanBruteForce,
                         ::testing::Values(0.2, 0.4, 0.45, 0.5),
                         [](const auto& info) {
                           return "eps" + std::to_string(int(info.param * 100));
                         });

TEST_P(DbscanBruteForce, MatchesQuadraticReference) {
  const double box = 2.0;
  const double eps = GetParam() * box;
  const std::size_t n = 80;
  util::CounterRng rng(31);
  std::vector<Vec3d> pos;
  for (std::size_t i = 0; i < n; ++i) {
    pos.push_back({box * rng.uniform(3 * i), box * rng.uniform(3 * i + 1),
                   box * rng.uniform(3 * i + 2)});
  }
  const auto near = [&](std::size_t i, std::size_t j) {
    double d2 = 0.0;
    for (int a = 0; a < 3; ++a) {
      double d = std::fabs(pos[i][a] - pos[j][a]);
      d = std::min(d, box - d);
      d2 += d * d;
    }
    return d2 <= eps * eps;
  };
  std::vector<int> count(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) count[i] += near(i, j) ? 1 : 0;
  }
  for (const int min_pts : {2, 3, 5, 10, 20, 40, 60}) {
    SCOPED_TRACE("min_pts " + std::to_string(min_pts));
    const auto r = dbscan(pos, box, eps, min_pts);
    UnionFind ref(n);
    int components = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(r.is_core[i], count[i] >= min_pts) << i << " has " << count[i];
      if (!r.is_core[i]) continue;
      ++components;
      for (std::size_t j = 0; j < i; ++j) {
        if (r.is_core[j] && near(i, j) && ref.unite(i, j)) --components;
      }
    }
    EXPECT_EQ(r.n_clusters, components);
    for (std::size_t i = 0; i < n; ++i) {
      if (r.is_core[i]) {
        for (std::size_t j = 0; j < n; ++j) {
          if (r.is_core[j]) {
            EXPECT_EQ(r.cluster_id[i] == r.cluster_id[j], ref.same(i, j)) << i << "," << j;
          }
        }
        continue;
      }
      // A border point takes the cluster of one of its core neighbors;
      // a point with none is noise.
      bool adopted = false, has_core_neighbor = false;
      for (std::size_t j = 0; j < n; ++j) {
        if (!r.is_core[j] || !near(i, j)) continue;
        has_core_neighbor = true;
        adopted = adopted || r.cluster_id[i] == r.cluster_id[j];
      }
      EXPECT_EQ(adopted, has_core_neighbor) << i;
      if (!has_core_neighbor) {
        EXPECT_EQ(r.cluster_id[i], -1) << i;
      }
    }
  }
}

}  // namespace
}  // namespace hacc::halo
