// Geometry of the shard grid: factorization, ownership (including particles
// exactly on boundary planes), and the minimum-image point-to-cell distance
// that defines ghost membership at faces, edges, and box corners.

#include "shard/layout.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <stdexcept>

namespace hacc::shard {
namespace {

TEST(ShardLayoutTest, FactorizationIsNearCubic) {
  const auto dims = [](int count) {
    const ShardLayout l = ShardLayout::make(1.0, count);
    return std::array<int, 3>{l.nx(), l.ny(), l.nz()};
  };
  EXPECT_EQ(dims(1), (std::array<int, 3>{1, 1, 1}));
  EXPECT_EQ(dims(2), (std::array<int, 3>{2, 1, 1}));
  EXPECT_EQ(dims(4), (std::array<int, 3>{2, 2, 1}));
  EXPECT_EQ(dims(8), (std::array<int, 3>{2, 2, 2}));
  EXPECT_EQ(dims(6), (std::array<int, 3>{3, 2, 1}));
  EXPECT_EQ(dims(12), (std::array<int, 3>{3, 2, 2}));
  const ShardLayout prime = ShardLayout::make(1.0, 7);
  EXPECT_EQ(prime.count(), 7);
}

TEST(ShardLayoutTest, RejectsBadArguments) {
  EXPECT_THROW(ShardLayout::make(0.0, 2), std::invalid_argument);
  EXPECT_THROW(ShardLayout::make(-1.0, 2), std::invalid_argument);
  EXPECT_THROW(ShardLayout::make(1.0, 0), std::invalid_argument);
}

TEST(ShardLayoutTest, EveryPositionHasExactlyOneOwner) {
  const ShardLayout l = ShardLayout::make(10.0, 8);
  for (double x = 0.05; x < 10.0; x += 0.7) {
    for (double y = 0.05; y < 10.0; y += 0.7) {
      for (double z = 0.05; z < 10.0; z += 0.7) {
        const int owner = l.owner_of({x, y, z});
        ASSERT_GE(owner, 0);
        ASSERT_LT(owner, l.count());
        // The owner's region contains the point: distance exactly zero.
        EXPECT_EQ(l.distance_to(owner, {x, y, z}), 0.0);
      }
    }
  }
}

TEST(ShardLayoutTest, BoundaryPlaneParticleOwnedByHigherCell) {
  // 2x2x2 over box 10: the internal boundary planes sit at 5.0.  A particle
  // exactly on a plane belongs to the cell whose LOW face it sits on — the
  // floor convention — so residency is a total function of position and no
  // particle is ever owned twice or not at all.
  const ShardLayout l = ShardLayout::make(10.0, 8);
  const int on_plane = l.owner_of({5.0, 2.0, 2.0});
  const int above = l.owner_of({5.0 + 1e-9, 2.0, 2.0});
  const int below = l.owner_of({5.0 - 1e-9, 2.0, 2.0});
  EXPECT_EQ(on_plane, above);
  EXPECT_NE(on_plane, below);
  // x = box wraps to x = 0: the particle belongs to the first cell.
  EXPECT_EQ(l.owner_of({10.0, 2.0, 2.0}), l.owner_of({0.0, 2.0, 2.0}));
}

TEST(ShardLayoutTest, DistanceIsPeriodicAcrossTheBoxFaces) {
  // Cell 0 of a 2x1x1 over box 10 spans x in [0, 5].  A point at x = 9.9 is
  // 0.1 away through the periodic face, not 4.9 away through the interior.
  const ShardLayout l = ShardLayout::make(10.0, 2);
  const int cell0 = l.owner_of({1.0, 5.0, 5.0});
  EXPECT_NEAR(l.distance_to(cell0, {9.9, 5.0, 5.0}), 0.1, 1e-12);
  EXPECT_NEAR(l.distance_to(cell0, {5.5, 5.0, 5.0}), 0.5, 1e-12);
}

TEST(ShardLayoutTest, BoxCornerDistanceCombinesThreeWrappedAxes) {
  // 2x2x2 over box 10: the cell owning (7.5, 7.5, 7.5) spans [5, 10]^3.  A
  // point just inside the opposite box corner (0.1, 0.1, 0.1) reaches that
  // cell by wrapping ALL three axes: each axis gap is 0.1 (10.0 -> 0.1), so
  // the distance is 0.1 * sqrt(3) — the 3-way corner ghost case.
  const ShardLayout l = ShardLayout::make(10.0, 8);
  const int far_cell = l.owner_of({7.5, 7.5, 7.5});
  EXPECT_NEAR(l.distance_to(far_cell, {0.1, 0.1, 0.1}), 0.1 * std::sqrt(3.0),
              1e-12);
}

TEST(ShardLayoutTest, NeighborsWithinMatchesDistance) {
  const ShardLayout l = ShardLayout::make(10.0, 8);
  for (int cell = 0; cell < l.count(); ++cell) {
    for (const double radius : {0.25, 1.0, 3.0}) {
      const std::vector<int> nbs = l.neighbors_within(cell, radius);
      const std::set<int> nb_set(nbs.begin(), nbs.end());
      EXPECT_FALSE(nb_set.count(cell)) << "a cell is not its own neighbor";
      // 2x2x2 halves share faces/edges/corners: every other cell's region
      // touches this one's, so all 7 must appear at any positive radius.
      EXPECT_EQ(static_cast<int>(nbs.size()), l.count() - 1)
          << "cell " << cell << " radius " << radius;
    }
  }
  // A prime count factors as a 5x1x1 row; at a radius smaller than the gap
  // to the second-nearest cells only the two face-adjacent ones qualify.
  const ShardLayout row = ShardLayout::make(10.0, 5);
  ASSERT_EQ(row.nx(), 5);
  const std::vector<int> nbs = row.neighbors_within(0, 0.5);
  const std::set<int> nb_set(nbs.begin(), nbs.end());
  EXPECT_TRUE(nb_set.count(row.owner_of({3.0, 0.5, 0.5})));   // +x neighbor
  EXPECT_TRUE(nb_set.count(row.owner_of({9.0, 0.5, 0.5})));   // -x via wrap
  EXPECT_FALSE(nb_set.count(row.owner_of({5.0, 0.5, 0.5})));  // middle cell
}

}  // namespace
}  // namespace hacc::shard
