#include "tree/rcb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace hacc::tree {
namespace {

using util::Vec3d;

// Minimum-image distance between two leaf AABBs (0 when overlapping): a
// leaf node carries its leaf's AABB, so this is the walk's node distance.
double leaf_distance(const RcbTree& tree, std::int32_t a, std::int32_t b) {
  return tree.node_distance(tree.leaf_nodes()[a], tree.leaf_nodes()[b]);
}

std::vector<Vec3d> random_positions(int n, double box, std::uint64_t seed) {
  util::CounterRng rng(seed);
  std::vector<Vec3d> pos(n);
  for (int i = 0; i < n; ++i) {
    pos[i] = {box * rng.uniform(3 * i), box * rng.uniform(3 * i + 1),
              box * rng.uniform(3 * i + 2)};
  }
  return pos;
}

double min_image_dist(const Vec3d& a, const Vec3d& b, double box) {
  double d2 = 0.0;
  for (int axis = 0; axis < 3; ++axis) {
    double d = std::fabs(a[axis] - b[axis]);
    d = std::min(d, box - d);
    d2 += d * d;
  }
  return std::sqrt(d2);
}

class RcbTreeParam : public ::testing::TestWithParam<std::tuple<int, int>> {};

INSTANTIATE_TEST_SUITE_P(SizesAndLeaves, RcbTreeParam,
                         ::testing::Combine(::testing::Values(1, 33, 200, 1000),
                                            ::testing::Values(8, 16, 32)),
                         [](const auto& info) {
                           return "n" + std::to_string(std::get<0>(info.param)) + "_leaf" +
                                  std::to_string(std::get<1>(info.param));
                         });

TEST_P(RcbTreeParam, OrderIsAPermutation) {
  const auto [n, leaf_size] = GetParam();
  const double box = 10.0;
  const auto pos = random_positions(n, box, 42);
  RcbTree tree(pos, box, leaf_size);
  std::vector<std::int32_t> sorted = tree.order();
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < n; ++i) ASSERT_EQ(sorted[i], i);
}

TEST_P(RcbTreeParam, LeavesRespectSizeBoundAndPartitionSlots) {
  const auto [n, leaf_size] = GetParam();
  const double box = 10.0;
  const auto pos = random_positions(n, box, 43);
  RcbTree tree(pos, box, leaf_size);
  std::int32_t covered = 0;
  for (const auto& leaf : tree.leaves()) {
    ASSERT_EQ(leaf.begin, covered);  // contiguous, in order
    ASSERT_GT(leaf.count(), 0);
    ASSERT_LE(leaf.count(), leaf_size);
    covered = leaf.end;
  }
  EXPECT_EQ(covered, n);
}

TEST_P(RcbTreeParam, BoundingBoxesContainTheirParticles) {
  const auto [n, leaf_size] = GetParam();
  const double box = 10.0;
  const auto pos = random_positions(n, box, 44);
  RcbTree tree(pos, box, leaf_size);
  for (const auto& leaf : tree.leaves()) {
    for (std::int32_t k = leaf.begin; k < leaf.end; ++k) {
      const Vec3d& p = pos[tree.order()[k]];
      for (int a = 0; a < 3; ++a) {
        ASSERT_GE(p[a], leaf.lo[a] - 1e-12);
        ASSERT_LE(p[a], leaf.hi[a] + 1e-12);
      }
    }
  }
}

TEST_P(RcbTreeParam, SlotLeafMappingConsistent) {
  const auto [n, leaf_size] = GetParam();
  const double box = 10.0;
  const auto pos = random_positions(n, box, 45);
  RcbTree tree(pos, box, leaf_size);
  for (std::int32_t li = 0; li < static_cast<std::int32_t>(tree.leaves().size()); ++li) {
    const auto& leaf = tree.leaves()[li];
    for (std::int32_t k = leaf.begin; k < leaf.end; ++k) {
      ASSERT_EQ(tree.leaf_of_slot(k), li);
    }
  }
}

// The critical property for the short-range solvers: every particle pair
// within the cutoff must be covered by some interacting leaf pair.
class RcbPairs : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(Cutoffs, RcbPairs, ::testing::Values(0.5, 1.0, 2.0, 3.5),
                         [](const auto& info) {
                           const int milli = static_cast<int>(info.param * 1000);
                           return "cut" + std::to_string(milli);
                         });

TEST_P(RcbPairs, InteractionListCoversAllClosePairsBruteForce) {
  const double cutoff = GetParam();
  const double box = 10.0;
  const int n = 400;
  const auto pos = random_positions(n, box, 46);
  RcbTree tree(pos, box, 16);
  const auto pairs = tree.interacting_pairs(cutoff);

  std::set<std::pair<std::int32_t, std::int32_t>> listed;
  for (const auto& lp : pairs) listed.insert({lp.a, lp.b});

  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      if (min_image_dist(pos[i], pos[j], box) > cutoff) continue;
      // Find slots, then leaves.
      const auto slot_of = [&](int particle) {
        const auto& ord = tree.order();
        return static_cast<std::int32_t>(
            std::find(ord.begin(), ord.end(), particle) - ord.begin());
      };
      std::int32_t la = tree.leaf_of_slot(slot_of(i));
      std::int32_t lb = tree.leaf_of_slot(slot_of(j));
      if (la > lb) std::swap(la, lb);
      ASSERT_TRUE(listed.count({la, lb}))
          << "pair (" << i << "," << j << ") in leaves (" << la << "," << lb
          << ") missing at cutoff " << cutoff;
    }
  }
}

TEST_P(RcbPairs, ListedLeafPairsAreWithinCutoff) {
  const double cutoff = GetParam();
  const double box = 10.0;
  const auto pos = random_positions(300, box, 47);
  RcbTree tree(pos, box, 16);
  for (const auto& lp : tree.interacting_pairs(cutoff)) {
    ASSERT_LE(leaf_distance(tree, lp.a, lp.b), cutoff + 1e-12);
    ASSERT_LE(lp.a, lp.b);
  }
}

TEST(RcbPairsDedup, NoDuplicatePairs) {
  const double box = 10.0;
  const auto pos = random_positions(500, box, 48);
  RcbTree tree(pos, box, 8);
  const auto pairs = tree.interacting_pairs(2.0);
  std::set<std::pair<std::int32_t, std::int32_t>> seen;
  for (const auto& lp : pairs) {
    ASSERT_TRUE(seen.insert({lp.a, lp.b}).second)
        << "duplicate (" << lp.a << "," << lp.b << ")";
  }
}

TEST(RcbPairsPeriodic, FindsPairsAcrossBoundary) {
  // Two tight clusters on opposite faces of the box: only periodic wrap
  // brings them within the cutoff.
  const double box = 10.0;
  std::vector<Vec3d> pos;
  for (int i = 0; i < 20; ++i) {
    pos.push_back({0.1 + 0.001 * i, 5.0, 5.0});
    pos.push_back({9.9 - 0.001 * i, 5.0, 5.0});
  }
  RcbTree tree(pos, box, 8);
  bool found_cross = false;
  for (const auto& lp : tree.interacting_pairs(0.5)) {
    const auto& a = tree.leaves()[lp.a];
    const auto& b = tree.leaves()[lp.b];
    // A cross pair spans the two clusters (one near x=0, one near x=10).
    if ((a.hi.x < 1.0 && b.lo.x > 9.0) || (b.hi.x < 1.0 && a.lo.x > 9.0)) {
      found_cross = true;
    }
  }
  EXPECT_TRUE(found_cross);
}

TEST(RcbEdgeCases, CutoffBeyondHalfBoxPairsEveryLeafExactlyOnce) {
  // Under the minimum image no two AABBs are farther apart than
  // sqrt(3)/2 * box, so a cutoff of one box length must list every leaf
  // pair — each exactly once.
  const double box = 10.0;
  const auto pos = random_positions(300, box, 60);
  RcbTree tree(pos, box, 16);
  const auto pairs = tree.interacting_pairs(box);
  const std::size_t n_leaves = tree.leaves().size();
  ASSERT_GT(n_leaves, 1u);
  EXPECT_EQ(pairs.size(), n_leaves * (n_leaves + 1) / 2);
  std::set<std::pair<std::int32_t, std::int32_t>> seen;
  for (const auto& lp : pairs) {
    ASSERT_LE(lp.a, lp.b);
    ASSERT_TRUE(seen.insert({lp.a, lp.b}).second)
        << "duplicate (" << lp.a << "," << lp.b << ")";
  }
}

TEST(RcbEdgeCases, SingleLeafTree) {
  const double box = 10.0;
  const auto pos = random_positions(9, box, 61);
  RcbTree tree(pos, box, 16);
  ASSERT_EQ(tree.leaves().size(), 1u);
  EXPECT_EQ(tree.leaves()[0].count(), 9);
  for (const double cutoff : {0.0, 1.0, box}) {
    const auto pairs = tree.interacting_pairs(cutoff);
    ASSERT_EQ(pairs.size(), 1u) << "cutoff " << cutoff;
    EXPECT_EQ(pairs[0].a, 0);
    EXPECT_EQ(pairs[0].b, 0);
  }
}

TEST(RcbEdgeCases, ParticlesExactlyOnBoxBoundary) {
  // Tight clusters exactly on the lower (x = 0) and upper (x = box) faces:
  // the minimum image puts the faces at distance zero, so every leaf pair
  // is within a tiny cutoff even though the coordinates sit a box apart.
  const double box = 10.0;
  std::vector<Vec3d> pos;
  for (int i = 0; i < 12; ++i) {
    pos.push_back({0.0, 5.0 + 0.001 * i, 5.0});
    pos.push_back({box, 5.0 + 0.001 * i, 5.0});
  }
  RcbTree tree(pos, box, 8);
  const auto& leaves = tree.leaves();
  ASSERT_GT(leaves.size(), 1u);
  bool found_cross = false;
  for (std::size_t a = 0; a < leaves.size(); ++a) {
    for (std::size_t b = a + 1; b < leaves.size(); ++b) {
      if ((leaves[a].hi.x < 1.0 && leaves[b].lo.x > 9.0) ||
          (leaves[b].hi.x < 1.0 && leaves[a].lo.x > 9.0)) {
        // Cross-boundary pair: the x gap wraps to exactly zero.
        EXPECT_LT(leaf_distance(tree, static_cast<std::int32_t>(a),
                                static_cast<std::int32_t>(b)),
                  0.02);
        found_cross = true;
      }
    }
  }
  EXPECT_TRUE(found_cross);
  // Everything is mutually within a whisker under the minimum image.
  const auto pairs = tree.interacting_pairs(0.05);
  EXPECT_EQ(pairs.size(), leaves.size() * (leaves.size() + 1) / 2);
}

TEST(RcbEdgeCases, EmptyTree) {
  std::vector<Vec3d> pos;
  RcbTree tree(pos, 10.0, 16);
  EXPECT_TRUE(tree.leaves().empty());
  EXPECT_TRUE(tree.interacting_pairs(1.0).empty());
}

TEST(RcbStreaming, ForEachPairMatchesInteractingPairsInOrder) {
  const double box = 10.0;
  for (const int n : {1, 37, 500}) {
    for (const int leaf_size : {1, 8, 32}) {
      for (const double cutoff : {0.3, 1.5, box}) {
        const auto pos = random_positions(n, box, 70 + n + leaf_size);
        RcbTree tree(pos, box, leaf_size);
        const auto materialized = tree.interacting_pairs(cutoff);
        std::vector<LeafPair> streamed;
        tree.for_each_pair(cutoff,
                           [&](const LeafPair& lp) { streamed.push_back(lp); });
        ASSERT_EQ(streamed.size(), materialized.size());
        for (std::size_t k = 0; k < streamed.size(); ++k) {
          ASSERT_EQ(streamed[k].a, materialized[k].a);
          ASSERT_EQ(streamed[k].b, materialized[k].b);
        }
      }
    }
  }
}

TEST(RcbRefresh, ReboundBoxesTrackMovedParticlesAndKeepCoverageExact) {
  const double box = 10.0;
  const int n = 300;
  auto pos = random_positions(n, box, 80);
  RcbTree tree(pos, box, 16);

  // Drift every particle (with wrap), keeping the original permutation.
  util::CounterRng rng(81);
  for (int i = 0; i < n; ++i) {
    for (int a = 0; a < 3; ++a) {
      pos[i][a] += 0.4 * (rng.uniform(3 * i + a) - 0.5);
      pos[i][a] -= box * std::floor(pos[i][a] / box);
    }
  }
  tree.refresh(pos);

  // Refreshed leaf AABBs contain the moved particles...
  for (const auto& leaf : tree.leaves()) {
    for (std::int32_t k = leaf.begin; k < leaf.end; ++k) {
      const Vec3d& p = pos[tree.order()[k]];
      for (int a = 0; a < 3; ++a) {
        ASSERT_GE(p[a], leaf.lo[a] - 1e-12);
        ASSERT_LE(p[a], leaf.hi[a] + 1e-12);
      }
    }
  }
  // ...internal nodes contain their children...
  for (const auto& node : tree.nodes()) {
    if (node.is_leaf()) continue;
    for (const std::int32_t child : {node.left, node.right}) {
      for (int a = 0; a < 3; ++a) {
        ASSERT_LE(node.lo[a], tree.nodes()[child].lo[a]);
        ASSERT_GE(node.hi[a], tree.nodes()[child].hi[a]);
      }
    }
  }
  // ...and pair enumeration against the refreshed boxes stays exact: every
  // close particle pair is covered by a listed leaf pair.
  const double cutoff = 1.2;
  std::set<std::pair<std::int32_t, std::int32_t>> listed;
  for (const auto& lp : tree.interacting_pairs(cutoff)) listed.insert({lp.a, lp.b});
  const auto slot_of = [&](int particle) {
    const auto& ord = tree.order();
    return static_cast<std::int32_t>(std::find(ord.begin(), ord.end(), particle) -
                                     ord.begin());
  };
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      if (min_image_dist(pos[i], pos[j], box) > cutoff) continue;
      std::int32_t la = tree.leaf_of_slot(slot_of(i));
      std::int32_t lb = tree.leaf_of_slot(slot_of(j));
      if (la > lb) std::swap(la, lb);
      ASSERT_TRUE(listed.count({la, lb}))
          << "pair (" << i << "," << j << ") missing after refresh";
    }
  }
}

TEST(RcbRefresh, RejectsMismatchedParticleCount) {
  const auto pos = random_positions(50, 10.0, 82);
  RcbTree tree(pos, 10.0, 8);
  const auto fewer = random_positions(49, 10.0, 83);
  EXPECT_THROW(tree.refresh(fewer), std::invalid_argument);
}

// The pool constructor promises bitwise identity with the no-pool one for
// any pool size: identical topology (node indexing, leaf numbering, slot
// ranges), identical permutation, and identical AABBs — nth_element on the
// same range with the same comparator is deterministic, and the level
// barrier keeps ancestors before descendants.  Both run the one build, so
// the reference for their bits is the recorded TreeBitsSnapshot below.
// CONCURRENCY.md row: tree build.
void expect_trees_identical(const RcbTree& a, const RcbTree& b) {
  ASSERT_EQ(a.root(), b.root());
  ASSERT_EQ(a.order(), b.order());
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  for (std::size_t i = 0; i < a.nodes().size(); ++i) {
    const auto& na = a.nodes()[i];
    const auto& nb = b.nodes()[i];
    EXPECT_EQ(na.begin, nb.begin);
    EXPECT_EQ(na.end, nb.end);
    EXPECT_EQ(na.left, nb.left);
    EXPECT_EQ(na.right, nb.right);
    EXPECT_EQ(na.leaf, nb.leaf);
    for (int axis = 0; axis < 3; ++axis) {
      EXPECT_EQ(na.lo[axis], nb.lo[axis]) << "node " << i;
      EXPECT_EQ(na.hi[axis], nb.hi[axis]) << "node " << i;
    }
  }
  ASSERT_EQ(a.leaves().size(), b.leaves().size());
  for (std::size_t l = 0; l < a.leaves().size(); ++l) {
    const auto& la = a.leaves()[l];
    const auto& lb = b.leaves()[l];
    EXPECT_EQ(la.begin, lb.begin);
    EXPECT_EQ(la.end, lb.end);
    for (int axis = 0; axis < 3; ++axis) {
      EXPECT_EQ(la.lo[axis], lb.lo[axis]) << "leaf " << l;
      EXPECT_EQ(la.hi[axis], lb.hi[axis]) << "leaf " << l;
    }
  }
  for (std::int32_t k = 0; k < static_cast<std::int32_t>(a.order().size());
       ++k) {
    ASSERT_EQ(a.leaf_of_slot(k), b.leaf_of_slot(k));
  }
}

class RcbParallelBuild : public ::testing::TestWithParam<unsigned> {};

INSTANTIATE_TEST_SUITE_P(PoolSizes, RcbParallelBuild,
                         ::testing::Values(1u, 2u, 8u),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

TEST_P(RcbParallelBuild, BuildIsBitIdenticalToSerial) {
  util::ThreadPool pool(GetParam());
  for (const int n : {1, 33, 200, 1000}) {
    const auto pos = random_positions(n, 10.0, 90 + n);
    const RcbTree serial(pos, 10.0, 16);
    const RcbTree parallel(pos, 10.0, 16, pool);
    expect_trees_identical(serial, parallel);
  }
}

TEST_P(RcbParallelBuild, RefreshIsBitIdenticalToSerial) {
  util::ThreadPool pool(GetParam());
  auto pos = random_positions(500, 10.0, 77);
  RcbTree serial(pos, 10.0, 16);
  RcbTree parallel(pos, 10.0, 16, pool);
  util::CounterRng rng(123);
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < pos.size(); ++i) {
      for (int axis = 0; axis < 3; ++axis) {
        pos[i][axis] += 0.2 * (rng.uniform(3 * i + axis + 1000 * round) - 0.5);
        if (pos[i][axis] < 0.0) pos[i][axis] += 10.0;
        if (pos[i][axis] >= 10.0) pos[i][axis] -= 10.0;
      }
    }
    serial.refresh(pos);
    parallel.refresh(pos);
    expect_trees_identical(serial, parallel);
  }
}

TEST(RcbParallelBuildEdgeCases, DuplicateAndEmptyInputsMatchSerial) {
  util::ThreadPool pool(4);
  const std::vector<Vec3d> dup(100, Vec3d{5.0, 5.0, 5.0});
  expect_trees_identical(RcbTree(dup, 10.0, 8), RcbTree(dup, 10.0, 8, pool));
  const std::vector<Vec3d> none;
  expect_trees_identical(RcbTree(none, 10.0, 8), RcbTree(none, 10.0, 8, pool));
}

TEST(RcbEdgeCases, DuplicatePositionsDoNotBreakSplit) {
  std::vector<Vec3d> pos(100, Vec3d{5.0, 5.0, 5.0});
  RcbTree tree(pos, 10.0, 8);
  std::int32_t covered = 0;
  for (const auto& leaf : tree.leaves()) {
    ASSERT_LE(leaf.count(), 8);
    covered += leaf.count();
  }
  EXPECT_EQ(covered, 100);
}

// Recorded bits of the build and of refresh.  Every row hashes (FNV-1a)
// the permutation, leaf_of_slot, every Leaf and every Node field of one
// input after the build ("build") or after refresh round r ("refresh<r>");
// the no-pool constructor and the pool constructor at 1 and 4 threads must
// all reproduce each row.  This is the reference RcbParallelBuild's
// constructor comparisons rest on.
struct TreeBitsRow {
  const char* input;  // "n<count>" (random) or "dup100" (coincident)
  int leaf_size;
  const char* stage;  // "build", "refresh1", "refresh2", "refresh3"
  std::uint64_t hash;
};

constexpr TreeBitsRow kTreeBits[] = {
#include "tree_bits_snapshot.inc"
};

class Fnv1a {
 public:
  template <typename T>
  void add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (const unsigned char b : bytes) {
      h_ ^= b;
      h_ *= 1099511628211ull;
    }
  }
  void add(const Vec3d& v) {
    for (int axis = 0; axis < 3; ++axis) add(v[axis]);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

std::uint64_t tree_hash(const RcbTree& t) {
  Fnv1a h;
  h.add(t.root());
  for (const std::int32_t i : t.order()) h.add(i);
  for (std::int32_t k = 0; k < static_cast<std::int32_t>(t.order().size()); ++k) {
    h.add(t.leaf_of_slot(k));
  }
  for (const Leaf& l : t.leaves()) {
    h.add(l.begin);
    h.add(l.end);
    h.add(l.lo);
    h.add(l.hi);
  }
  for (const RcbTree::Node& n : t.nodes()) {
    h.add(n.lo);
    h.add(n.hi);
    h.add(n.begin);
    h.add(n.end);
    h.add(n.left);
    h.add(n.right);
    h.add(n.leaf);
  }
  return h.value();
}

// Measured rows in snapshot order for one constructor: `make` builds the
// tree from positions, box and leaf size.
template <typename Make>
std::vector<TreeBitsRow> measure_tree_bits(Make make) {
  const double box = 10.0;
  std::vector<TreeBitsRow> rows;
  const std::pair<const char*, int> inputs[] = {{"n0", 0},     {"n1", 1},     {"n33", 33},
                                                {"n200", 200}, {"n1000", 1000}, {"n8000", 8000},
                                                {"dup100", 100}};
  for (const auto& [input, n] : inputs) {
    for (const int leaf_size : {1, 8, 16, 32}) {
      std::vector<Vec3d> pos = std::string(input) == "dup100"
                                   ? std::vector<Vec3d>(n, Vec3d{5.0, 5.0, 5.0})
                                   : random_positions(n, box, 200 + n);
      RcbTree tree = make(pos, box, leaf_size);
      rows.push_back({input, leaf_size, "build", tree_hash(tree)});
      util::CounterRng rng(300 + n + leaf_size);
      for (int round = 1; round <= 3; ++round) {
        for (std::size_t i = 0; i < pos.size(); ++i) {
          for (int axis = 0; axis < 3; ++axis) {
            pos[i][axis] += 0.2 * (rng.uniform(3 * i + axis + 100000 * round) - 0.5);
            if (pos[i][axis] < 0.0) pos[i][axis] += box;
            if (pos[i][axis] >= box) pos[i][axis] -= box;
          }
        }
        tree.refresh(pos);
        static const char* const kStages[] = {"refresh1", "refresh2", "refresh3"};
        rows.push_back({input, leaf_size, kStages[round - 1], tree_hash(tree)});
      }
    }
  }
  return rows;
}

void expect_tree_bits(const std::vector<TreeBitsRow>& got) {
  std::ostringstream measured;
  for (const TreeBitsRow& r : got) {
    measured << "{\"" << r.input << "\", " << r.leaf_size << ", \"" << r.stage << "\", 0x"
             << std::hex << r.hash << std::dec << "ull},\n";
  }
  ASSERT_EQ(got.size(), std::size(kTreeBits)) << "measured:\n" << measured.str();
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::string(got[i].input), kTreeBits[i].input) << i;
    EXPECT_EQ(got[i].leaf_size, kTreeBits[i].leaf_size) << i;
    EXPECT_EQ(std::string(got[i].stage), kTreeBits[i].stage) << i;
    EXPECT_EQ(got[i].hash, kTreeBits[i].hash)
        << got[i].input << " leaf " << got[i].leaf_size << " " << got[i].stage
        << "; measured:\n" << measured.str();
  }
}

// Parameter: the constructor's pool size, 0 for the no-pool constructor.
class TreeBitsSnapshot : public ::testing::TestWithParam<unsigned> {};

INSTANTIATE_TEST_SUITE_P(Constructors, TreeBitsSnapshot, ::testing::Values(0u, 1u, 4u),
                         [](const auto& info) {
                           return info.param == 0 ? std::string("nopool")
                                                  : "threads" + std::to_string(info.param);
                         });

TEST_P(TreeBitsSnapshot, MatchesRecordedHashes) {
  if (GetParam() == 0) {
    expect_tree_bits(measure_tree_bits([](std::span<const Vec3d> pos, double box, int leaf) {
      return RcbTree(pos, box, leaf);
    }));
    return;
  }
  util::ThreadPool pool(GetParam());
  expect_tree_bits(measure_tree_bits([&pool](std::span<const Vec3d> pos, double box, int leaf) {
    return RcbTree(pos, box, leaf, pool);
  }));
}

}  // namespace
}  // namespace hacc::tree
