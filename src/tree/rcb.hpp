#pragma once

// Recursive Coordinate Bisection tree (HACC's data structure for the
// short-range solvers, §3.1).  Particles are recursively split along the
// longest axis at the median until leaves hold at most leaf_size particles;
// the resulting permutation groups each leaf contiguously, which is what
// the half-warp algorithm's leaf-pair tiles consume.
//
// Periodic boundaries are handled with minimum-image distances between
// leaf bounding boxes when enumerating interacting leaf pairs.
//
// There is one build: a topology pass numbers every node and leaf from the
// range sizes alone, then one per-node body runs each node's AABB scan and
// median split, ancestors first.  Construction optionally takes a
// util::ThreadPool and then runs the nodes level by level in parallel;
// without one the body runs inline in node-index (pre-)order.  The result
// is bit-identical for ANY thread count: the topology never reads
// positions, every node's AABB scan and nth_element see exactly their slot
// range's content (ancestors complete before descendants; siblings own
// disjoint ranges), and nth_element is deterministic for a fixed input.

#include <cstdint>
#include <span>
#include <vector>

#include "util/vec3.hpp"

namespace hacc::util {
class ThreadPool;
}  // namespace hacc::util

namespace hacc::tree {

struct Leaf {
  std::int32_t begin = 0;  // first index into the tree's particle order
  std::int32_t end = 0;    // one past the last index
  util::Vec3d lo;          // axis-aligned bounding box
  util::Vec3d hi;

  std::int32_t count() const { return end - begin; }
};

struct LeafPair {
  std::int32_t a = 0;  // leaf indices; a <= b, with a == b for self pairs
  std::int32_t b = 0;
};

class RcbTree {
 public:
  // Internal binary-tree node.  Children were built after their parent, so a
  // node's index is always smaller than its children's — iterating nodes()
  // in reverse index order visits children before parents (the order an
  // upward multipole pass needs).  Each node covers the contiguous tree-slot
  // range [begin, end); leaves partition the slots in leaf-index order, so
  // the leaves under a node are exactly leaf_of_slot(begin) ...
  // leaf_of_slot(end - 1).
  struct Node {
    util::Vec3d lo, hi;                  // axis-aligned bounding box
    std::int32_t begin = 0, end = 0;     // covered tree-slot range
    std::int32_t left = -1, right = -1;  // children; -1 for leaf nodes
    std::int32_t leaf = -1;              // leaf index when a leaf node

    bool is_leaf() const { return leaf >= 0; }
    std::int32_t count() const { return end - begin; }
  };

  // Builds from positions in [0, box)^3.  leaf_size bounds leaf occupancy.
  RcbTree(std::span<const util::Vec3d> pos, double box, int leaf_size);

  // The same build with each level's nodes run on `pool`; bit-identical to
  // the no-pool constructor for any thread count (see file comment).  The
  // pool is remembered and reused by refresh() for the per-leaf AABB pass;
  // it must outlive the tree.
  RcbTree(std::span<const util::Vec3d> pos, double box, int leaf_size,
          util::ThreadPool& pool);

  double box() const { return box_; }
  int leaf_size() const { return leaf_size_; }

  // Permutation: order()[k] is the original particle index at tree slot k.
  const std::vector<std::int32_t>& order() const { return order_; }
  const std::vector<Leaf>& leaves() const { return leaves_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  std::int32_t root() const { return root_; }  // -1 for an empty tree

  // Node index of each leaf, in leaf order.
  const std::vector<std::int32_t>& leaf_nodes() const { return leaf_nodes_; }
  // Node indices by depth (levels()[0] holds the root), in index order
  // within a level: the schedule of the build's sweep and of a level-
  // parallel upward pass (deepest level first).
  const std::vector<std::vector<std::int32_t>>& levels() const { return levels_; }

  // Leaf index containing tree slot k.
  std::int32_t leaf_of_slot(std::int32_t k) const { return slot_leaf_[k]; }

  // Re-bins moved positions into the existing leaves: keeps the permutation
  // and topology, recomputes every leaf AABB from the current positions and
  // propagates the boxes up the internal nodes.  Pair enumeration against
  // the refreshed boxes stays exact for the drifted positions — the basis of
  // the Verlet-skin reuse in domain::InteractionDomain.  `pos` must be the
  // same particles (same count, same indexing) the tree was built from;
  // throws std::invalid_argument on a count mismatch.
  void refresh(std::span<const util::Vec3d> pos);

  // Streamed dual-tree traversal: invokes `visit(LeafPair)` for every leaf
  // pair whose bounding boxes come within `cutoff` of each other under the
  // minimum-image convention (self pairs included).  Pairs are canonical
  // (a <= b) and duplicate-free by construction — the recursion partitions
  // leaf pairs by their deepest common ancestor — and are emitted in
  // traversal order.  This is the hot-path API; interacting_pairs() is the
  // materializing form kept for tests and tools.
  template <typename Visitor>
  void for_each_pair(double cutoff, Visitor&& visit) const {
    walk_pairs(cutoff, [](std::int32_t, std::int32_t, double) { return false; }, visit);
  }

  // The dual-tree walk behind for_each_pair, with far acceptance: a node
  // pair within `cutoff` of distinct nodes ia != ib is offered to
  // `accept_far(ia, ib, gap)` (gap = node_distance(ia, ib)) before the walk
  // descends it; returning true prunes the pair, which the caller then owns
  // as a whole (the FMM's multipole far field).  Every other pair within
  // `cutoff` descends to leaf pairs, which reach `visit(LeafPair)`.  Each
  // recursion step descends one node, so every unordered node pair is
  // offered at most once.
  template <typename AcceptFar, typename Visitor>
  void walk_pairs(double cutoff, AcceptFar&& accept_far, Visitor&& visit) const {
    if (root_ < 0) return;
    walk_pairs(root_, root_, cutoff, accept_far, visit);
  }

  // All interacting leaf pairs, materialized in traversal order.
  std::vector<LeafPair> interacting_pairs(double cutoff) const;

  // Minimum-image distance between two node AABBs (0 when overlapping).
  double node_distance(std::int32_t a, std::int32_t b) const {
    return node_distance(nodes_[a], nodes_[b]);
  }

 private:
  RcbTree(std::span<const util::Vec3d> pos, double box, int leaf_size,
          util::ThreadPool* pool);

  // Build phase 0: allocate every node/leaf with its index (pre-order),
  // slot range and leaf number — topology depends only on range sizes,
  // never on the positions — and file each node under its depth.
  std::int32_t build_topology(std::int32_t begin, std::int32_t end, int depth);
  // Build phase 1: every node's AABB scan and median split, ancestors
  // first: level by level on the pool, or in index order without one.
  void fill_levels(std::span<const util::Vec3d> pos);
  double node_distance(const Node& a, const Node& b) const;

  template <typename AcceptFar, typename Visitor>
  void walk_pairs(std::int32_t ia, std::int32_t ib, double cutoff,
                  AcceptFar& accept_far, Visitor& visit) const {
    const Node& a = nodes_[ia];
    const Node& b = nodes_[ib];
    const double gap = node_distance(a, b);
    if (gap > cutoff) return;
    if (ia != ib && accept_far(ia, ib, gap)) return;
    const bool a_is_leaf = a.leaf >= 0;
    const bool b_is_leaf = b.leaf >= 0;
    if (a_is_leaf && b_is_leaf) {
      // Leaves are numbered in slot order and the walk only ever pairs an
      // earlier subtree's node on the left, so the pair is already canonical.
      visit(LeafPair{a.leaf, b.leaf});
      return;
    }
    // Descend the larger (non-leaf) node; for self pairs descend both sides.
    if (ia == ib) {
      walk_pairs(a.left, a.left, cutoff, accept_far, visit);
      walk_pairs(a.right, a.right, cutoff, accept_far, visit);
      walk_pairs(a.left, a.right, cutoff, accept_far, visit);
      return;
    }
    const auto span_of = [](const Node& n) {
      return (n.hi.x - n.lo.x) + (n.hi.y - n.lo.y) + (n.hi.z - n.lo.z);
    };
    if (b_is_leaf || (!a_is_leaf && span_of(a) >= span_of(b))) {
      walk_pairs(a.left, ib, cutoff, accept_far, visit);
      walk_pairs(a.right, ib, cutoff, accept_far, visit);
    } else {
      walk_pairs(ia, b.left, cutoff, accept_far, visit);
      walk_pairs(ia, b.right, cutoff, accept_far, visit);
    }
  }

  double box_;
  int leaf_size_;
  util::ThreadPool* pool_ = nullptr;  // optional; set by the pool ctor
  std::vector<std::int32_t> order_;
  std::vector<Leaf> leaves_;
  std::vector<std::int32_t> slot_leaf_;
  std::vector<Node> nodes_;
  std::vector<std::int32_t> leaf_nodes_;  // node index of each leaf
  std::vector<std::vector<std::int32_t>> levels_;  // node indices by depth
  std::int32_t root_ = -1;
};

}  // namespace hacc::tree
