#include "tree/rcb.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace hacc::tree {

using util::Vec3d;

namespace {

// AABB of the slots [begin, end) under the tree permutation — the one loop
// the build and refresh share, so their boxes are bit-identical.  The box
// accumulates in locals, which the compiler can keep in registers (stores
// through out_lo/out_hi might alias `pos`).
void scan_aabb(std::span<const Vec3d> pos, const std::vector<std::int32_t>& order,
               std::int32_t begin, std::int32_t end, Vec3d& out_lo, Vec3d& out_hi) {
  Vec3d lo(std::numeric_limits<double>::max());
  Vec3d hi(std::numeric_limits<double>::lowest());
  for (std::int32_t k = begin; k < end; ++k) {
    const Vec3d& p = pos[order[k]];
    for (int a = 0; a < 3; ++a) {
      lo[a] = std::min(lo[a], p[a]);
      hi[a] = std::max(hi[a], p[a]);
    }
  }
  out_lo = lo;
  out_hi = hi;
}

}  // namespace

RcbTree::RcbTree(std::span<const Vec3d> pos, double box, int leaf_size)
    : RcbTree(pos, box, leaf_size, nullptr) {}

RcbTree::RcbTree(std::span<const Vec3d> pos, double box, int leaf_size,
                 util::ThreadPool& pool)
    : RcbTree(pos, box, leaf_size, &pool) {}

RcbTree::RcbTree(std::span<const Vec3d> pos, double box, int leaf_size,
                 util::ThreadPool* pool)
    : box_(box), leaf_size_(std::max(1, leaf_size)), pool_(pool) {
  order_.resize(pos.size());
  std::iota(order_.begin(), order_.end(), 0);
  slot_leaf_.resize(pos.size());
  if (pos.empty()) return;
  root_ = build_topology(0, static_cast<std::int32_t>(pos.size()), 0);
  fill_levels(pos);
}

std::int32_t RcbTree::build_topology(std::int32_t begin, std::int32_t end, int depth) {
  // Pre-order node numbering, leaves numbered in slot order, children
  // pushed after their parent.  No positions are read — the split point is
  // always the median slot.
  Node node;
  node.begin = begin;
  node.end = end;
  const std::int32_t self = static_cast<std::int32_t>(nodes_.size());
  if (levels_.size() <= static_cast<std::size_t>(depth)) levels_.resize(depth + 1);
  levels_[depth].push_back(self);
  if (end - begin <= leaf_size_) {
    Leaf leaf;
    leaf.begin = begin;
    leaf.end = end;
    node.leaf = static_cast<std::int32_t>(leaves_.size());
    leaves_.push_back(leaf);
    leaf_nodes_.push_back(self);
    for (std::int32_t k = begin; k < end; ++k) slot_leaf_[k] = node.leaf;
    nodes_.push_back(node);
    return self;
  }
  nodes_.push_back(node);
  const std::int32_t mid = begin + (end - begin) / 2;
  const std::int32_t left = build_topology(begin, mid, depth + 1);
  const std::int32_t right = build_topology(mid, end, depth + 1);
  nodes_[self].left = left;
  nodes_[self].right = right;
  return self;
}

void RcbTree::fill_levels(std::span<const Vec3d> pos) {
  // A node's AABB scan and nth_element need its slot range's content
  // finalized, which happens exactly when every ancestor's nth_element has
  // run.  Siblings own disjoint slot ranges, so any schedule that runs
  // ancestors first gives every node the same data and, through the same
  // deterministic code, the same bits.
  const auto split = [&](std::int32_t n) {
    Node& node = nodes_[n];
    scan_aabb(pos, order_, node.begin, node.end, node.lo, node.hi);
    if (node.is_leaf()) {
      leaves_[node.leaf].lo = node.lo;
      leaves_[node.leaf].hi = node.hi;
      return;
    }
    // Split along the longest axis at the median slot (strict >: ties pick
    // the lowest axis).
    int axis = 0;
    double extent = node.hi[0] - node.lo[0];
    for (int a = 1; a < 3; ++a) {
      if (node.hi[a] - node.lo[a] > extent) {
        extent = node.hi[a] - node.lo[a];
        axis = a;
      }
    }
    const std::int32_t mid = node.begin + (node.end - node.begin) / 2;
    std::nth_element(order_.begin() + node.begin, order_.begin() + mid,
                     order_.begin() + node.end, [&](std::int32_t i, std::int32_t j) {
                       return pos[i][axis] < pos[j][axis];
                     });
  };
  if (pool_ == nullptr) {
    // Pre-order (index order) puts ancestors first and splits each range
    // while it is still cache-hot from its parent's split.
    for (std::int32_t n = 0; n < static_cast<std::int32_t>(nodes_.size()); ++n) split(n);
    return;
  }
  // Top-down level sweep: parallel_for's barrier finishes every shallower
  // level first.
  for (const auto& level : levels_) {
    // shared: nodes_/leaves_/order_ — each iteration owns one node: its own
    // nodes_/leaves_ entries and a slot range disjoint from every other
    // node's on this level.
    pool_->parallel_for(static_cast<std::int64_t>(level.size()), [&](std::int64_t li) {
      split(level[static_cast<std::size_t>(li)]);
    });
  }
}

void RcbTree::refresh(std::span<const Vec3d> pos) {
  if (pos.size() != order_.size()) {
    throw std::invalid_argument(
        "RcbTree::refresh(): position count does not match the particle "
        "count the tree was built from");
  }
  // Leaf AABBs only depend on the (fixed) permutation and the positions, so
  // the per-leaf scans are independent and bit-identical for any thread
  // count.
  const auto scan_leaf = [&](std::int64_t li) {
    Node& n = nodes_[leaf_nodes_[static_cast<std::size_t>(li)]];
    scan_aabb(pos, order_, n.begin, n.end, n.lo, n.hi);
    leaves_[n.leaf].lo = n.lo;
    leaves_[n.leaf].hi = n.hi;
  };
  const auto n_leaves = static_cast<std::int64_t>(leaf_nodes_.size());
  if (pool_ != nullptr) {
    // shared: nodes_/leaves_ — each iteration owns one leaf's AABB entries;
    // the upward merge below starts after the pool barrier.
    pool_->parallel_for(n_leaves, scan_leaf);
  } else {
    for (std::int64_t li = 0; li < n_leaves; ++li) scan_leaf(li);
  }
  // Children carry larger indices than their parents, so a reverse-index
  // sweep sees both children before every internal node.
  for (std::int32_t i = static_cast<std::int32_t>(nodes_.size()) - 1; i >= 0; --i) {
    Node& n = nodes_[i];
    if (n.is_leaf()) continue;
    const Node& l = nodes_[n.left];
    const Node& r = nodes_[n.right];
    for (int a = 0; a < 3; ++a) {
      n.lo[a] = std::min(l.lo[a], r.lo[a]);
      n.hi[a] = std::max(l.hi[a], r.hi[a]);
    }
  }
}

double RcbTree::node_distance(const Node& a, const Node& b) const {
  double d2 = 0.0;
  for (int axis = 0; axis < 3; ++axis) {
    // Minimum-image gap between intervals [a.lo, a.hi] and [b.lo, b.hi].
    double best = std::numeric_limits<double>::max();
    for (const double shift : {-box_, 0.0, box_}) {
      const double blo = b.lo[axis] + shift;
      const double bhi = b.hi[axis] + shift;
      double gap = 0.0;
      if (blo > a.hi[axis]) {
        gap = blo - a.hi[axis];
      } else if (a.lo[axis] > bhi) {
        gap = a.lo[axis] - bhi;
      }
      best = std::min(best, gap);
    }
    d2 += best * best;
  }
  return std::sqrt(d2);
}

std::vector<LeafPair> RcbTree::interacting_pairs(double cutoff) const {
  std::vector<LeafPair> pairs;
  for_each_pair(cutoff, [&pairs](const LeafPair& lp) {
    assert(lp.a <= lp.b);
    pairs.push_back(lp);
  });
#ifndef NDEBUG
  // The recursion partitions leaf pairs by their deepest common ancestor, so
  // every unordered pair is visited exactly once and the list is duplicate-
  // free without the historical sort + std::unique pass.
  std::vector<LeafPair> sorted = pairs;
  std::sort(sorted.begin(), sorted.end(), [](const LeafPair& x, const LeafPair& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });
  assert(std::adjacent_find(sorted.begin(), sorted.end(),
                            [](const LeafPair& x, const LeafPair& y) {
                              return x.a == y.a && x.b == y.b;
                            }) == sorted.end());
#endif
  return pairs;
}

}  // namespace hacc::tree
