#include "fmm/fmm.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/trace.hpp"
#include "util/periodic.hpp"

namespace hacc::fmm {

using tree::RcbTree;
using util::Vec3d;

FmmEvaluator::FmmEvaluator(const RcbTree& tree, std::span<const Vec3d> pos,
                           std::span<const double> mass, util::ThreadPool& pool)
    : tree_(&tree), pool_(&pool) {
  const obs::TraceSpan span("fmm.upward");
  const auto& nodes = tree.nodes();
  const auto& order = tree.order();
  multipoles_.resize(nodes.size());

  // P2M over the leaf nodes in parallel (each leaf owns a disjoint slot
  // range), then M2M bottom-up: children always carry larger indices than
  // their parent, so a reverse index scan sees them first.
  std::vector<std::int32_t> leaf_nodes;
  for (std::int32_t n = 0; n < static_cast<std::int32_t>(nodes.size()); ++n) {
    if (nodes[n].is_leaf()) leaf_nodes.push_back(n);
  }
  // shared: multipoles_ (one slot per leaf node index).
  pool.parallel_for(static_cast<std::int64_t>(leaf_nodes.size()), [&](std::int64_t k) {
    const RcbTree::Node& node = nodes[leaf_nodes[k]];
    Multipole mp;
    for (std::int32_t s = node.begin; s < node.end; ++s) {
      const std::int32_t i = order[s];
      mp.mass += mass[i];
      mp.com += mass[i] * pos[i];
    }
    if (mp.mass > 0.0) mp.com /= mp.mass;
    for (std::int32_t s = node.begin; s < node.end; ++s) {
      const std::int32_t i = order[s];
      mp.m2 += util::Sym3d::outer(pos[i] - mp.com) * mass[i];
    }
    multipoles_[leaf_nodes[k]] = mp;
  });

  // M2M level-parallel, deepest level first.  Depths come from a forward
  // scan (children carry larger indices than their parent, so the parent's
  // depth is always set first).  A node's multipole depends only on its two
  // children's — complete once all deeper levels are done — and the l-then-r
  // accumulation order is fixed, so the result is bit-identical to the
  // serial reverse-index sweep for any thread count.
  std::vector<int> depth(nodes.size(), 0);
  int max_depth = 0;
  for (std::int32_t n = 0; n < static_cast<std::int32_t>(nodes.size()); ++n) {
    if (nodes[n].is_leaf()) continue;
    depth[nodes[n].left] = depth[n] + 1;
    depth[nodes[n].right] = depth[n] + 1;
    max_depth = std::max(max_depth, depth[n] + 1);
  }
  std::vector<std::vector<std::int32_t>> levels(max_depth + 1);
  for (std::int32_t n = 0; n < static_cast<std::int32_t>(nodes.size()); ++n) {
    if (!nodes[n].is_leaf()) levels[depth[n]].push_back(n);
  }
  for (std::int32_t d = max_depth; d >= 0; --d) {
    const auto& level = levels[d];
    // shared: multipoles_ — each iteration owns one internal node's slot and
    // only reads children finalized by deeper levels.
    pool.parallel_for(static_cast<std::int64_t>(level.size()), [&](std::int64_t k) {
      const std::int32_t n = level[static_cast<std::size_t>(k)];
      const Multipole& l = multipoles_[nodes[n].left];
      const Multipole& r = multipoles_[nodes[n].right];
      Multipole mp;
      mp.com = combined_com(l, r);
      m2m_accumulate(mp, l);
      m2m_accumulate(mp, r);
      multipoles_[n] = mp;
    });
  }
}

namespace {

// poly(u) = sum c_i u^i and its first two derivatives, in double (the
// kernels evaluate the float path; here the quadrupole terms benefit from
// the extra precision at no measurable cost).
double poly_d0(const std::vector<double>& c, double u) {
  double acc = 0.0;
  for (int i = static_cast<int>(c.size()) - 1; i >= 0; --i) {
    acc = acc * u + c[i];
  }
  return acc;
}

double poly_d1(const std::vector<double>& c, double u) {
  double acc = 0.0;
  for (int i = static_cast<int>(c.size()) - 1; i >= 1; --i) {
    acc = acc * u + i * c[i];
  }
  return acc;
}

double poly_d2(const std::vector<double>& c, double u) {
  double acc = 0.0;
  for (int i = static_cast<int>(c.size()) - 1; i >= 2; --i) {
    acc = acc * u + i * (i - 1) * c[i];
  }
  return acc;
}

// Quadrupole-order M2P for the truncated short-range law
//   F = sum_j m_j g(r_j) d_j,   g(r) = -(newton(r) - poly(r^2)),
// using the general radial-kernel expansion (see multipole.hpp):
//   F ~= M g v + A (M2 v) + (A tr M2 / 2) v + (B v.M2.v / 2) v
// with, for this g (u = r^2, softened s = u + eps^2):
//   A = g'/r          = 3 s^{-5/2} + 2 poly'(u)
//   B = (g''- g'/r)/r^2 = -15 s^{-7/2} + 4 poly''(u)
// Evaluating newton and poly to matching order preserves their
// cancellation, which a quadrupole-Newton + monopole-poly mix would break.
util::Vec3d m2p_profile(const Multipole& mp, const util::Vec3d& d, double r2,
                        double eps2, const gravity::PolyShortForce& poly) {
  const auto& c = poly.coefficients();
  const double s = r2 + eps2;
  const double inv_s = 1.0 / s;
  const double s32 = inv_s / std::sqrt(s);       // s^{-3/2}
  const double s52 = s32 * inv_s;                // s^{-5/2}
  const double g = -(s32 - poly_d0(c, r2));
  const double A = 3.0 * s52 + 2.0 * poly_d1(c, r2);
  const double B = -15.0 * s52 * inv_s + 4.0 * poly_d2(c, r2);
  const util::Vec3d m2d = mp.m2 * d;
  const double tr = mp.m2.xx + mp.m2.yy + mp.m2.zz;
  return (mp.mass * g + 0.5 * A * tr + 0.5 * B * dot(d, m2d)) * d + A * m2d;
}

// Dual-tree MAC traversal state.  Mirrors RcbTree::dual_walk: each recursion
// step descends exactly one node, so every unordered node pair is visited at
// most once and the near list is canonical and duplicate-free.
struct MacWalker {
  const RcbTree& tree;
  double theta;
  double r_cut;
  InteractionLists& out;
  std::vector<std::vector<std::int32_t>>& far_per_leaf;

  static double diag(const RcbTree::Node& n) { return norm(n.hi - n.lo); }

  // The minimum-image force law is discontinuous where a displacement
  // component crosses half a box: the partner's nearest image flips sides.
  // A smooth multipole expansion cannot represent that flip, so any node
  // pair whose per-axis displacement interval straddles +-box/2 must keep
  // descending — unresolved leaf pairs land in the near field, whose
  // particle-particle kernel applies the minimum image exactly.
  bool wrap_ambiguous(const RcbTree::Node& a, const RcbTree::Node& b) const {
    const double half = 0.5 * tree.box();
    for (int axis = 0; axis < 3; ++axis) {
      const double dlo = a.lo[axis] - b.hi[axis];  // interval of (a - b)
      const double dhi = a.hi[axis] - b.lo[axis];  // components, in [-box, box]
      if ((dlo <= half && half <= dhi) || (dlo <= -half && -half <= dhi)) {
        return true;
      }
    }
    return false;
  }

  // Appends `source` to the far list of every leaf under `target`.  Leaves
  // partition the slots in leaf-index order, so the covered leaves form the
  // contiguous range [leaf_of_slot(begin), leaf_of_slot(end - 1)].
  void add_far(std::int32_t target, std::int32_t source) {
    const RcbTree::Node& t = tree.nodes()[target];
    const std::int32_t first = tree.leaf_of_slot(t.begin);
    const std::int32_t last = tree.leaf_of_slot(t.end - 1);
    for (std::int32_t leaf = first; leaf <= last; ++leaf) {
      far_per_leaf[leaf].push_back(source);
    }
  }

  void walk(std::int32_t ia, std::int32_t ib) {
    const RcbTree::Node& a = tree.nodes()[ia];
    const RcbTree::Node& b = tree.nodes()[ib];
    const double gap = tree.node_distance(ia, ib);
    if (gap > r_cut) return;  // the mesh owns this range (TreePM split)
    // Far acceptance additionally requires the pair to sit entirely inside
    // the cutoff sphere (gap + diagonals bounds the largest pair distance):
    // straddlers descend so the exact per-particle cutoff of the near-field
    // kernel decides, instead of an all-or-nothing test at the com.
    if (ia != ib && std::max(diag(a), diag(b)) < theta * gap &&
        gap + diag(a) + diag(b) <= r_cut && !wrap_ambiguous(a, b)) {
      add_far(ia, ib);
      add_far(ib, ia);
      return;
    }
    const bool a_is_leaf = a.is_leaf();
    const bool b_is_leaf = b.is_leaf();
    if (a_is_leaf && b_is_leaf) {
      assert(a.leaf <= b.leaf);
      out.near.push_back({a.leaf, b.leaf});
      return;
    }
    if (ia == ib) {
      walk(a.left, a.left);
      walk(a.right, a.right);
      walk(a.left, a.right);
      return;
    }
    const auto span_of = [](const RcbTree::Node& n) {
      return (n.hi.x - n.lo.x) + (n.hi.y - n.lo.y) + (n.hi.z - n.lo.z);
    };
    if (b_is_leaf || (!a_is_leaf && span_of(a) >= span_of(b))) {
      walk(a.left, ib);
      walk(a.right, ib);
    } else {
      walk(ia, b.left);
      walk(ia, b.right);
    }
  }
};

}  // namespace

InteractionLists FmmEvaluator::build_interactions(double theta, double r_cut) const {
  const obs::TraceSpan span("fmm.interactions");
  InteractionLists lists;
  const std::size_t n_leaves = tree_->leaves().size();
  lists.far_offsets.assign(n_leaves + 1, 0);
  if (tree_->root() < 0) return lists;

  std::vector<std::vector<std::int32_t>> far_per_leaf(n_leaves);
  MacWalker walker{*tree_, theta, r_cut, lists, far_per_leaf};
  walker.walk(tree_->root(), tree_->root());

  for (std::size_t leaf = 0; leaf < n_leaves; ++leaf) {
    lists.far_offsets[leaf + 1] =
        lists.far_offsets[leaf] + static_cast<std::int64_t>(far_per_leaf[leaf].size());
  }
  lists.far_nodes.reserve(static_cast<std::size_t>(lists.far_offsets[n_leaves]));
  for (const auto& sources : far_per_leaf) {
    lists.far_nodes.insert(lists.far_nodes.end(), sources.begin(), sources.end());
  }
  return lists;
}

FarFieldStats FmmEvaluator::evaluate_far(const InteractionLists& lists,
                                         const gravity::GravityArrays& arrays,
                                         const FarOptions& opt,
                                         xsycl::OpCounters* ops) const {
  const obs::TraceSpan span("fmm.far");
  const auto& leaves = tree_->leaves();
  const auto& order = tree_->order();
  const double box = opt.box;
  const double eps2 = opt.softening * opt.softening;
  // Truncated force law (TreePM): zero beyond r_cut like the PP kernel —
  // also the polynomial fit is only valid on [0, r_cut] and diverges past it.
  const double rcut2 = opt.poly != nullptr
                           ? opt.poly->r_cut() * opt.poly->r_cut()
                           : std::numeric_limits<double>::infinity();
  std::atomic<std::uint64_t> m2p_total{0};

  // shared: arrays.ax/ay/az (leaves own disjoint slot ranges), m2p_total
  // (relaxed atomic tally).
  pool_->parallel_for(static_cast<std::int64_t>(leaves.size()), [&](std::int64_t li) {
    const std::int64_t s_begin = lists.far_offsets[li];
    const std::int64_t s_end = lists.far_offsets[li + 1];
    if (s_begin == s_end) return;
    const tree::Leaf& leaf = leaves[li];
    std::uint64_t count = 0;
    for (std::int32_t k = leaf.begin; k < leaf.end; ++k) {
      const std::int32_t i = order[k];
      const Vec3d p{arrays.x[i], arrays.y[i], arrays.z[i]};
      Vec3d acc;
      for (std::int64_t s = s_begin; s < s_end; ++s) {
        const Multipole& mp = multipoles_[lists.far_nodes[s]];
        const Vec3d d = util::min_image(p - mp.com, box);
        const double r2 = norm2(d);
        if (r2 >= rcut2) continue;
        if (opt.poly == nullptr) {
          acc += m2p(mp, d, eps2);
        } else {
          acc += m2p_profile(mp, d, r2, eps2, *opt.poly);
        }
      }
      count += static_cast<std::uint64_t>(s_end - s_begin);
      arrays.ax[i] += static_cast<float>(opt.G * acc.x);
      arrays.ay[i] += static_cast<float>(opt.G * acc.y);
      arrays.az[i] += static_cast<float>(opt.G * acc.z);
    }
    m2p_total.fetch_add(count, std::memory_order_relaxed);
  });

  FarFieldStats stats;
  stats.m2p_ops = m2p_total.load();
  if (ops != nullptr) ops->m2p_ops += stats.m2p_ops;
  return stats;
}

}  // namespace hacc::fmm
