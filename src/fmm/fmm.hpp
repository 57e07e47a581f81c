#pragma once

// Tree-multipole far-field gravity (Barnes–Hut/FMM style) over the RCB
// domain tree.  An upward pass builds monopole+quadrupole expansions for
// every RcbTree node (P2M at the tree's leaf nodes, M2M up its levels); the
// tree's one dual-tree walk (RcbTree::walk_pairs), given an opening-angle
// far acceptance, then splits the interaction set into
//   - a near-field list of canonical leaf pairs, evaluated by the existing
//     half-warp particle-particle machinery (gravity::run_pp_short), and
//   - a far-field list of (leaf, source node) multipole interactions,
//     evaluated by M2P kernels parallelized over leaves on util::ThreadPool.
// Periodic boundaries use the same minimum-image convention as RcbTree.
//
// With r_cut = infinity and a zero polynomial profile this is a standalone
// O(N log N) gravity solver; with a finite r_cut and the PM-compensating
// PolyShortForce it accelerates the short-range sum of a TreePM split.

#include <cstdint>
#include <span>
#include <vector>

#include "fmm/multipole.hpp"
#include "gravity/pp_short.hpp"
#include "tree/rcb.hpp"
#include "util/thread_pool.hpp"
#include "util/vec3.hpp"
#include "xsycl/op_counters.hpp"

namespace hacc::fmm {

// Near/far split produced by the MAC traversal.  Far interactions are
// stored per target leaf (CSR layout) so the evaluation parallelizes over
// leaves without write conflicts: leaves partition the tree slots.
struct InteractionLists {
  std::vector<tree::LeafPair> near;        // canonical a <= b, duplicate-free
  std::vector<std::int64_t> far_offsets;   // size n_leaves + 1
  std::vector<std::int32_t> far_nodes;     // source node ids, grouped by leaf

  std::uint64_t far_entries() const { return far_nodes.size(); }
};

struct FarOptions {
  double box = 1.0;
  double G = 1.0;
  double softening = 0.0;                       // Plummer softening length
  const gravity::PolyShortForce* poly = nullptr;  // subtract grid profile (TreePM)
};

struct FarFieldStats {
  std::uint64_t m2p_ops = 0;  // particle-multipole evaluations performed
};

class FmmEvaluator {
 public:
  // Builds the multipole expansion of every tree node.  pos/mass are in the
  // original particle order (the tree's permutation is applied internally).
  FmmEvaluator(const tree::RcbTree& tree, std::span<const util::Vec3d> pos,
               std::span<const double> mass, util::ThreadPool& pool);

  const std::vector<Multipole>& multipoles() const { return multipoles_; }

  // The tree's dual-tree walk (RcbTree::walk_pairs) with a MAC far
  // acceptance.  A node pair is deferred to the far field when
  // max(diag_a, diag_b) < theta * gap(a, b) AND its displacement interval
  // stays clear of the +-box/2 minimum-image discontinuity (a smooth
  // expansion cannot represent the image flip; such pairs keep descending
  // and bottom out in the exact near field).  Pairs farther apart than
  // r_cut are dropped entirely (the mesh owns them in a TreePM split).
  // theta = 0 reproduces RcbTree::interacting_pairs(r_cut) with an empty
  // far field.
  InteractionLists build_interactions(double theta, double r_cut) const;

  // Accumulates the far-field accelerations into arrays.ax/ay/az (original
  // particle order, like run_pp_short).  Evaluates G * M2P minus, when
  // opt.poly is set, the monopole grid-profile compensation G*M*poly(r^2)*d
  // so near and far fields sum to the same short-range force law.
  FarFieldStats evaluate_far(const InteractionLists& lists,
                             const gravity::GravityArrays& arrays,
                             const FarOptions& opt,
                             xsycl::OpCounters* ops = nullptr) const;

 private:
  const tree::RcbTree* tree_;
  util::ThreadPool* pool_;
  std::vector<Multipole> multipoles_;  // indexed like tree.nodes()
};

}  // namespace hacc::fmm
