#pragma once

/// \file
/// The interaction-domain subsystem: single owner of all neighbor machinery
/// on the force hot path.  One `InteractionDomain` performs at most ONE tree
/// build per force evaluation over the combined (dark matter + baryon)
/// particle gather, exposes species-filtered views of that shared tree so
/// the five SPH kernels and the short-range gravity kernel consume the same
/// spatial decomposition, and supports Verlet-skin reuse across force
/// evaluations: with `rebuild = displacement` the tree (and its gather
/// permutation) is kept while no particle has drifted more than `skin / 2`
/// since the last build — drifted positions are simply re-binned into the
/// existing leaves by refreshing every AABB, which keeps pair enumeration
/// (and therefore forces) exact.
///
/// Pair enumeration is a streamed visitor walk: `PairSource` feeds kernel
/// launches in leaf-pair batches straight out of it, so a single-consumer
/// hot path (short-range gravity) materializes nothing.  Multi-consumer
/// paths (the five SPH kernels) instead collect ONE walk into a reusable
/// scratch rather than re-traversing per kernel — see Solver::compute_forces.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "tree/rcb.hpp"
#include "util/enum_names.hpp"
#include "util/vec3.hpp"

namespace hacc::util {
class ThreadPool;
}  // namespace hacc::util

namespace hacc::domain {

/// When the shared tree is rebuilt:
///   - `kAlways`       — a fresh tree per force evaluation (the historical
///                       behavior; the safe default).
///   - `kDisplacement` — classic Verlet-skin reuse: rebuild only when the
///                       max minimum-image drift since the last build
///                       exceeds `skin / 2`; otherwise re-bin in place.
enum class RebuildPolicy { kAlways, kDisplacement };

/// The config-key spellings of a policy (util/enum_names.hpp).
inline std::span<const util::EnumName<RebuildPolicy>> enum_names(RebuildPolicy) {
  static constexpr util::EnumName<RebuildPolicy> kNames[] = {
      {RebuildPolicy::kAlways, {"always"}}, {RebuildPolicy::kDisplacement, {"displacement"}}};
  return kNames;
}
inline const char* to_string(RebuildPolicy policy) { return util::enum_name(policy); }

/// Construction knobs.  Validated loudly: the constructor throws
/// std::invalid_argument on box <= 0, leaf_size < 1, or skin < 0.
struct DomainOptions {
  double box = 1.0;    ///< periodic box (code length units)
  int leaf_size = 32;  ///< RCB leaf capacity
  double skin = 0.0;   ///< Verlet skin; reuse while max drift <= skin / 2
  RebuildPolicy rebuild = RebuildPolicy::kAlways;
  /// When set, tree builds/refreshes run level-parallel on this pool
  /// (bit-identical to the no-pool path for any thread count — see
  /// tree/rcb.hpp).  Must outlive the domain.
  util::ThreadPool* pool = nullptr;
};

/// Lifetime counters, exposed so solvers can report per-step tree work.
struct DomainStats {
  std::uint64_t builds = 0;    ///< full tree (re)builds
  std::uint64_t reuses = 0;    ///< refresh-only updates (Verlet reuse)
  double last_max_drift = 0.0; ///< max drift measured at the last update
};

/// A species-filtered window onto the shared tree: per-leaf slot sub-ranges
/// plus the slot -> species-local particle index permutation.  These are
/// exactly the two arrays the half-warp pair kernels consume, so a view (not
/// a tree) is what every kernel runner takes.  Implicitly constructible from
/// a bare RcbTree for the single-species / tooling paths.
struct SpeciesView {
  const tree::Leaf* leaves = nullptr;
  const std::int32_t* order = nullptr;
  std::size_t n_leaves = 0;

  SpeciesView() = default;
  SpeciesView(const tree::Leaf* l, const std::int32_t* o, std::size_t n)
      : leaves(l), order(o), n_leaves(n) {}
  // NOLINTNEXTLINE(google-explicit-constructor): whole-tree view on purpose.
  SpeciesView(const tree::RcbTree& t)
      : leaves(t.leaves().data()),
        order(t.order().data()),
        n_leaves(t.leaves().size()) {}
};

class InteractionDomain;

/// One kernel launch's worth of leaf pairs: either an already materialized
/// list (tests, FMM near lists) or a streamed dual-tree walk delivered in
/// fixed-size batches.  Kernel runners iterate `for_each_batch` and submit
/// one launch per batch, so the streamed path never holds more than `batch`
/// pairs at once.
class PairSource {
 public:
  static constexpr std::size_t kDefaultBatch = 4096;

  // NOLINTNEXTLINE(google-explicit-constructor): call-site compatibility.
  PairSource(std::span<const tree::LeafPair> pairs) : pairs_(pairs) {}
  // NOLINTNEXTLINE(google-explicit-constructor): call-site compatibility.
  PairSource(const std::vector<tree::LeafPair>& pairs) : pairs_(pairs) {}

  /// A streamed source over the domain's shared tree at the given cutoff.
  static PairSource streamed(const InteractionDomain& dom, double cutoff,
                             std::size_t batch = kDefaultBatch);

  /// Invokes f(std::span<const tree::LeafPair>) for each non-empty batch.
  template <typename F>
  void for_each_batch(F&& f) const;  // defined below InteractionDomain

 private:
  PairSource() = default;

  std::span<const tree::LeafPair> pairs_{};
  const InteractionDomain* stream_ = nullptr;
  double cutoff_ = 0.0;
  std::size_t batch_ = kDefaultBatch;
};

/// The shared per-step neighbor structure.  Lifecycle: construct once with
/// the box/leaf/skin knobs, then call update() exactly once per force
/// evaluation with the combined position gather; views and pair sources stay
/// valid until the next update().
class InteractionDomain {
 public:
  explicit InteractionDomain(const DomainOptions& opt);

  /// Ensures the tree covers `pos` (species A occupying indices
  /// [0, n_first), species B the rest).  Rebuilds when the policy demands it
  /// — always, on any shape change, when the max minimum-image drift since
  /// the last build exceeds skin / 2, or when a particle crossed the
  /// periodic boundary (a wrapped raw coordinate would inflate its
  /// re-binned leaf AABB to nearly the whole box) — and otherwise re-bins
  /// the drifted positions into the existing leaves.  Returns true when a
  /// full rebuild happened.
  bool update(std::span<const util::Vec3d> pos, std::size_t n_first = 0);

  /// True once update() has installed a tree.
  bool ready() const { return tree_ != nullptr; }

  /// The shared tree (throws std::logic_error before the first update()).
  const tree::RcbTree& tree() const;

  const DomainOptions& options() const { return opt_; }
  const DomainStats& stats() const { return stats_; }
  std::size_t size() const { return n_; }
  std::size_t n_first() const { return n_first_; }

  /// Both species, original (combined-gather) indices.
  SpeciesView all() const;
  /// Species A ([0, n_first)), species-local indices.
  SpeciesView first() const;
  /// Species B ([n_first, n)), species-local indices.
  SpeciesView second() const;

  /// Streamed canonical leaf-pair traversal at `cutoff` (exact,
  /// duplicate-free; see RcbTree::for_each_pair).
  template <typename Visitor>
  void for_each_pair(double cutoff, Visitor&& visit) const {
    tree().for_each_pair(cutoff, visit);
  }

  /// Streamed pair source for kernel launches at `cutoff`.
  PairSource pairs(double cutoff,
                   std::size_t batch = PairSource::kDefaultBatch) const {
    return PairSource::streamed(*this, cutoff, batch);
  }

 private:
  struct Drift {
    double max = 0.0;     // max minimum-image displacement since last build
    bool wrapped = false; // some particle crossed the periodic boundary
  };

  void rebuild(std::span<const util::Vec3d> pos, std::size_t n_first);
  // Scans for the max minimum-image drift vs ref_pos_, returning early once
  // the verdict is forced (a wrap, or the drift exceeding `threshold`) — so
  // Drift::max is a lower bound when the early exit fires.
  Drift measure_drift(std::span<const util::Vec3d> pos, double threshold) const;
  const tree::RcbTree& checked_tree() const;

  DomainOptions opt_;
  DomainStats stats_;
  std::unique_ptr<tree::RcbTree> tree_;
  std::size_t n_ = 0;
  std::size_t n_first_ = 0;
  // Positions at the last rebuild; kept only under the displacement policy
  // (kAlways never measures drift).
  std::vector<util::Vec3d> ref_pos_;
  // Species partition of the tree order: within every leaf, species-A slots
  // precede species-B slots.  order_all_ keeps combined indices;
  // order_local_ maps each slot to its species-local index.
  std::vector<std::int32_t> order_all_;
  std::vector<std::int32_t> order_local_;
  std::vector<tree::Leaf> leaves_first_;
  std::vector<tree::Leaf> leaves_second_;
};

template <typename F>
void PairSource::for_each_batch(F&& f) const {
  if (stream_ == nullptr) {
    if (!pairs_.empty()) f(pairs_);
    return;
  }
  std::vector<tree::LeafPair> buf;
  buf.reserve(batch_);
  stream_->for_each_pair(cutoff_, [&](const tree::LeafPair& lp) {
    buf.push_back(lp);
    if (buf.size() == batch_) {
      f(std::span<const tree::LeafPair>(buf));
      buf.clear();
    }
  });
  if (!buf.empty()) f(std::span<const tree::LeafPair>(buf));
}

}  // namespace hacc::domain
