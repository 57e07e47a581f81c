#include "domain/domain.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/periodic.hpp"

namespace hacc::domain {

using util::Vec3d;

const char* to_string(RebuildPolicy policy) {
  switch (policy) {
    case RebuildPolicy::kAlways:
      return "always";
    case RebuildPolicy::kDisplacement:
      return "displacement";
  }
  return "always";
}

bool parse_rebuild_policy(const std::string& name, RebuildPolicy& out) {
  if (name == "always") {
    out = RebuildPolicy::kAlways;
  } else if (name == "displacement") {
    out = RebuildPolicy::kDisplacement;
  } else {
    return false;
  }
  return true;
}

PairSource PairSource::streamed(const InteractionDomain& dom, double cutoff,
                                std::size_t batch) {
  PairSource src;
  src.stream_ = &dom;
  src.cutoff_ = cutoff;
  src.batch_ = std::max<std::size_t>(1, batch);
  return src;
}

InteractionDomain::InteractionDomain(const DomainOptions& opt) : opt_(opt) {
  if (!(opt_.box > 0.0)) {
    throw std::invalid_argument(
        "InteractionDomain: box must be > 0 (got " + std::to_string(opt_.box) +
        ")");
  }
  if (opt_.leaf_size < 1) {
    throw std::invalid_argument(
        "InteractionDomain: leaf_size must be >= 1 (got " +
        std::to_string(opt_.leaf_size) + ")");
  }
  if (!(opt_.skin >= 0.0)) {
    throw std::invalid_argument(
        "InteractionDomain: skin must be >= 0 (got " +
        std::to_string(opt_.skin) + ")");
  }
}

const tree::RcbTree& InteractionDomain::checked_tree() const {
  if (tree_ == nullptr) {
    throw std::logic_error(
        "InteractionDomain: update() must install a tree before it is used");
  }
  return *tree_;
}

const tree::RcbTree& InteractionDomain::tree() const { return checked_tree(); }

bool InteractionDomain::update(std::span<const Vec3d> pos,
                               std::size_t n_first) {
  if (n_first > pos.size()) {
    throw std::invalid_argument(
        "InteractionDomain::update(): n_first exceeds the particle count");
  }
  const bool shape_changed =
      tree_ == nullptr || pos.size() != n_ || n_first != n_first_;
  if (shape_changed || opt_.rebuild == RebuildPolicy::kAlways) {
    stats_.last_max_drift = 0.0;
    rebuild(pos, n_first);
    return true;
  }
  const Drift drift = measure_drift(pos, 0.5 * opt_.skin);
  stats_.last_max_drift = drift.max;
  // A particle that crossed the periodic boundary sits a near-box raw
  // coordinate away from its leaf mates: re-binned AABBs are computed from
  // raw coordinates, so reuse would inflate that leaf's box to almost the
  // whole domain and blow up the pair walk.  Wraps are rare — rebuild.
  if (drift.wrapped || drift.max > 0.5 * opt_.skin) {
    rebuild(pos, n_first);
    return true;
  }
  // Re-bin: the permutation and topology stand, the AABBs track the drifted
  // positions so pair enumeration stays exact.  The species views carry
  // copies of the leaf boxes — sync them so every view sees the refreshed
  // AABBs.
  const obs::TraceSpan span("domain.refresh");
  tree_->refresh(pos);
  const auto& leaves = tree_->leaves();
  for (std::size_t l = 0; l < leaves.size(); ++l) {
    leaves_first_[l].lo = leaves[l].lo;
    leaves_first_[l].hi = leaves[l].hi;
    leaves_second_[l].lo = leaves[l].lo;
    leaves_second_[l].hi = leaves[l].hi;
  }
  ++stats_.reuses;
  return false;
}

void InteractionDomain::rebuild(std::span<const Vec3d> pos,
                                std::size_t n_first) {
  const obs::TraceSpan span("domain.build");
  tree_ = opt_.pool != nullptr
              ? std::make_unique<tree::RcbTree>(pos, opt_.box, opt_.leaf_size,
                                                *opt_.pool)
              : std::make_unique<tree::RcbTree>(pos, opt_.box, opt_.leaf_size);
  n_ = pos.size();
  n_first_ = n_first;
  if (opt_.rebuild == RebuildPolicy::kDisplacement) {
    ref_pos_.assign(pos.begin(), pos.end());
  }

  const auto& leaves = tree_->leaves();
  order_all_ = tree_->order();
  order_local_.resize(order_all_.size());
  leaves_first_ = leaves;
  leaves_second_ = leaves;
  const auto split = static_cast<std::int32_t>(n_first);
  for (std::size_t l = 0; l < leaves.size(); ++l) {
    const auto begin = order_all_.begin() + leaves[l].begin;
    const auto end = order_all_.begin() + leaves[l].end;
    const auto mid = std::stable_partition(
        begin, end, [split](std::int32_t i) { return i < split; });
    const auto mid_slot = static_cast<std::int32_t>(mid - order_all_.begin());
    leaves_first_[l].end = mid_slot;
    leaves_second_[l].begin = mid_slot;
  }
  for (std::size_t s = 0; s < order_all_.size(); ++s) {
    const std::int32_t i = order_all_[s];
    order_local_[s] = i < split ? i : i - split;
  }
  ++stats_.builds;
}

InteractionDomain::Drift InteractionDomain::measure_drift(
    std::span<const Vec3d> pos, double threshold) const {
  Drift drift;
  const double t2 = threshold * threshold;
  double d2max = 0.0;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    double d2 = 0.0;
    for (int a = 0; a < 3; ++a) {
      double d = pos[i][a] - ref_pos_[i][a];
      if (std::fabs(d) > 0.5 * opt_.box) drift.wrapped = true;
      d = util::min_image(d, opt_.box);
      d2 += d * d;
    }
    d2max = std::max(d2max, d2);
    if (drift.wrapped || d2max > t2) break;  // verdict forced: rebuild
  }
  drift.max = std::sqrt(d2max);
  return drift;
}

SpeciesView InteractionDomain::all() const {
  const auto& t = checked_tree();
  return {t.leaves().data(), order_all_.data(), t.leaves().size()};
}

SpeciesView InteractionDomain::first() const {
  checked_tree();
  return {leaves_first_.data(), order_local_.data(), leaves_first_.size()};
}

SpeciesView InteractionDomain::second() const {
  checked_tree();
  return {leaves_second_.data(), order_local_.data(), leaves_second_.size()};
}

std::vector<tree::LeafPair> InteractionDomain::interacting_pairs(
    double cutoff) const {
  return checked_tree().interacting_pairs(cutoff);
}

}  // namespace hacc::domain
