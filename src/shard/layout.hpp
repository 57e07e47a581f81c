#pragma once

/// \file
/// Spatial decomposition of the periodic box into N contiguous sub-domains
/// (shards).  The layout is a regular nx × ny × nz grid of axis-aligned
/// cells chosen near-cubic for the shard count, mirroring the rank
/// decomposition of the source paper's solver: every particle position in
/// [0, box) has exactly one owner cell, and ghost-halo membership is a
/// minimum-image point-to-cell distance test — faces, edges, and box
/// corners (3-way periodic wrap) fall out of the same formula.
///
/// All geometry here is pure and deterministic: ownership of a particle
/// exactly on a cell boundary plane goes to the higher cell (floor of the
/// scaled coordinate), so residency is a total function of position.

#include <vector>

#include "util/vec3.hpp"

namespace hacc::shard {

/// The shard grid.  Construct through make(); throws std::invalid_argument
/// on box <= 0 or count < 1.
class ShardLayout {
 public:
  /// Factors `count` into near-cubic grid dimensions (8 -> 2x2x2,
  /// 4 -> 2x2x1, 2 -> 2x1x1, primes -> p x 1 x 1) and builds the layout.
  static ShardLayout make(double box, int count);

  int count() const { return nx_ * ny_ * nz_; }
  double box() const { return box_; }
  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int nz() const { return nz_; }

  /// The owner cell of a position.  Coordinates are wrapped into [0, box)
  /// first, so any finite position has an owner; a particle exactly on a
  /// boundary plane belongs to the cell whose low face it sits on.
  int owner_of(const util::Vec3d& p) const;

  /// Low/high corner of a cell (code length units).
  util::Vec3d lo(int cell) const;
  util::Vec3d hi(int cell) const;

  /// Minimum-image distance from a point to a cell's closed axis-aligned
  /// region: zero inside, else the periodic point-to-interval distance
  /// combined per axis.  This is THE ghost-membership predicate: a particle
  /// is a ghost of `cell` when the distance is <= the ghost radius.
  double distance_to(int cell, const util::Vec3d& p) const;

  /// Cells other than `cell` whose region comes within `radius` of it —
  /// the neighbor set a shard exchanges ghosts with.  With a radius larger
  /// than a cell extent this degrades gracefully to "all other cells".
  std::vector<int> neighbors_within(int cell, double radius) const;

 private:
  ShardLayout(double box, int nx, int ny, int nz);

  double box_ = 1.0;
  int nx_ = 1, ny_ = 1, nz_ = 1;
};

}  // namespace hacc::shard
