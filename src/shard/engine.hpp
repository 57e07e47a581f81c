#pragma once

/// \file
/// The sharded force-evaluation engine: N in-process spatial domains over
/// the periodic box, each owning an `InteractionDomain` (tree, Verlet skin,
/// species views) over its resident particles plus a ghost halo imported
/// from neighboring shards through the `Transport` seam.
///
/// The engine is driven by the solver once per force evaluation, in three
/// phases that map one-to-one onto step-propagator stages:
///
///   prepare()  — particle migration (residency handover messages) when the
///                rebuild policy demands it, ghost-halo exchange, and the
///                per-shard domain updates.  Between migrations the export
///                plans are frozen, so a skin-triggered refresh updates the
///                ghost copies in place without changing any list shape.
///   run_pp()   — short-range polynomial gravity over each shard's leaf
///                pairs.  Per-pair terms are evaluated in FLOAT exactly as
///                the single-domain kernel does (gravity/pp_short.cpp), so
///                the term set is bitwise independent of the shard count;
///                per-particle sums accumulate in DOUBLE, which is what
///                makes the cross-shard-count force parity < 1e-10 instead
///                of float-reorder noise.
///   run_sph()  — the CRK-SPH chain (`sph::run_chain`) with one part per
///                non-empty shard and the ghost field refreshes through the
///                transport as its between-kernel hook (V after Geometry,
///                CRK coefficients after Corrections, rho/P/cs after
///                Extras), then a resident-output scatter back to the
///                canonical particle set.
///
/// The solver shards short-range gravity only for pm_pp: the fmm and
/// treepm backends keep their gravity chain on the global tree (a far
/// field is not shardable by a halo), so with them only hydro shards.
///
/// The canonical `core::ParticleSet`s stay authoritative: kick/drift and
/// checkpointing never see shards (the checkpoint layout IS the gathered
/// single-domain layout).  Residency is a pure function of position under
/// the default always-rebuild policy, so a restart reproduces a continuous
/// sharded run bit for bit at one thread.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/particles.hpp"
#include "domain/domain.hpp"
#include "gravity/poisson.hpp"
#include "shard/layout.hpp"
#include "shard/transport.hpp"
#include "sph/pipeline.hpp"
#include "util/vec3.hpp"

namespace hacc::util {
class ThreadPool;
}  // namespace hacc::util

namespace hacc::xsycl {
class Queue;
}  // namespace hacc::xsycl

namespace hacc::shard {

/// Construction knobs.  Validated loudly (std::invalid_argument): box > 0,
/// count >= 1, ghost_factor >= 1, range >= 0, skin >= 0, leaf_size >= 1.
struct ShardOptions {
  double box = 1.0;
  int count = 1;
  /// Maximum interaction range the halo must cover: max over the enabled
  /// consumers of (SPH support at the smoothing-length clamp, PP cutoff).
  double range = 0.0;
  /// Halo safety factor (config key shard.ghost_factor): the ghost radius
  /// is ghost_factor * range + skin, so 1.0 is the exact halo and larger
  /// values trade copies for slack.
  double ghost_factor = 1.0;
  int leaf_size = 32;
  /// Verlet skin shared with the per-shard domains: residency and ghost
  /// plans re-form only when the max drift since the last migration exceeds
  /// skin / 2 (under the displacement policy), exactly like the tree.
  double skin = 0.0;
  domain::RebuildPolicy rebuild = domain::RebuildPolicy::kAlways;
  util::ThreadPool* pool = nullptr;  ///< shard-level parallelism (required)
};

/// Per-kernel SPH launch options: the chain's own options, under the name
/// the engine's callers spell.
using SphParams = sph::ChainOptions;

/// Short-range gravity parameters (mirrors gravity::PpOptions physics).
struct PpParams {
  const gravity::PolyShortForce* poly = nullptr;
  float box = 1.0f;
  float G = 1.0f;
  float softening = 0.0f;
};

/// Cumulative engine counters; the solver diffs them per step.
struct EngineStats {
  std::uint64_t evaluations = 0;
  std::uint64_t reshards = 0;       ///< residency (re)distributions
  std::uint64_t migrated = 0;       ///< particles that changed owner
  std::uint64_t ghost_copies = 0;   ///< halo slots filled across all loads
  std::uint64_t tree_builds = 0;    ///< per-shard domain rebuilds
  std::uint64_t tree_reuses = 0;    ///< per-shard Verlet-skin reuses
  double migrate_seconds = 0.0;     ///< residency + migration messaging
  double exchange_seconds = 0.0;    ///< ghost loads, refreshes, scatter
  double domain_seconds = 0.0;      ///< per-shard tree build/refresh
  double pp_seconds = 0.0;
};

class ShardEngine {
 public:
  /// A null `transport` means an owned InProcTransport of `opt.count`
  /// endpoints; an external transport must have exactly that many.
  explicit ShardEngine(const ShardOptions& opt,
                       std::unique_ptr<Transport> transport = nullptr);
  ~ShardEngine();

  /// Phase 1: migration + ghost exchange + per-shard domain updates for the
  /// current canonical state.  `pos` is the combined dm-then-gas position
  /// gather (global ids index it); `dm`/`gas` supply the field data.
  void prepare(const core::ParticleSet& dm, const core::ParticleSet& gas,
               std::span<const util::Vec3d> pos);

  /// Phase 2: short-range gravity.  Writes the double-accumulated sums as
  /// floats into ax/ay/az (combined global indexing; every slot is some
  /// shard's resident, so the arrays are fully covered) and keeps the
  /// double sums readable via pp_accel() for the parity suite.
  void run_pp(const PpParams& pp, std::span<float> ax, std::span<float> ay,
              std::span<float> az);

  /// Phase 3: the SPH chain + ghost refreshes, then the resident scatter
  /// of every kernel-written field back into `gas`, which must be the gas
  /// set of the last prepare() (std::invalid_argument otherwise).
  void run_sph(core::ParticleSet& gas, xsycl::Queue& q, const SphParams& sph);

  const ShardLayout& layout() const { return layout_; }
  const ShardOptions& options() const { return opt_; }
  const EngineStats& stats() const { return stats_; }
  TransportStats transport_stats() const { return transport_->stats(); }
  double ghost_radius() const { return ghost_radius_; }

  /// Last run_pp() double sums, combined global indexing (parity suite).
  const std::vector<util::Vec3d>& pp_accel() const { return pp_accel_; }

  /// Test/diagnostic window into one shard's residency and halo.
  struct ShardView {
    std::span<const std::int64_t> res_dm;   ///< global combined ids
    std::span<const std::int64_t> res_gas;  ///< global combined ids
    std::span<const std::int64_t> gho_dm;   ///< global combined ids
    std::span<const std::int64_t> gho_gas;  ///< global combined ids
    const core::ParticleSet* gas_local;     ///< residents then ghosts
    const domain::InteractionDomain* dom;
    double pp_seconds = 0.0;  ///< this shard's accumulated P-P walk time
  };
  ShardView shard_view(int shard) const;

 private:
  struct Shard;

  bool reshard_needed(std::span<const util::Vec3d> pos) const;
  void reshard(std::span<const util::Vec3d> pos);
  void plan_ghosts(std::span<const util::Vec3d> pos);
  void load_residents(const core::ParticleSet& dm, const core::ParticleSet& gas);
  void exchange_ghost_load();
  void update_domains();
  void refresh_ghost_fields(std::uint32_t round);
  void scatter_gas(core::ParticleSet& gas);

  ShardOptions opt_;
  ShardLayout layout_;
  double ghost_radius_ = 0.0;
  std::unique_ptr<Transport> transport_;
  std::vector<Shard> shards_;
  EngineStats stats_;
  std::size_t n_dm_ = 0, n_gas_ = 0;
  bool assigned_ = false;
  /// Positions at the last reshard (displacement policy drift reference).
  std::vector<util::Vec3d> ref_pos_;
  std::vector<util::Vec3d> pp_accel_;
};

}  // namespace hacc::shard
