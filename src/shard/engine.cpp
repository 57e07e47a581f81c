#include "shard/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"
#include "sph/pipeline.hpp"
#include "util/periodic.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace hacc::shard {

namespace {

// Ghost-load packing widths (floats per particle).
constexpr std::uint32_t kDmLoadWords = 4;    // x, y, z, mass
constexpr std::uint32_t kGasLoadWords = 10;  // x, y, z, v, mass, h, V, u

// Field refresh rounds between dependent SPH kernels: each kernel's
// neighbor reads must see owner-computed values, so after a kernel writes a
// field the owners re-broadcast it to every shard holding a ghost copy.
constexpr std::uint32_t kRefreshWords[3] = {
    1,   // round 0 after Geometry: V
    16,  // round 1 after Corrections: the CRK coefficient block
    3,   // round 2 after Extras: rho, P, cs
};

}  // namespace

struct ShardEngine::Shard {
  int rank = 0;

  // Residency and halo membership, as global combined (dm-then-gas) ids.
  std::vector<std::int64_t> res_dm, res_gas;
  std::vector<std::int64_t> gho_dm, gho_gas;

  // Export plan, frozen between reshards: which of my residents are ghosts
  // on which neighbor (resident-local indices, so a mid-evaluation field
  // refresh packs straight out of the local stores).
  struct Export {
    int to = -1;
    std::vector<std::int32_t> dm, gas;
  };
  std::vector<Export> exports;

  // Import blocks in canonical (sender-sorted) drain order; refresh rounds
  // unpack positionally against these.
  struct Block {
    int from = -1;
    std::int32_t count = 0;
  };
  std::vector<Block> dm_blocks, gas_blocks;

  // Local stores: residents first, then ghosts.  Dark matter only needs
  // what gravity reads; baryons carry the full kernel state.
  std::vector<float> dm_x, dm_y, dm_z, dm_mass;
  core::ParticleSet gas_local;

  // Combined local gather [dm res, dm gho, gas res, gas gho] and the
  // shard's own interaction domain over it.
  std::vector<util::Vec3d> pos;
  std::unique_ptr<domain::InteractionDomain> dom;

  // Scratch reused across evaluations.
  std::vector<float> lx, ly, lz, lmass;    // combined-order floats (PP walk)
  std::vector<double> acc;                 // 3 * local-count double sums
  std::vector<tree::LeafPair> sph_pairs;   // one walk feeds all five kernels

  // This shard's accumulated P-P walk time: the per-shard critical path the
  // migration bench reports (what bounds wall time once cores >= shards).
  double pp_seconds = 0.0;

  std::size_t n_dm_res() const { return res_dm.size(); }
  std::size_t n_gas_res() const { return res_gas.size(); }
  std::size_t n_dm_local() const { return res_dm.size() + gho_dm.size(); }
  std::size_t n_gas_local() const { return res_gas.size() + gho_gas.size(); }
};

ShardEngine::ShardEngine(const ShardOptions& opt,
                         std::unique_ptr<Transport> transport)
    : opt_(opt), layout_(ShardLayout::make(opt.box, opt.count)) {
  if (!(opt_.ghost_factor >= 1.0)) {
    throw std::invalid_argument("ShardEngine: ghost_factor must be >= 1");
  }
  if (!(opt_.range >= 0.0) || !(opt_.skin >= 0.0)) {
    throw std::invalid_argument("ShardEngine: range and skin must be >= 0");
  }
  if (opt_.leaf_size < 1) {
    throw std::invalid_argument("ShardEngine: leaf_size must be >= 1");
  }
  if (opt_.pool == nullptr) {
    throw std::invalid_argument("ShardEngine: a thread pool is required");
  }
  // The halo must cover every pair a resident can interact with until the
  // next migration: the interaction range, the ghost_factor slack, plus one
  // full skin (both endpoints may drift skin/2 between reshards).
  ghost_radius_ = opt_.ghost_factor * opt_.range + opt_.skin;
  if (transport) {
    if (transport->size() != layout_.count()) {
      throw std::invalid_argument(
          "ShardEngine: transport endpoint count must equal the shard count");
    }
    transport_ = std::move(transport);
  } else {
    transport_ = std::make_unique<InProcTransport>(layout_.count());
  }
  shards_.resize(static_cast<std::size_t>(layout_.count()));
  for (int s = 0; s < layout_.count(); ++s) {
    shards_[static_cast<std::size_t>(s)].rank = s;
  }
}

ShardEngine::~ShardEngine() = default;

bool ShardEngine::reshard_needed(std::span<const util::Vec3d> pos) const {
  if (!assigned_ || pos.size() != n_dm_ + n_gas_) return true;
  if (opt_.rebuild == domain::RebuildPolicy::kAlways || !(opt_.skin > 0.0)) {
    return true;
  }
  // Max minimum-image drift since the last reshard, early-exiting once the
  // verdict is forced — the same discipline as the interaction domain.
  const double thresh2 = 0.25 * opt_.skin * opt_.skin;
  const double box = opt_.box;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    double dx = pos[i].x - ref_pos_[i].x;
    double dy = pos[i].y - ref_pos_[i].y;
    double dz = pos[i].z - ref_pos_[i].z;
    dx = util::min_image(dx, box);
    dy = util::min_image(dy, box);
    dz = util::min_image(dz, box);
    if (dx * dx + dy * dy + dz * dz > thresh2) return true;
  }
  return false;
}

void ShardEngine::reshard(std::span<const util::Vec3d> pos) {
  const int count = layout_.count();
  if (!assigned_ || pos.size() != n_dm_ + n_gas_) {
    // Initial distribution: residency is assigned directly from positions,
    // the way an MPI run would scatter its initial conditions.
    for (Shard& s : shards_) {
      s.res_dm.clear();
      s.res_gas.clear();
    }
    for (std::size_t id = 0; id < pos.size(); ++id) {
      Shard& owner = shards_[static_cast<std::size_t>(layout_.owner_of(pos[id]))];
      (id < n_dm_ ? owner.res_dm : owner.res_gas)
          .push_back(static_cast<std::int64_t>(id));
    }
    assigned_ = true;
  } else {
    // Residency handover: each shard scans its residents against the
    // layout, keeps the stayers in order, and mails the leavers to their
    // new owners.  Combined global ids disambiguate the species.
    std::vector<std::uint64_t> arrived(static_cast<std::size_t>(count), 0);
    // shared: shards_ (one shard per iteration), transport_ (thread-safe
    // shared: send), pos (read-only).
    opt_.pool->parallel_for_chunks(count, 1, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t si = b; si < e; ++si) {
        Shard& s = shards_[static_cast<std::size_t>(si)];
        std::vector<std::vector<std::int64_t>> leaving(
            static_cast<std::size_t>(count));
        const auto scan = [&](std::vector<std::int64_t>& res) {
          std::size_t keep = 0;
          for (const std::int64_t id : res) {
            const int owner =
                layout_.owner_of(pos[static_cast<std::size_t>(id)]);
            if (owner == s.rank) {
              res[keep++] = id;
            } else {
              leaving[static_cast<std::size_t>(owner)].push_back(id);
            }
          }
          res.resize(keep);
        };
        scan(s.res_dm);
        scan(s.res_gas);
        for (int dest = 0; dest < count; ++dest) {
          auto& ids = leaving[static_cast<std::size_t>(dest)];
          if (ids.empty()) continue;
          Message m;
          m.kind = MsgKind::kMigrate;
          m.from = s.rank;
          m.to = dest;
          m.ids = std::move(ids);
          transport_->send(std::move(m));
        }
      }
    });
    // shared: shards_ (one shard per iteration), transport_ (per-rank
    // shared: receive), arrived (one slot per iteration).
    opt_.pool->parallel_for_chunks(count, 1, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t si = b; si < e; ++si) {
        Shard& s = shards_[static_cast<std::size_t>(si)];
        for (const Message& m : transport_->receive(s.rank)) {
          for (const std::int64_t id : m.ids) {
            (static_cast<std::size_t>(id) < n_dm_ ? s.res_dm : s.res_gas)
                .push_back(id);
          }
          arrived[static_cast<std::size_t>(si)] += m.ids.size();
        }
      }
    });
    for (const std::uint64_t a : arrived) stats_.migrated += a;
  }
  // Canonical residency order: sorting by global id makes every resident
  // list a pure function of the position set, independent of migration
  // history.  A restarted run reshards from scratch yet rebuilds the same
  // local arrays — and therefore the same trees, walk order, and bitwise
  // force sums — as the run that arrived here step by step.
  // shared: shards_ (one shard per iteration).
  opt_.pool->parallel_for_chunks(count, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t si = b; si < e; ++si) {
      Shard& s = shards_[static_cast<std::size_t>(si)];
      std::sort(s.res_dm.begin(), s.res_dm.end());
      std::sort(s.res_gas.begin(), s.res_gas.end());
    }
  });
  ++stats_.reshards;
  if (opt_.rebuild == domain::RebuildPolicy::kDisplacement &&
      opt_.skin > 0.0) {
    ref_pos_.assign(pos.begin(), pos.end());
  }
}

void ShardEngine::plan_ghosts(std::span<const util::Vec3d> pos) {
  const int count = layout_.count();
  // shared: shards_ (one shard per iteration), pos/layout_ (read-only).
  opt_.pool->parallel_for_chunks(count, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t si = b; si < e; ++si) {
      Shard& s = shards_[static_cast<std::size_t>(si)];
      s.exports.clear();
      for (const int nb : layout_.neighbors_within(s.rank, ghost_radius_)) {
        Shard::Export ex;
        ex.to = nb;
        const auto collect = [&](const std::vector<std::int64_t>& res,
                                 std::vector<std::int32_t>& out) {
          for (std::size_t j = 0; j < res.size(); ++j) {
            const util::Vec3d& p = pos[static_cast<std::size_t>(res[j])];
            if (layout_.distance_to(nb, p) <= ghost_radius_) {
              out.push_back(static_cast<std::int32_t>(j));
            }
          }
        };
        collect(s.res_dm, ex.dm);
        collect(s.res_gas, ex.gas);
        if (!ex.dm.empty() || !ex.gas.empty()) {
          s.exports.push_back(std::move(ex));
        }
      }
    }
  });
}

void ShardEngine::load_residents(const core::ParticleSet& dm,
                                 const core::ParticleSet& gas) {
  // Solver -> shard boundary: each shard gathers its residents' current
  // field data from the canonical sets (rank-local under MPI).
  const int count = layout_.count();
  // shared: shards_ (one shard per iteration), dm/gas (read-only).
  opt_.pool->parallel_for_chunks(count, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t si = b; si < e; ++si) {
      Shard& s = shards_[static_cast<std::size_t>(si)];
      const std::size_t ndr = s.n_dm_res();
      const std::size_t ngr = s.n_gas_res();
      s.dm_x.resize(s.n_dm_local());
      s.dm_y.resize(s.n_dm_local());
      s.dm_z.resize(s.n_dm_local());
      s.dm_mass.resize(s.n_dm_local());
      s.gas_local.resize(s.n_gas_local());
      for (std::size_t j = 0; j < ndr; ++j) {
        const std::size_t g = static_cast<std::size_t>(s.res_dm[j]);
        s.dm_x[j] = dm.x[g];
        s.dm_y[j] = dm.y[g];
        s.dm_z[j] = dm.z[g];
        s.dm_mass[j] = dm.mass[g];
      }
      for (std::size_t j = 0; j < ngr; ++j) {
        const std::size_t g = static_cast<std::size_t>(s.res_gas[j]) - n_dm_;
        s.gas_local.x[j] = gas.x[g];
        s.gas_local.y[j] = gas.y[g];
        s.gas_local.z[j] = gas.z[g];
        s.gas_local.vx[j] = gas.vx[g];
        s.gas_local.vy[j] = gas.vy[g];
        s.gas_local.vz[j] = gas.vz[g];
        s.gas_local.mass[j] = gas.mass[g];
        s.gas_local.h[j] = gas.h[g];
        s.gas_local.V[j] = gas.V[g];
        s.gas_local.u[j] = gas.u[g];
      }
    }
  });
}

void ShardEngine::exchange_ghost_load() {
  const int count = layout_.count();
  // Pack + send: owners broadcast their exported residents' load fields.
  // shared: shards_ (one shard per iteration; only its own resident slots
  // shared: are read), transport_ (thread-safe send).
  opt_.pool->parallel_for_chunks(count, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t si = b; si < e; ++si) {
      Shard& s = shards_[static_cast<std::size_t>(si)];
      for (const Shard::Export& ex : s.exports) {
        if (!ex.dm.empty()) {
          Message m;
          m.kind = MsgKind::kGhostLoad;
          m.from = s.rank;
          m.to = ex.to;
          m.tag = 0;
          m.words = kDmLoadWords;
          m.ids.reserve(ex.dm.size());
          m.payload.reserve(kDmLoadWords * ex.dm.size());
          for (const std::int32_t j : ex.dm) {
            m.ids.push_back(s.res_dm[static_cast<std::size_t>(j)]);
            m.payload.push_back(s.dm_x[static_cast<std::size_t>(j)]);
            m.payload.push_back(s.dm_y[static_cast<std::size_t>(j)]);
            m.payload.push_back(s.dm_z[static_cast<std::size_t>(j)]);
            m.payload.push_back(s.dm_mass[static_cast<std::size_t>(j)]);
          }
          transport_->send(std::move(m));
        }
        if (!ex.gas.empty()) {
          Message m;
          m.kind = MsgKind::kGhostLoad;
          m.from = s.rank;
          m.to = ex.to;
          m.tag = 1;
          m.words = kGasLoadWords;
          m.ids.reserve(ex.gas.size());
          m.payload.reserve(kGasLoadWords * ex.gas.size());
          const core::ParticleSet& p = s.gas_local;
          for (const std::int32_t ji : ex.gas) {
            const std::size_t j = static_cast<std::size_t>(ji);
            m.ids.push_back(s.res_gas[j]);
            const float fields[kGasLoadWords] = {p.x[j],  p.y[j], p.z[j],
                                                 p.vx[j], p.vy[j], p.vz[j],
                                                 p.mass[j], p.h[j], p.V[j],
                                                 p.u[j]};
            m.payload.insert(m.payload.end(), fields, fields + kGasLoadWords);
          }
          transport_->send(std::move(m));
        }
      }
    }
  });
  // Drain + unpack, in the transport's canonical sender order.  Between
  // reshards the plans are frozen, so the blocks line up positionally and
  // the halo refreshes in place; after a reshard they are rebuilt.
  std::vector<std::uint64_t> copies(static_cast<std::size_t>(count), 0);
  // shared: shards_ (one shard per iteration), transport_ (per-rank
  // shared: receive), copies (one slot per iteration).
  opt_.pool->parallel_for_chunks(count, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t si = b; si < e; ++si) {
      Shard& s = shards_[static_cast<std::size_t>(si)];
      s.gho_dm.clear();
      s.gho_gas.clear();
      s.dm_blocks.clear();
      s.gas_blocks.clear();
      const std::size_t ndr = s.n_dm_res();
      const std::size_t ngr = s.n_gas_res();
      s.dm_x.resize(ndr);
      s.dm_y.resize(ndr);
      s.dm_z.resize(ndr);
      s.dm_mass.resize(ndr);
      s.gas_local.resize(ngr);
      for (const Message& m : transport_->receive(s.rank)) {
        const std::int32_t n = static_cast<std::int32_t>(m.ids.size());
        if (n == 0) continue;
        if (m.tag == 0) {
          s.dm_blocks.push_back({m.from, n});
          s.gho_dm.insert(s.gho_dm.end(), m.ids.begin(), m.ids.end());
          std::size_t w = 0;
          for (std::int32_t k = 0; k < n; ++k) {
            s.dm_x.push_back(m.payload[w++]);
            s.dm_y.push_back(m.payload[w++]);
            s.dm_z.push_back(m.payload[w++]);
            s.dm_mass.push_back(m.payload[w++]);
          }
        } else {
          s.gas_blocks.push_back({m.from, n});
          const std::size_t base = s.gas_local.size();
          s.gho_gas.insert(s.gho_gas.end(), m.ids.begin(), m.ids.end());
          s.gas_local.resize(base + static_cast<std::size_t>(n));
          std::size_t w = 0;
          for (std::int32_t k = 0; k < n; ++k) {
            const std::size_t j = base + static_cast<std::size_t>(k);
            s.gas_local.x[j] = m.payload[w++];
            s.gas_local.y[j] = m.payload[w++];
            s.gas_local.z[j] = m.payload[w++];
            s.gas_local.vx[j] = m.payload[w++];
            s.gas_local.vy[j] = m.payload[w++];
            s.gas_local.vz[j] = m.payload[w++];
            s.gas_local.mass[j] = m.payload[w++];
            s.gas_local.h[j] = m.payload[w++];
            s.gas_local.V[j] = m.payload[w++];
            s.gas_local.u[j] = m.payload[w++];
          }
        }
        copies[static_cast<std::size_t>(si)] +=
            static_cast<std::uint64_t>(n);
      }
    }
  });
  for (const std::uint64_t c : copies) stats_.ghost_copies += c;
}

void ShardEngine::update_domains() {
  const int count = layout_.count();
  std::vector<std::uint64_t> builds(static_cast<std::size_t>(count), 0);
  std::vector<std::uint64_t> reuses(static_cast<std::size_t>(count), 0);
  // Per-shard trees build serially inside a shard (the shard is the unit of
  // parallelism here), so the outer loop carries all the concurrency.
  // shared: shards_ (one shard per iteration), builds/reuses (one slot per
  // shared: iteration).
  opt_.pool->parallel_for_chunks(count, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t si = b; si < e; ++si) {
      Shard& s = shards_[static_cast<std::size_t>(si)];
      const std::size_t ndl = s.n_dm_local();
      const std::size_t n = ndl + s.n_gas_local();
      s.pos.resize(n);
      for (std::size_t j = 0; j < ndl; ++j) {
        s.pos[j] = {s.dm_x[j], s.dm_y[j], s.dm_z[j]};
      }
      for (std::size_t j = 0; j < s.n_gas_local(); ++j) {
        s.pos[ndl + j] = s.gas_local.pos_of(j);
      }
      if (n == 0) continue;  // an empty shard has no tree to keep current
      if (!s.dom) {
        domain::DomainOptions dopt;
        dopt.box = opt_.box;
        dopt.leaf_size = opt_.leaf_size;
        dopt.skin = opt_.skin;
        dopt.rebuild = opt_.rebuild;
        dopt.pool = nullptr;
        s.dom = std::make_unique<domain::InteractionDomain>(dopt);
      }
      const domain::DomainStats before = s.dom->stats();
      s.dom->update(s.pos, ndl);
      builds[static_cast<std::size_t>(si)] =
          s.dom->stats().builds - before.builds;
      reuses[static_cast<std::size_t>(si)] =
          s.dom->stats().reuses - before.reuses;
    }
  });
  for (int si = 0; si < count; ++si) {
    stats_.tree_builds += builds[static_cast<std::size_t>(si)];
    stats_.tree_reuses += reuses[static_cast<std::size_t>(si)];
  }
}

void ShardEngine::prepare(const core::ParticleSet& dm,
                          const core::ParticleSet& gas,
                          std::span<const util::Vec3d> pos) {
  if (pos.size() != dm.size() + gas.size()) {
    throw std::invalid_argument(
        "ShardEngine::prepare: pos must be the combined dm-then-gas gather");
  }
  const bool resh = reshard_needed(pos) ||
                    dm.size() != n_dm_ || gas.size() != n_gas_;
  {
    const obs::TraceSpan span("shard.migrate");
    const double t0 = util::wtime();
    if (resh) {
      if (dm.size() != n_dm_ || gas.size() != n_gas_) assigned_ = false;
      n_dm_ = dm.size();
      n_gas_ = gas.size();
      reshard(pos);
      plan_ghosts(pos);
    }
    stats_.migrate_seconds += util::wtime() - t0;
  }
  {
    const obs::TraceSpan span("shard.exchange");
    const double t0 = util::wtime();
    load_residents(dm, gas);
    exchange_ghost_load();
    stats_.exchange_seconds += util::wtime() - t0;
  }
  {
    const obs::TraceSpan span("shard.tree");
    const double t0 = util::wtime();
    update_domains();
    stats_.domain_seconds += util::wtime() - t0;
  }
  ++stats_.evaluations;
}

void ShardEngine::run_pp(const PpParams& pp, std::span<float> ax,
                         std::span<float> ay, std::span<float> az) {
  const std::size_t n = n_dm_ + n_gas_;
  if (pp.poly == nullptr) {
    throw std::invalid_argument("ShardEngine::run_pp: poly is required");
  }
  if (ax.size() != n || ay.size() != n || az.size() != n) {
    throw std::invalid_argument(
        "ShardEngine::run_pp: output spans must cover the combined gather");
  }
  const obs::TraceSpan span("shard.pp");
  const double t0 = util::wtime();
  pp_accel_.assign(n, util::Vec3d{});
  const int count = layout_.count();
  const double r_cut = pp.poly->r_cut();
  const float box = pp.box;
  const float G = pp.G;
  const float eps2 = pp.softening * pp.softening;
  const float rcut2 = static_cast<float>(r_cut * r_cut);
  // Per-pair terms in float — bit-identical to GravityTraits::accumulate in
  // gravity/pp_short.hpp, and therefore independent of the shard count —
  // accumulated per particle in double, serially within a shard.  Shards
  // write disjoint resident slots, so the result is bit-identical for any
  // thread count.
  // shared: shards_ (one shard per iteration), pp_accel_/ax/ay/az (resident
  // shared: slots are owned by exactly one shard).
  opt_.pool->parallel_for_chunks(count, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t si = b; si < e; ++si) {
      Shard& s = shards_[static_cast<std::size_t>(si)];
      const double shard_t0 = util::wtime();
      const std::size_t nl = s.pos.size();
      s.acc.assign(3 * nl, 0.0);
      if (nl > 0 && s.dom && s.dom->ready()) {
        const std::size_t ndl = s.n_dm_local();
        s.lx.resize(nl);
        s.ly.resize(nl);
        s.lz.resize(nl);
        s.lmass.resize(nl);
        for (std::size_t j = 0; j < ndl; ++j) {
          s.lx[j] = s.dm_x[j];
          s.ly[j] = s.dm_y[j];
          s.lz[j] = s.dm_z[j];
          s.lmass[j] = s.dm_mass[j];
        }
        for (std::size_t j = 0; j < s.n_gas_local(); ++j) {
          s.lx[ndl + j] = s.gas_local.x[j];
          s.ly[ndl + j] = s.gas_local.y[j];
          s.lz[ndl + j] = s.gas_local.z[j];
          s.lmass[ndl + j] = s.gas_local.mass[j];
        }
        const std::size_t ndr = s.n_dm_res();
        const std::size_t gas_res_end = ndl + s.n_gas_res();
        const auto is_resident = [&](std::int32_t l) {
          const std::size_t u = static_cast<std::size_t>(l);
          return u < ndr || (u >= ndl && u < gas_res_end);
        };
        const tree::RcbTree& tr = s.dom->tree();
        const tree::Leaf* leaves = tr.leaves().data();
        const std::int32_t* order = tr.order().data();
        const auto pair_term = [&](std::int32_t i, std::int32_t j) {
          if (!is_resident(i) && !is_resident(j)) return;
          float dx = s.lx[static_cast<std::size_t>(i)] -
                     s.lx[static_cast<std::size_t>(j)];
          float dy = s.ly[static_cast<std::size_t>(i)] -
                     s.ly[static_cast<std::size_t>(j)];
          float dz = s.lz[static_cast<std::size_t>(i)] -
                     s.lz[static_cast<std::size_t>(j)];
          dx = util::min_image(dx, box);
          dy = util::min_image(dy, box);
          dz = util::min_image(dz, box);
          const float r2 = dx * dx + dy * dy + dz * dz;
          if (r2 >= rcut2 || r2 <= 0.f) return;
          const float prof = pp.poly->short_profile(r2, eps2);
          const float fi = G * s.lmass[static_cast<std::size_t>(j)] * prof;
          const float fj = G * s.lmass[static_cast<std::size_t>(i)] * prof;
          double* ai = s.acc.data() + 3 * static_cast<std::size_t>(i);
          double* aj = s.acc.data() + 3 * static_cast<std::size_t>(j);
          ai[0] += -fi * dx;
          ai[1] += -fi * dy;
          ai[2] += -fi * dz;
          aj[0] += fj * dx;
          aj[1] += fj * dy;
          aj[2] += fj * dz;
        };
        s.dom->for_each_pair(r_cut, [&](const tree::LeafPair& lp) {
          const tree::Leaf& A = leaves[lp.a];
          const tree::Leaf& B = leaves[lp.b];
          if (lp.a == lp.b) {
            for (std::int32_t u = A.begin; u < A.end; ++u) {
              for (std::int32_t v = u + 1; v < A.end; ++v) {
                pair_term(order[u], order[v]);
              }
            }
          } else {
            for (std::int32_t u = A.begin; u < A.end; ++u) {
              for (std::int32_t v = B.begin; v < B.end; ++v) {
                pair_term(order[u], order[v]);
              }
            }
          }
        });
        // Scatter the resident sums: double for the parity suite, float for
        // the solver's kick path.
        for (std::size_t j = 0; j < ndr; ++j) {
          const std::size_t g = static_cast<std::size_t>(s.res_dm[j]);
          const double* a = s.acc.data() + 3 * j;
          pp_accel_[g] = {a[0], a[1], a[2]};
          ax[g] = static_cast<float>(a[0]);
          ay[g] = static_cast<float>(a[1]);
          az[g] = static_cast<float>(a[2]);
        }
        for (std::size_t j = 0; j < s.n_gas_res(); ++j) {
          const std::size_t g = static_cast<std::size_t>(s.res_gas[j]);
          const double* a = s.acc.data() + 3 * (ndl + j);
          pp_accel_[g] = {a[0], a[1], a[2]};
          ax[g] = static_cast<float>(a[0]);
          ay[g] = static_cast<float>(a[1]);
          az[g] = static_cast<float>(a[2]);
        }
      }
      s.pp_seconds += util::wtime() - shard_t0;
    }
  });
  stats_.pp_seconds += util::wtime() - t0;
}

void ShardEngine::refresh_ghost_fields(std::uint32_t round) {
  const int count = layout_.count();
  const std::uint32_t words = kRefreshWords[round];
  // Owners re-broadcast the fields the kernel just wrote, over the frozen
  // export plans.
  // shared: shards_ (one shard per iteration; only its own resident slots
  // shared: are read), transport_ (thread-safe send).
  opt_.pool->parallel_for_chunks(count, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t si = b; si < e; ++si) {
      Shard& s = shards_[static_cast<std::size_t>(si)];
      const core::ParticleSet& p = s.gas_local;
      for (const Shard::Export& ex : s.exports) {
        if (ex.gas.empty()) continue;
        Message m;
        m.kind = MsgKind::kGhostRefresh;
        m.from = s.rank;
        m.to = ex.to;
        m.tag = round;
        m.words = words;
        m.payload.reserve(words * ex.gas.size());
        for (const std::int32_t ji : ex.gas) {
          const std::size_t j = static_cast<std::size_t>(ji);
          switch (round) {
            case 0:
              m.payload.push_back(p.V[j]);
              break;
            case 1:
              for (int k = 0; k < core::crk_idx::kCount; ++k) {
                m.payload.push_back(p.crk[core::crk_idx::kCount * j +
                                          static_cast<std::size_t>(k)]);
              }
              break;
            default:
              m.payload.push_back(p.rho[j]);
              m.payload.push_back(p.P[j]);
              m.payload.push_back(p.cs[j]);
              break;
          }
        }
        transport_->send(std::move(m));
      }
    }
  });
  // Unpack positionally against the load-phase blocks (same senders, same
  // counts, same canonical order).
  // shared: shards_ (one shard per iteration), transport_ (per-rank
  // shared: receive).
  opt_.pool->parallel_for_chunks(count, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t si = b; si < e; ++si) {
      Shard& s = shards_[static_cast<std::size_t>(si)];
      core::ParticleSet& p = s.gas_local;
      std::size_t slot = s.n_gas_res();
      for (const Message& m : transport_->receive(s.rank)) {
        const std::size_t cnt = m.payload.size() / m.words;
        std::size_t w = 0;
        for (std::size_t k = 0; k < cnt; ++k, ++slot) {
          switch (round) {
            case 0:
              p.V[slot] = m.payload[w++];
              break;
            case 1:
              for (int c = 0; c < core::crk_idx::kCount; ++c) {
                p.crk[core::crk_idx::kCount * slot +
                      static_cast<std::size_t>(c)] = m.payload[w++];
              }
              break;
            default:
              p.rho[slot] = m.payload[w++];
              p.P[slot] = m.payload[w++];
              p.cs[slot] = m.payload[w++];
              break;
          }
        }
      }
      if (slot != p.size()) {
        throw std::logic_error(
            "ShardEngine: ghost refresh did not cover the halo — import "
            "blocks out of sync with the export plans");
      }
    }
  });
}

void ShardEngine::run_sph(core::ParticleSet& gas, xsycl::Queue& q,
                          const SphParams& sph) {
  if (gas.size() != n_gas_) {
    throw std::invalid_argument(
        "ShardEngine::run_sph: gas must be the gas set of the last prepare()");
  }
  const obs::TraceSpan span("shard.sph");
  const int count = layout_.count();
  const auto has_gas = [](const Shard& s) {
    return s.gas_local.size() > 0 && s.dom && s.dom->ready();
  };
  // One tree walk per shard feeds all five kernels (the same economy as the
  // single-domain solver).
  // shared: shards_ (one shard per iteration).
  opt_.pool->parallel_for_chunks(count, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t si = b; si < e; ++si) {
      Shard& s = shards_[static_cast<std::size_t>(si)];
      if (has_gas(s)) {
        sph::collect_gas_pairs(*s.dom, sph::support_cutoff(s.gas_local),
                               s.sph_pairs);
      } else {
        s.sph_pairs.clear();
      }
    }
  });
  // Kernel chain: within each kernel the shards run one after another (each
  // launch is internally pool-parallel), with owner -> ghost field refreshes
  // between dependent kernels.
  std::vector<sph::ChainPart> parts;
  for (Shard& s : shards_) {
    if (has_gas(s)) {
      parts.push_back({&s.gas_local, s.dom->second(), s.sph_pairs});
    }
  }
  sph::run_chain(q, parts, sph,
                 [this](std::uint32_t round) { refresh_ghost_fields(round); });
  {
    const obs::TraceSpan scatter_span("shard.scatter");
    const double t1 = util::wtime();
    scatter_gas(gas);
    stats_.exchange_seconds += util::wtime() - t1;
  }
}

void ShardEngine::scatter_gas(core::ParticleSet& gas) {
  const int count = layout_.count();
  // Shard -> solver boundary: every kernel-written field of each resident
  // goes back to the canonical set.  Residents partition the gas ids, so
  // the writes are disjoint and bit-identical for any thread count.
  // shared: gas (each global slot owned by exactly one shard), shards_
  // shared: (one shard per iteration, read-only).
  opt_.pool->parallel_for_chunks(count, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t si = b; si < e; ++si) {
      const Shard& s = shards_[static_cast<std::size_t>(si)];
      const core::ParticleSet& p = s.gas_local;
      for (std::size_t j = 0; j < s.n_gas_res(); ++j) {
        const std::size_t g = static_cast<std::size_t>(s.res_gas[j]) - n_dm_;
        gas.m0[g] = p.m0[j];
        gas.V[g] = p.V[j];
        gas.rho[g] = p.rho[j];
        gas.P[g] = p.P[j];
        gas.cs[g] = p.cs[j];
        gas.ax[g] = p.ax[j];
        gas.ay[g] = p.ay[j];
        gas.az[g] = p.az[j];
        gas.du[g] = p.du[j];
        gas.vsig[g] = p.vsig[j];
        for (int k = 0; k < core::crk_idx::kCount; ++k) {
          gas.crk[core::crk_idx::kCount * g + static_cast<std::size_t>(k)] =
              p.crk[core::crk_idx::kCount * j + static_cast<std::size_t>(k)];
        }
        for (int k = 0; k < core::mom_idx::kCount; ++k) {
          gas.moments[core::mom_idx::kCount * g + static_cast<std::size_t>(k)] =
              p.moments[core::mom_idx::kCount * j +
                        static_cast<std::size_t>(k)];
        }
        for (int k = 0; k < 9; ++k) {
          gas.dvel[9 * g + static_cast<std::size_t>(k)] =
              p.dvel[9 * j + static_cast<std::size_t>(k)];
        }
      }
    }
  });
}

ShardEngine::ShardView ShardEngine::shard_view(int shard) const {
  if (shard < 0 || shard >= layout_.count()) {
    throw std::out_of_range("ShardEngine::shard_view: bad shard index");
  }
  const Shard& s = shards_[static_cast<std::size_t>(shard)];
  ShardView v;
  v.res_dm = s.res_dm;
  v.res_gas = s.res_gas;
  v.gho_dm = s.gho_dm;
  v.gho_gas = s.gho_gas;
  v.gas_local = &s.gas_local;
  v.dom = s.dom.get();
  v.pp_seconds = s.pp_seconds;
  return v;
}

}  // namespace hacc::shard
