#include "shard/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "obs/trace.hpp"
#include "sph/pipeline.hpp"
#include "util/periodic.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace hacc::shard {

namespace {

using core::ParticleSet;

// Species indices: the combined-id order, dark matter first.
constexpr int kDm = 0;
constexpr int kGas = 1;
constexpr int kSpecies[] = {kDm, kGas};

// One field of the wire format: a ParticleSet array and its floats per
// particle.
struct Field {
  std::vector<float> ParticleSet::*member;
  std::uint32_t width;
};
using Fields = std::span<const Field>;

// Ghost loads (tag = species): what a neighbor's walks read of a resident.
// Dark matter carries only what gravity reads; gas the kernels' inputs.
constexpr Field kDmLoad[] = {{&ParticleSet::x, 1},
                             {&ParticleSet::y, 1},
                             {&ParticleSet::z, 1},
                             {&ParticleSet::mass, 1}};
constexpr Field kGasLoad[] = {
    {&ParticleSet::x, 1},  {&ParticleSet::y, 1},    {&ParticleSet::z, 1},
    {&ParticleSet::vx, 1}, {&ParticleSet::vy, 1},   {&ParticleSet::vz, 1},
    {&ParticleSet::mass, 1}, {&ParticleSet::h, 1},  {&ParticleSet::V, 1},
    {&ParticleSet::u, 1}};
constexpr Fields kLoad[] = {kDmLoad, kGasLoad};

// Refresh rounds (tag = round) between dependent SPH kernels: each kernel's
// neighbor reads must see owner-computed values, so after a kernel writes a
// field the owners re-broadcast it to every shard holding a ghost copy.
constexpr Field kRefreshGeometry[] = {{&ParticleSet::V, 1}};
constexpr Field kRefreshCorrections[] = {
    {&ParticleSet::crk, core::crk_idx::kCount}};
constexpr Field kRefreshExtras[] = {
    {&ParticleSet::rho, 1}, {&ParticleSet::P, 1}, {&ParticleSet::cs, 1}};
constexpr Fields kRefresh[] = {kRefreshGeometry, kRefreshCorrections,
                               kRefreshExtras};

// Every kernel-written field of a resident, scattered back to the canonical
// gas set after the chain.
constexpr Field kOutputs[] = {
    {&ParticleSet::m0, 1},   {&ParticleSet::V, 1},
    {&ParticleSet::rho, 1},  {&ParticleSet::P, 1},
    {&ParticleSet::cs, 1},   {&ParticleSet::ax, 1},
    {&ParticleSet::ay, 1},   {&ParticleSet::az, 1},
    {&ParticleSet::du, 1},   {&ParticleSet::vsig, 1},
    {&ParticleSet::crk, core::crk_idx::kCount},
    {&ParticleSet::moments, core::mom_idx::kCount},
    {&ParticleSet::dvel, 9}};

// A message's (kind, tag) names its field table.
Fields wire_fields(MsgKind kind, std::uint32_t tag) {
  return kind == MsgKind::kGhostLoad ? kLoad[tag] : kRefresh[tag];
}

std::uint32_t width_of(Fields fs) {
  std::uint32_t w = 0;
  for (const Field& f : fs) w += f.width;
  return w;
}

// Appends particle j's fields to `out`, in table order.
void pack(Fields fs, const ParticleSet& p, std::size_t j,
          std::vector<float>& out) {
  for (const Field& f : fs) {
    const float* src = (p.*f.member).data() + f.width * j;
    out.insert(out.end(), src, src + f.width);
  }
}

// Writes a message's particles into slots base, base + 1, ... of `p`;
// returns how many it held.
std::size_t unpack(const Message& m, ParticleSet& p, std::size_t base) {
  const Fields fs = wire_fields(m.kind, m.tag);
  const std::size_t n = m.payload.size() / m.words;
  const float* in = m.payload.data();
  for (std::size_t k = 0; k < n; ++k) {
    for (const Field& f : fs) {
      std::copy(in, in + f.width, (p.*f.member).data() + f.width * (base + k));
      in += f.width;
    }
  }
  return n;
}

// Copies particle i of `src` to particle j of `dst`, field by field (the
// solver <-> shard boundary: resident loads in, resident outputs out).
void copy_fields(Fields fs, const ParticleSet& src, std::size_t i,
                 ParticleSet& dst, std::size_t j) {
  for (const Field& f : fs) {
    const float* from = (src.*f.member).data() + f.width * i;
    std::copy(from, from + f.width, (dst.*f.member).data() + f.width * j);
  }
}

// Sizes a species' local store: gas carries the full kernel state, dark
// matter only its load fields.
void resize_local(ParticleSet& p, int species, std::size_t n) {
  if (species == kGas) {
    p.resize(n);
    return;
  }
  for (const Field& f : kDmLoad) (p.*f.member).resize(f.width * n);
}

}  // namespace

struct ShardEngine::Shard {
  int rank = 0;

  // Residency and halo membership per species, as global combined
  // (dm-then-gas) ids.
  std::vector<std::int64_t> res[2];
  std::vector<std::int64_t> gho[2];

  // Export plan, frozen between reshards: which of my residents are ghosts
  // on which neighbor (resident-local indices per species, so a
  // mid-evaluation field refresh packs straight out of the local stores).
  struct Export {
    int to = -1;
    std::vector<std::int32_t> idx[2];
  };
  std::vector<Export> exports;

  // Local stores per species: residents first, then ghosts in canonical
  // (sender-sorted) drain order, which refresh rounds unpack against.
  ParticleSet local[2];

  // Combined local gather [dm res, dm gho, gas res, gas gho] and the
  // shard's own interaction domain over it.
  std::vector<util::Vec3d> pos;
  std::unique_ptr<domain::InteractionDomain> dom;

  // Scratch reused across evaluations.
  std::vector<float> lx, ly, lz, lmass;    // combined-order floats (PP walk)
  std::vector<double> acc;                 // 3 * local-count double sums
  std::vector<tree::LeafPair> sph_pairs;   // one walk feeds all five kernels
};

ShardEngine::ShardEngine(const ShardOptions& opt)
    : opt_(opt),
      layout_(ShardLayout::make(opt.box, opt.count)),
      transport_(layout_.count()) {
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
  shards_.resize(static_cast<std::size_t>(layout_.count()));
  for (int s = 0; s < layout_.count(); ++s) {
    shards_[static_cast<std::size_t>(s)].rank = s;
  }
}

ShardEngine::~ShardEngine() = default;

template <typename F>
void ShardEngine::for_each_shard(F&& f) {
  // shared: shards_ (one shard per iteration); anything else f writes is
  // shared: named at its call site.
  opt_.pool->parallel_for_chunks(
      layout_.count(), 1, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t si = b; si < e; ++si) {
          f(shards_[static_cast<std::size_t>(si)]);
        }
      });
}

void ShardEngine::send_exports(Shard& s, MsgKind kind, int species,
                               std::uint32_t tag) {
  const Fields fs = wire_fields(kind, tag);
  const std::uint32_t words = width_of(fs);
  const std::vector<std::int64_t>& res = s.res[species];
  for (const Shard::Export& ex : s.exports) {
    const std::vector<std::int32_t>& idx = ex.idx[species];
    if (idx.empty()) continue;
    Message m;
    m.kind = kind;
    m.from = s.rank;
    m.to = ex.to;
    m.tag = tag;
    m.words = words;
    // Loads carry ids (they build the halo); refreshes land positionally.
    if (kind == MsgKind::kGhostLoad) m.ids.reserve(idx.size());
    m.payload.reserve(words * idx.size());
    for (const std::int32_t j : idx) {
      const std::size_t u = static_cast<std::size_t>(j);
      if (kind == MsgKind::kGhostLoad) m.ids.push_back(res[u]);
      pack(fs, s.local[species], u, m.payload);
    }
    transport_.send(std::move(m));
  }
}

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
  const auto species_of = [this](std::int64_t id) {
    return static_cast<std::size_t>(id) < n_dm_ ? kDm : kGas;
  };
  if (!assigned_ || pos.size() != n_dm_ + n_gas_) {
    // Initial distribution: residency is assigned directly from positions,
    // the way an MPI run would scatter its initial conditions.
    for (Shard& s : shards_) {
      for (auto& r : s.res) r.clear();
    }
    for (std::size_t id = 0; id < pos.size(); ++id) {
      const std::int64_t gid = static_cast<std::int64_t>(id);
      shards_[static_cast<std::size_t>(layout_.owner_of(pos[id]))]
          .res[species_of(gid)]
          .push_back(gid);
    }
    assigned_ = true;
  } else {
    // Residency handover: each shard scans its residents against the
    // layout, keeps the stayers in order, and mails the leavers to their
    // new owners.  Combined global ids disambiguate the species.
    // shared: transport_ (thread-safe send), pos (read-only).
    for_each_shard([&](Shard& s) {
      std::vector<std::vector<std::int64_t>> leaving(
          static_cast<std::size_t>(count));
      for (std::vector<std::int64_t>& res : s.res) {
        std::size_t keep = 0;
        for (const std::int64_t id : res) {
          const int owner = layout_.owner_of(pos[static_cast<std::size_t>(id)]);
          if (owner == s.rank) {
            res[keep++] = id;
          } else {
            leaving[static_cast<std::size_t>(owner)].push_back(id);
          }
        }
        res.resize(keep);
      }
      for (int dest = 0; dest < count; ++dest) {
        auto& ids = leaving[static_cast<std::size_t>(dest)];
        if (ids.empty()) continue;
        Message m;
        m.kind = MsgKind::kMigrate;
        m.from = s.rank;
        m.to = dest;
        m.ids = std::move(ids);
        transport_.send(std::move(m));
      }
    });
    std::atomic<std::uint64_t> arrived{0};
    // shared: transport_ (per-rank receive), arrived (atomic integer sum).
    for_each_shard([&](Shard& s) {
      for (const Message& m : transport_.receive(s.rank)) {
        for (const std::int64_t id : m.ids) s.res[species_of(id)].push_back(id);
        arrived += m.ids.size();
      }
    });
    stats_.migrated += arrived;
  }
  // Canonical residency order: sorting by global id makes every resident
  // list a pure function of the position set, independent of migration
  // history.  A restarted run reshards from scratch yet rebuilds the same
  // local arrays — and therefore the same trees, walk order, and bitwise
  // force sums — as the run that arrived here step by step.
  for_each_shard([](Shard& s) {
    for (auto& r : s.res) std::sort(r.begin(), r.end());
  });
  ++stats_.reshards;
  if (opt_.rebuild == domain::RebuildPolicy::kDisplacement &&
      opt_.skin > 0.0) {
    ref_pos_.assign(pos.begin(), pos.end());
  }
}

void ShardEngine::plan_ghosts(std::span<const util::Vec3d> pos) {
  // shared: pos/layout_ (read-only).
  for_each_shard([&](Shard& s) {
    s.exports.clear();
    for (const int nb : layout_.neighbors_within(s.rank, ghost_radius_)) {
      Shard::Export ex;
      ex.to = nb;
      for (const int sp : kSpecies) {
        const std::vector<std::int64_t>& res = s.res[sp];
        for (std::size_t j = 0; j < res.size(); ++j) {
          const util::Vec3d& p = pos[static_cast<std::size_t>(res[j])];
          if (layout_.distance_to(nb, p) <= ghost_radius_) {
            ex.idx[sp].push_back(static_cast<std::int32_t>(j));
          }
        }
      }
      if (!ex.idx[kDm].empty() || !ex.idx[kGas].empty()) {
        s.exports.push_back(std::move(ex));
      }
    }
  });
}

void ShardEngine::load_residents(const ParticleSet& dm,
                                 const ParticleSet& gas) {
  // Solver -> shard boundary: each shard gathers its residents' load fields
  // from the canonical sets (rank-local under MPI).  This also drops last
  // evaluation's ghosts; exchange_ghost_load() appends the new ones.
  const ParticleSet* canonical[] = {&dm, &gas};
  const std::size_t first_id[] = {0, n_dm_};
  // shared: dm/gas (read-only).
  for_each_shard([&](Shard& s) {
    for (const int sp : kSpecies) {
      const std::vector<std::int64_t>& res = s.res[sp];
      resize_local(s.local[sp], sp, res.size());
      for (std::size_t j = 0; j < res.size(); ++j) {
        copy_fields(kLoad[sp], *canonical[sp],
                    static_cast<std::size_t>(res[j]) - first_id[sp],
                    s.local[sp], j);
      }
    }
  });
}

void ShardEngine::exchange_ghost_load() {
  // Pack + send: owners broadcast their exported residents' load fields.
  // shared: transport_ (thread-safe send).
  for_each_shard([&](Shard& s) {
    for (const int sp : kSpecies) {
      send_exports(s, MsgKind::kGhostLoad, sp, static_cast<std::uint32_t>(sp));
    }
  });
  // Drain + unpack, in the transport's canonical sender order.  Between
  // reshards the plans are frozen, so the halo keeps its shape and only
  // its values change; after a reshard it is rebuilt.
  std::atomic<std::uint64_t> copies{0};
  // shared: transport_ (per-rank receive), copies (atomic integer sum).
  for_each_shard([&](Shard& s) {
    for (auto& g : s.gho) g.clear();
    for (const Message& m : transport_.receive(s.rank)) {
      const int sp = static_cast<int>(m.tag);
      ParticleSet& p = s.local[sp];
      const std::size_t base = p.size();
      resize_local(p, sp, base + m.ids.size());
      unpack(m, p, base);
      s.gho[sp].insert(s.gho[sp].end(), m.ids.begin(), m.ids.end());
      copies += m.ids.size();
    }
  });
  stats_.ghost_copies += copies;
}

void ShardEngine::update_domains() {
  std::atomic<std::uint64_t> builds{0}, reuses{0};
  // Per-shard trees build serially inside a shard (the shard is the unit of
  // parallelism here), so the outer loop carries all the concurrency.
  // shared: builds/reuses (atomic integer sums).
  for_each_shard([&](Shard& s) {
    s.pos.clear();
    for (const ParticleSet& p : s.local) {
      for (std::size_t j = 0; j < p.size(); ++j) s.pos.push_back(p.pos_of(j));
    }
    if (s.pos.empty()) return;  // an empty shard has no tree to keep current
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
    s.dom->update(s.pos, s.local[kDm].size());
    builds += s.dom->stats().builds - before.builds;
    reuses += s.dom->stats().reuses - before.reuses;
  });
  stats_.tree_builds += builds;
  stats_.tree_reuses += reuses;
}

void ShardEngine::prepare(const ParticleSet& dm, const ParticleSet& gas,
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
  pp_accel_.assign(n, util::Vec3d{});
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
  // shared: pp_accel_/ax/ay/az (resident slots are owned by exactly one
  // shared: shard).
  for_each_shard([&](Shard& s) {
    const std::size_t nl = s.pos.size();
    s.acc.assign(3 * nl, 0.0);
    if (nl == 0 || !s.dom || !s.dom->ready()) return;
    const auto gather = [&s](std::vector<float>& out,
                             std::vector<float> ParticleSet::*field) {
      out.clear();
      for (const ParticleSet& p : s.local) {
        out.insert(out.end(), (p.*field).begin(), (p.*field).end());
      }
    };
    gather(s.lx, &ParticleSet::x);
    gather(s.ly, &ParticleSet::y);
    gather(s.lz, &ParticleSet::z);
    gather(s.lmass, &ParticleSet::mass);
    // Combined-order offset of each species' first resident.
    const std::size_t base[] = {0, s.local[kDm].size()};
    const std::size_t n_dm_res = s.res[kDm].size();
    const std::size_t gas_res_end = base[kGas] + s.res[kGas].size();
    const auto is_resident = [&](std::int32_t l) {
      const std::size_t u = static_cast<std::size_t>(l);
      return u < n_dm_res || (u >= base[kGas] && u < gas_res_end);
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
    // Scatter the resident sums: double for the parity suite, float for the
    // solver's kick path.
    for (const int sp : kSpecies) {
      for (std::size_t j = 0; j < s.res[sp].size(); ++j) {
        const std::size_t g = static_cast<std::size_t>(s.res[sp][j]);
        const double* a = s.acc.data() + 3 * (base[sp] + j);
        pp_accel_[g] = {a[0], a[1], a[2]};
        ax[g] = static_cast<float>(a[0]);
        ay[g] = static_cast<float>(a[1]);
        az[g] = static_cast<float>(a[2]);
      }
    }
  });
}

void ShardEngine::refresh_ghost_fields(std::uint32_t round) {
  // Owners re-broadcast the fields the kernel just wrote, over the frozen
  // export plans.
  // shared: transport_ (thread-safe send).
  for_each_shard([&](Shard& s) {
    send_exports(s, MsgKind::kGhostRefresh, kGas, round);
  });
  // Unpack positionally into the halo: same senders, same counts, same
  // canonical order as the load phase.
  // shared: transport_ (per-rank receive).
  for_each_shard([&](Shard& s) {
    ParticleSet& p = s.local[kGas];
    std::size_t slot = s.res[kGas].size();
    for (const Message& m : transport_.receive(s.rank)) {
      slot += unpack(m, p, slot);
    }
    if (slot != p.size()) {
      throw std::logic_error(
          "ShardEngine: ghost refresh did not cover the halo — import "
          "blocks out of sync with the export plans");
    }
  });
}

void ShardEngine::run_sph(ParticleSet& gas, xsycl::Queue& q,
                          const SphParams& sph) {
  if (gas.size() != n_gas_) {
    throw std::invalid_argument(
        "ShardEngine::run_sph: gas must be the gas set of the last prepare()");
  }
  const obs::TraceSpan span("shard.sph");
  const auto has_gas = [](const Shard& s) {
    return s.local[kGas].size() > 0 && s.dom && s.dom->ready();
  };
  // One tree walk per shard feeds all five kernels (the same economy as the
  // single-domain solver).
  for_each_shard([&](Shard& s) {
    if (has_gas(s)) {
      sph::collect_gas_pairs(*s.dom, sph::support_cutoff(s.local[kGas]),
                             s.sph_pairs);
    } else {
      s.sph_pairs.clear();
    }
  });
  // Kernel chain: within each kernel the shards run one after another (each
  // launch is internally pool-parallel), with owner -> ghost field refreshes
  // between dependent kernels.
  std::vector<sph::ChainPart> parts;
  for (Shard& s : shards_) {
    if (has_gas(s)) {
      parts.push_back({&s.local[kGas], s.dom->second(), s.sph_pairs});
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

void ShardEngine::scatter_gas(ParticleSet& gas) {
  // Shard -> solver boundary: every kernel-written field of each resident
  // goes back to the canonical set.  Residents partition the gas ids, so
  // the writes are disjoint and bit-identical for any thread count.
  // shared: gas (each global slot owned by exactly one shard).
  for_each_shard([&](Shard& s) {
    const std::vector<std::int64_t>& res = s.res[kGas];
    for (std::size_t j = 0; j < res.size(); ++j) {
      copy_fields(kOutputs, s.local[kGas], j, gas,
                  static_cast<std::size_t>(res[j]) - n_dm_);
    }
  });
}

ShardEngine::ShardView ShardEngine::shard_view(int shard) const {
  if (shard < 0 || shard >= layout_.count()) {
    throw std::out_of_range("ShardEngine::shard_view: bad shard index");
  }
  const Shard& s = shards_[static_cast<std::size_t>(shard)];
  ShardView v;
  v.res_dm = s.res[kDm];
  v.res_gas = s.res[kGas];
  v.gho_dm = s.gho[kDm];
  v.gho_gas = s.gho[kGas];
  v.gas_local = &s.local[kGas];
  v.dom = s.dom.get();
  return v;
}

}  // namespace hacc::shard
