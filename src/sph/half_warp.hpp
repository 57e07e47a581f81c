#pragma once

// The half-warp pair-interaction harness (paper §5.3, Figs. 3-4): one
// sub-group processes one interacting leaf pair.  The lower half of the
// sub-group owns particles from leaf A, the upper half from leaf B; each
// round of the partner schedule exchanges states so that when a lower lane
// evaluates (i, j), an upper lane simultaneously evaluates (j, i) — the
// pair-wise symmetry the algorithm requires.
//
// The Broadcast variant restructures the loop (§5.3.2): every lane owns an
// A-particle, B-particles are broadcast one at a time, partial forces on the
// broadcast particle are combined with reduce_over_group, and only one
// atomic update per particle is issued — "fewer atomic instructions".

#include <algorithm>
#include <cmath>
#include <concepts>
#include <limits>
#include <string>

#include "domain/domain.hpp"
#include "sph/lane_block.hpp"
#include "tree/rcb.hpp"
#include "util/vec3.hpp"
#include "xsycl/atomic.hpp"
#include "xsycl/comm_variant.hpp"
#include "xsycl/queue.hpp"

namespace hacc::sph {

// Traits contract (see geometry.hpp etc. for implementations):
//   using State;                       // trivially copyable, 4-byte multiple
//   using Accum;                       // value-initializes to zero
//   static constexpr int kAccumWords;  // floats committed per particle
//   float box;                         // periodic box the pair terms wrap in
//   State load(std::int32_t i) const;
//   // False only where the pair term of `own` with `other` is exactly zero.
//   bool reaches(const State& own, const State& other) const;
//   // Bound on the distance at which `own` reaches any partner whose h is
//   // at most `hmax_other`; never decreases as `hmax_other` grows.
//   double reach_radius(const State& own, float hmax_other) const;
//   // Adds the pair term to `acc`; called only for pairs that reach.
//   void accumulate(Accum& acc, const State& own, const State& other) const;
//   void commit(xsycl::SubGroup&, std::int32_t idx, const Accum&) const;
//   // Exactly the counters `commit` charges.
//   static void charge_commit(xsycl::OpCounters&);
// Optionally, a four-lane form of reaches + accumulate (BlockTraits below):
//   static constexpr std::array kLaneFields;  // &State::x, ... it reads
//   using Accum4;                      // four lanes' Accum; zero-initializes
//   // Adds the terms of four own lanes with four partners where `pair`
//   // holds and the pair reaches; returns the lanes that reached.
//   Mask4 accumulate4(Accum4&, const LaneBlock<N>& own,
//                     const LaneBlock<N>& other, Mask4 pair) const;
//   static Accum lane(const Accum4&, int k);
//
// Skipping a pair that does not reach adds nothing to an accumulator that
// started at +0, so culling leaves every result bit unchanged.  The op
// counters model the GPU, which evaluates every candidate lane pair: each
// one counts as an interaction, reached or not, and every exchange round is
// charged in full even where the CPU reads the partner lane in place.
//
// Four more pieces spare the CPU work, and change no output bit and no
// counter:
//   - Bounds cull.  After a tile loads, each lane is tested against the
//     bounds of the other half (half_tile_bounds / beyond_reach).  A lane
//     that reaches none of them runs no candidate tests; its candidates are
//     counted arithmetically.
//   - Lane-major order.  Select and vISA loop over lanes (or blocks of
//     four lanes, below) outside and rounds inside, reading the partner
//     lane in place.  Each lane's sum still receives its terms in round
//     order, so no bit changes.  Memory32 and MemoryObject keep the
//     round-major loop: each round's local-memory exchange fills `theirs`.
//   - Vector blocks.  Under Select and vISA, Traits with a four-lane form
//     run four own lanes at a time once a half holds at least four lanes
//     (block_rounds).  The tile is stored as per-field arrays (LaneTile),
//     each half twice.  A Select round of four lanes is one aligned load at
//     l0 ^ (H | (r & ~3)) and one of four fixed shuffles, by r & 3; a vISA
//     round is one unaligned load from the doubled copy of the other half.
//     Empty partners, self pairs and pairs out of reach are masked, not
//     branched around; an unreached lane adds +0, the identity on a sum
//     that starts at +0 (below).  Every lane gets the float operations of
//     reaches + accumulate, in round order: the build targets baseline
//     x86-64, which has no FMA to contract into, and sqrtps and divps round
//     correctly, as the scalar instructions do.  A -march, -mfma or
//     -ffast-math change may move these bits, and must re-record the
//     output bit snapshots explicitly.
//   - Charge-only commits.  An accumulator that received no term is all +0
//     and is not committed; charge_commit adds the counts commit would have.
//     This is exact because every pair-kernel output is zero-filled (+0)
//     before its launch and only accumulated afterwards, so it is never -0:
//     x + (+0) == x, and fetch_max(+0) is a no-op on a vsig that starts at 0
//     and only grows.

// ---- Per-lane bounds cull ----

// Smoothing length of a lane state; 0 for states without one (P-P).
template <typename State>
inline float lane_h(const State& s) {
  if constexpr (requires { s.h; }) {
    return s.h;
  } else {
    return 0.f;
  }
}

// Bounds of the valid lanes of one half-tile.
struct HalfTileBounds {
  util::Vec3d lo{std::numeric_limits<double>::infinity()};
  util::Vec3d hi{-std::numeric_limits<double>::infinity()};
  double extent = 0.0;  // largest |coordinate|: scales the rounding margin
  float hmax = 0.f;     // largest h, at least 0
  int n_valid = 0;
  bool finite = true;   // every valid position and h is finite
};

template <typename State>
HalfTileBounds half_tile_bounds(const State* lanes, int n) {
  HalfTileBounds b;
  for (int k = 0; k < n; ++k) {
    const State& s = lanes[k];
    if (!s.valid) continue;
    ++b.n_valid;
    const util::Vec3d p{s.px, s.py, s.pz};
    const float h = lane_h(s);
    b.finite = b.finite && std::isfinite(p.x) && std::isfinite(p.y) &&
               std::isfinite(p.z) && std::isfinite(h);
    for (int a = 0; a < 3; ++a) {
      b.lo[a] = std::min(b.lo[a], p[a]);
      b.hi[a] = std::max(b.hi[a], p[a]);
      b.extent = std::max(b.extent, std::fabs(p[a]));
    }
    b.hmax = std::max(b.hmax, h);
  }
  return b;
}

// Lower bound on the periodic distance, along one axis, from p to any point
// of [lo, hi].
inline double periodic_gap(double p, double lo, double hi, double box) {
  const double w = hi - lo;
  double t = p - lo;  // reduced to [0, box]: p's offset past lo
  if (t < 0.0) t += box;
  if (!(t >= 0.0 && t < box)) {
    t = std::fmod(t, box);
    if (t < 0.0) t += box;
  }
  if (w >= box || t <= w) return 0.0;
  return std::min(t - w, box - t);
}

// True only if `own` reaches no member of `other` within `radius`: the
// minimum-image distance to the box bounds every member's distance from
// below.  The margin covers the float rounding of the pair's own r.  The
// subtraction, the box multiple and the wrap each round to half an ulp of
// values up to 2 (|coordinate| + box), under 2^-22 (box + extent) per axis
// in all; 2^-20 covers three axes.  The squares, sum and sqrt add a few
// relative ulps, far inside 1e-4.  A non-finite position or h on either
// side, or a radius that is not positive, keeps the lane live.
template <typename State>
bool beyond_reach(const State& own, const HalfTileBounds& other, double radius,
                  double box) {
  if (other.n_valid == 0) return true;
  const util::Vec3d p{own.px, own.py, own.pz};
  if (!(other.finite && std::isfinite(p.x) && std::isfinite(p.y) &&
        std::isfinite(p.z) && std::isfinite(lane_h(own)) && radius > 0.0 &&
        std::isfinite(radius) && box > 0.0 && std::isfinite(box))) {
    return false;
  }
  double d2 = 0.0;
  double extent = other.extent;
  for (int a = 0; a < 3; ++a) {
    const double g = periodic_gap(p[a], other.lo[a], other.hi[a], box);
    d2 += g * g;
    extent = std::max(extent, std::fabs(p[a]));
  }
  const double reach = (radius + 0x1p-20 * (box + extent)) * (1.0 + 1e-4);
  return d2 > reach * reach;
}

// Adds the term of `own` with `other` to `acc` and counts the candidate
// pair, unless `other` is an empty lane or `own` itself.  Returns whether a
// term was added.
template <typename Traits>
bool add_pair(const Traits& traits, std::uint64_t& interactions,
              typename Traits::Accum& acc, const typename Traits::State& own,
              const typename Traits::State& other) {
  if (!other.valid || other.idx == own.idx) return false;
  ++interactions;
  if (!traits.reaches(own, other)) return false;
  traits.accumulate(acc, own, other);
  return true;
}

// The lane registers of one tile.  Before the partner rounds run, `mine`
// holds the tile, `live` marks the lanes that own a particle and were not
// culled, and the sums of the live lanes are +0 and untouched.
template <typename Traits>
struct TileRegisters {
  xsycl::Varying<typename Traits::State> mine;
  xsycl::Varying<bool> live;
  xsycl::Varying<typename Traits::Accum> acc;
  xsycl::Varying<bool> touched;  // some term reached the lane's sum
  std::uint64_t interactions = 0;
};

// Traits with a four-lane form of reaches + accumulate.
template <typename Traits>
concept BlockTraits =
    requires(const Traits& t, typename Traits::Accum4& acc,
             const LaneBlock<Traits::kLaneFields.size()>& b, Mask4 m) {
      { t.accumulate4(acc, b, b, m) } -> std::same_as<Mask4>;
      { Traits::lane(acc, 0) } -> std::same_as<typename Traits::Accum>;
    };

// The Select or vISA partner rounds of the live lanes of a tile of
// `sg_size` lanes, one lane at a time: lanes outside, rounds inside, each
// partner read in place.
template <typename Traits>
void lane_rounds(const Traits& traits, xsycl::CommVariant v, int sg_size,
                 TileRegisters<Traits>& t) {
  for (int l = 0; l < sg_size; ++l) {
    if (!t.live[l]) continue;
    for (int r = 0; r < sg_size / 2; ++r) {
      const auto& other = t.mine[xsycl::partner_lane(v, l, r, sg_size)];
      if (add_pair(traits, t.interactions, t.acc[l], t.mine[l], other)) {
        t.touched[l] = true;
      }
    }
  }
}

// The same rounds four own lanes at a time: each round of a block is one
// masked vector op (see "Vector blocks" above).  Needs sg_size >= 8.
template <BlockTraits Traits>
void block_rounds(const Traits& traits, xsycl::CommVariant v, int sg_size,
                  TileRegisters<Traits>& t) {
  const int H = sg_size / 2;
  const LaneTile<typename Traits::State, Traits::kLaneFields> tile(t.mine, sg_size);
  for (int l0 = 0; l0 < sg_size; l0 += kBlockLanes) {
    const auto live = Ints4([&](auto k) { return t.live[l0 + k] ? 1 : 0; }) != 0;
    if (stdx::none_of(live)) continue;
    const int h = l0 < H ? 0 : 1;  // own half; the partners are in 1 - h
    const int j0 = l0 - H * h;
    const auto own = tile.load(h, j0);
    typename Traits::Accum4 acc{};
    Mask4 reached(false);
    int pairs = 0;
    for (int r = 0; r < H; ++r) {
      const auto other = tile.partners(v, h, j0, r);
      const auto pair = live && other.valid != 0 && other.idx != own.idx;
      pairs += stdx::popcount(pair);
      reached = reached || traits.accumulate4(acc, own, other, float_mask(pair));
    }
    t.interactions += static_cast<std::uint64_t>(pairs);
    for (int k = 0; k < kBlockLanes; ++k) {
      if (!t.live[l0 + k]) continue;
      t.acc[l0 + k] = Traits::lane(acc, k);
      t.touched[l0 + k] = reached[k];
    }
  }
}

// Select and vISA: vector blocks where the Traits and the sub-group size
// allow them, else one lane at a time.
template <typename Traits>
void register_rounds(const Traits& traits, xsycl::CommVariant v, int sg_size,
                     TileRegisters<Traits>& t) {
  if constexpr (BlockTraits<Traits>) {
    if (sg_size / 2 >= kBlockLanes) return block_rounds(traits, v, sg_size, t);
  }
  lane_rounds(traits, v, sg_size, t);
}

template <typename Traits>
class PairInteractionKernel {
 public:
  using State = typename Traits::State;
  using Accum = typename Traits::Accum;

  // The view supplies the per-leaf slot ranges and the slot -> particle
  // permutation — either a whole tree (implicit conversion) or a
  // species-filtered window from domain::InteractionDomain.
  PairInteractionKernel(std::string name, Traits traits,
                        const domain::SpeciesView& view,
                        const tree::LeafPair* pairs, std::size_t n_pairs,
                        xsycl::CommVariant variant)
      : name_(std::move(name)),
        traits_(std::move(traits)),
        leaves_(view.leaves),
        order_(view.order),
        pairs_(pairs),
        n_pairs_(n_pairs),
        variant_(variant) {}

  std::string name() const { return name_; }
  std::size_t n_pairs() const { return n_pairs_; }

  std::size_t local_bytes_per_sg(int sg_size) const {
    return xsycl::local_bytes_for(variant_, sg_size, sizeof(State));
  }

  void operator()(xsycl::SubGroup& sg) const {
    if (sg.index() >= n_pairs_) return;
    const tree::LeafPair lp = pairs_[sg.index()];
    if (variant_ == xsycl::CommVariant::kBroadcast) {
      run_broadcast(sg, lp);
    } else {
      run_exchange(sg, lp);
    }
  }

 private:
  static int ceil_div(int a, int b) { return (a + b - 1) / b; }

  // Loads `width` particles starting at tree slot `slot0` of `leaf` into
  // lanes [lane0, lane0+width).
  void load_tile(xsycl::SubGroup& sg, const tree::Leaf& leaf, int slot0, int lane0,
                 int width, xsycl::Varying<State>& mine,
                 xsycl::Varying<bool>& active, xsycl::Varying<std::int32_t>& idx) const {
    for (int k = 0; k < width; ++k) {
      const int lane = lane0 + k;
      const std::int32_t slot = slot0 + k;
      const bool ok = slot < leaf.end;
      active[lane] = ok;
      if (ok) {
        idx[lane] = order_[slot];
        mine[lane] = traits_.load(idx[lane]);
      } else {
        idx[lane] = 0;
        mine[lane] = State{};
        mine[lane].valid = 0;
      }
    }
    sg.counters().global_loads += static_cast<std::uint64_t>(width);
  }

  // Commits a sum, or only charges its commit when no term reached it.
  void commit(xsycl::SubGroup& sg, std::int32_t idx, const Accum& acc,
              bool touched) const {
    if (touched) {
      traits_.commit(sg, idx, acc);
    } else {
      Traits::charge_commit(sg.counters());
    }
  }

  void run_exchange(xsycl::SubGroup& sg, const tree::LeafPair& lp) const {
    const int S = sg.size();
    const int H = S / 2;
    const tree::Leaf& la = leaves_[lp.a];
    const tree::Leaf& lb = leaves_[lp.b];
    const bool self = lp.a == lp.b;
    const int tiles_a = ceil_div(la.count(), H);
    const int tiles_b = ceil_div(lb.count(), H);

    // Lane registers, shared by every tile: each tile rewrites lanes [0, S)
    // before reading them.
    TileRegisters<Traits> t;
    xsycl::Varying<State>& mine = t.mine;
    xsycl::Varying<State> theirs;
    xsycl::Varying<bool> active;  // owns a particle and commits its sum
    xsycl::Varying<std::int32_t> idx;

    for (int ta = 0; ta < tiles_a; ++ta) {
      for (int tb = self ? ta : 0; tb < tiles_b; ++tb) {
        load_tile(sg, la, la.begin + ta * H, /*lane0=*/0, H, mine, active, idx);
        load_tile(sg, lb, lb.begin + tb * H, /*lane0=*/H, H, mine, active, idx);
        // On the diagonal both halves hold the same slice: the lower half
        // already covers every ordered pair, so the upper half only serves
        // as the exchange source and must not accumulate or commit.
        const bool diagonal = self && ta == tb;
        if (diagonal) {
          for (int l = H; l < S; ++l) active[l] = false;
        }
        const HalfTileBounds half[2] = {half_tile_bounds(&mine[0], H),
                                        half_tile_bounds(&mine[H], H)};
        for (int l = 0; l < S; ++l) {
          t.live[l] = false;
          t.touched[l] = false;
          if (!active[l]) continue;
          const HalfTileBounds& other = half[l < H ? 1 : 0];
          if (beyond_reach(mine[l], other, traits_.reach_radius(mine[l], other.hmax),
                           traits_.box)) {
            t.interactions +=
                static_cast<std::uint64_t>(other.n_valid - (diagonal ? 1 : 0));
            continue;
          }
          t.live[l] = true;
          t.acc[l] = Accum{};
        }

        if (xsycl::permutes_registers(variant_)) {
          // Select and vISA: read the partner lane of `mine` in place.
          for (int r = 0; r < H; ++r) {
            xsycl::charge_register_exchange(sg, variant_, sizeof(State));
          }
          register_rounds(traits_, variant_, S, t);
        } else {
          // The SLM variants round-trip the partner through local memory.
          for (int r = 0; r < H; ++r) {
            xsycl::exchange(sg, mine, r, variant_, theirs);
            for (int l = 0; l < S; ++l) {
              if (t.live[l] &&
                  add_pair(traits_, t.interactions, t.acc[l], mine[l], theirs[l])) {
                t.touched[l] = true;
              }
            }
          }
        }
        for (int l = 0; l < S; ++l) {
          if (active[l]) commit(sg, idx[l], t.acc[l], t.touched[l]);
        }
      }
    }
    sg.counters().interactions += t.interactions;
  }

  void run_broadcast(xsycl::SubGroup& sg, const tree::LeafPair& lp) const {
    const int S = sg.size();
    const tree::Leaf& la = leaves_[lp.a];
    const tree::Leaf& lb = leaves_[lp.b];
    const bool self = lp.a == lp.b;
    const int tiles_a = ceil_div(la.count(), S);
    const int tiles_b = ceil_div(lb.count(), S);

    xsycl::Varying<State> mine, bstate;
    xsycl::Varying<bool> active, bactive, touched;
    xsycl::Varying<std::int32_t> idx, bidx;
    xsycl::Varying<Accum> acc;
    std::uint64_t interactions = 0;

    for (int ta = 0; ta < tiles_a; ++ta) {
      // Every lane owns one A-particle (loads BOTH interaction sides, §5.3.2).
      load_tile(sg, la, la.begin + ta * S, 0, S, mine, active, idx);
      for (int l = 0; l < S; ++l) {
        acc[l] = Accum{};
        touched[l] = false;
      }
      const HalfTileBounds a_bounds = half_tile_bounds(&mine[0], S);

      for (int tb = 0; tb < tiles_b; ++tb) {
        load_tile(sg, lb, lb.begin + tb * S, 0, S, bstate, bactive, bidx);
        // Distance at which an A-lane reaches any particle of this B-tile;
        // 0 (never cull) once one lane's radius is not positive.
        const float b_hmax = half_tile_bounds(&bstate[0], S).hmax;
        double a_reach = 0.0;
        for (int l = 0; l < S; ++l) {
          if (!active[l]) continue;
          const double r = traits_.reach_radius(mine[l], b_hmax);
          if (!(r > 0.0)) {
            a_reach = 0.0;
            break;
          }
          a_reach = std::max(a_reach, r);
        }
        // Candidates of a culled broadcast particle, per direction.
        const auto n_candidates = static_cast<std::uint64_t>(
            a_bounds.n_valid - (self && ta == tb ? 1 : 0));

        const int bwidth = std::min(S, lb.end - (lb.begin + tb * S));
        for (int jj = 0; jj < bwidth; ++jj) {
          const State other = xsycl::broadcast_object(sg, bstate, jj);
          if (!other.valid) continue;
          // The radius covers both directions: `other` reaching an A-lane
          // and an A-lane reaching `other`.
          if (a_reach > 0.0 &&
              beyond_reach(other, a_bounds,
                           std::max(traits_.reach_radius(other, a_bounds.hmax), a_reach),
                           traits_.box)) {
            interactions += self ? n_candidates : 2 * n_candidates;
            if (!self) {
              sg.counters().reduce_ops += Traits::kAccumWords;
              Traits::charge_commit(sg.counters());
            }
            continue;
          }
          // Contribution to each lane's own particle.
          for (int l = 0; l < S; ++l) {
            if (active[l] && add_pair(traits_, interactions, acc[l], mine[l], other)) {
              touched[l] = true;
            }
          }
          if (!self) {
            // Redundantly compute the mirrored contribution (j, i) on every
            // lane, combine with a reduction, and issue ONE atomic commit.
            // The lanes' terms are summed in lane order, as the reduction
            // adds them.
            Accum sum{};
            bool any = false;
            for (int l = 0; l < S; ++l) {
              if (active[l] && add_pair(traits_, interactions, sum, other, mine[l])) any = true;
            }
            sg.counters().reduce_ops += Traits::kAccumWords;
            commit(sg, other.idx, sum, any);
          }
        }
      }
      for (int l = 0; l < S; ++l) {
        if (active[l]) commit(sg, idx[l], acc[l], touched[l]);
      }
    }
    sg.counters().interactions += interactions;
  }

  std::string name_;
  Traits traits_;
  const tree::Leaf* leaves_;
  const std::int32_t* order_;
  const tree::LeafPair* pairs_;
  std::size_t n_pairs_;
  xsycl::CommVariant variant_;
};

// Per-particle "finalize" kernels (self terms, moment solves, EOS): one lane
// per particle, S particles per sub-group.
template <typename Body>
class ForEachParticleKernel {
 public:
  ForEachParticleKernel(std::string name, std::size_t n, Body body)
      : name_(std::move(name)), n_(n), body_(std::move(body)) {}

  std::string name() const { return name_; }
  std::size_t local_bytes_per_sg(int) const { return 0; }
  std::size_t n_particles() const { return n_; }

  void operator()(xsycl::SubGroup& sg) const {
    for (int l = 0; l < sg.size(); ++l) {
      const std::size_t i = sg.index() * static_cast<std::size_t>(sg.size()) + l;
      if (i < n_) body_(static_cast<std::int32_t>(i));
    }
    sg.counters().global_loads += static_cast<std::uint64_t>(sg.size());
    sg.counters().global_stores += static_cast<std::uint64_t>(sg.size());
  }

 private:
  std::string name_;
  std::size_t n_;
  Body body_;
};

// Sub-groups needed to cover n particles one lane each.
inline std::uint64_t subgroups_for(std::size_t n, int sg_size) {
  return (n + sg_size - 1) / static_cast<std::size_t>(sg_size);
}

// Submits one PairInteractionKernel launch per batch of the pair source and
// accumulates the per-launch stats into a single record — the one batching
// loop shared by the SPH kernel runners and gravity's run_pp_short.
template <typename Traits>
xsycl::LaunchStats launch_pair_batches(xsycl::Queue& q, const std::string& name,
                                       const Traits& traits,
                                       const domain::SpeciesView& view,
                                       const domain::PairSource& pairs,
                                       xsycl::CommVariant variant,
                                       const xsycl::LaunchConfig& launch) {
  xsycl::LaunchStats total;
  total.kernel = name;
  total.sub_group_size = launch.sub_group_size;
  pairs.for_each_batch([&](std::span<const tree::LeafPair> batch) {
    PairInteractionKernel<Traits> kernel(name, traits, view, batch.data(),
                                         batch.size(), variant);
    const xsycl::LaunchStats stats = q.submit(kernel, batch.size(), launch);
    total.n_sub_groups += stats.n_sub_groups;
    total.seconds += stats.seconds;
    total.ops.merge(stats.ops);
  });
  return total;
}

}  // namespace hacc::sph
