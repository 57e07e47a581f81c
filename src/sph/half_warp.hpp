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
// broadcast particle are combined with a sub-group reduction, and only one
// commit per particle is issued — "fewer atomic instructions".
//
// The paper commits with atomics.  Here a commit adds plainly under its
// leaf's flag (below), and charge_commit charges the atomics the paper's
// commit issues, so the op counters still price them.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <concepts>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "domain/domain.hpp"
#include "obs/trace.hpp"
#include "sph/lane_block.hpp"
#include "tree/rcb.hpp"
#include "util/thread_pool.hpp"
#include "util/vec3.hpp"
#include "xsycl/comm_variant.hpp"
#include "xsycl/queue.hpp"

namespace hacc::sph {

// Traits contract (see geometry.hpp etc. for implementations):
//   using State;                       // trivially copyable, 4-byte multiple
//   using Accum;                       // value-initializes to zero
//   static constexpr int kAccumWords;  // floats committed per particle
//   float box;                         // periodic box the pair terms wrap in
//   State load(std::int32_t i) const;  // reads no output of the kernel
//   // False only where the pair term of `own` with `other` is exactly zero
//   // (with a term form below: a template over the lane type, a Mask4 for
//   // a Gather4).
//   bool reaches(const State& own, const State& other) const;
//   // Bound on the distance at which `own` reaches any partner whose h is
//   // at most `hmax_other`.  It depends on `own` only through its h (none
//   // for states without one), and never decreases as that h or
//   // `hmax_other` grows.
//   double reach_radius(const State& own, float hmax_other) const;
//   // The pair term, called only for pairs that reach, in one of two forms.
//   // Either it is added in place:
//   void accumulate(Accum& acc, const State& own, const State& other) const;
//   // or it is returned, written once over the lane type (BatchTraits below):
//   // Lanes is a State (one pair, a term of floats) or a Gather4<State>
//   // (four pairs, a term of Floats4), and Accum::add(term, k) adds lane k
//   // of a term to a sum.
//   template <typename Lanes> Term term(const Lanes& own, const Lanes& other) const;
//   // Adds a sum into particle idx's outputs with plain adds (and plain
//   // max); the harness holds the flag of idx's leaf.
//   void commit(std::int32_t idx, const Accum&) const;
//   // The atomics of one commit in the paper: one per word commit writes.
//   static void charge_commit(xsycl::OpCounters&);
// Optionally, a four-lane form of reaches + accumulate in both directions
// (BlockTraits below), for a reach that is the same both ways:
//   static constexpr std::array kLaneFields;  // &State::px, py, pz, ... it reads
//   using Accum4;                      // four lanes' Accum, one Floats4 a word
//   // Four own lanes with four partners, where `pair` holds: the lanes
//   // that reach, each own lane's term (own) and each partner's term with
//   // its own lane (mirrored), +0 where the pair does not reach.
//   Terms4 terms4(const LaneBlock<N>& own, const LaneBlock<N>& other,
//                 Mask4 pair) const;  // {reach, own, mirrored}
//   static Accum lane(const Accum4&, int k);
//
// Skipping a pair that does not reach adds nothing to an accumulator that
// started at +0, so culling leaves every result bit unchanged.  The op
// counters model the GPU, which evaluates every candidate lane pair: each
// one counts as an interaction, reached or not, and every exchange round is
// charged in full.  The four exchange variants differ only in that charge
// (charge_exchange) and in the partner schedule (partner_lane): the CPU
// reads every variant's partner lane in place, so Memory32 and MemoryObject
// compute Select's bits.
//
// Eight more pieces spare the CPU work, and change no output bit and no
// counter:
//   - Launch-wide states and tile bounds.  Before its first batch, a launch
//     loads the state of every slot of the view's leaves once, in parallel,
//     and the bounds of every tile of the launch's width (S/2 for the
//     exchange variants, S for Broadcast) into one table (PairLaunch).  The
//     states go into one slot-ordered array, or, for a launch of vector
//     blocks (below), into per-field lane arrays.  A tile load then reads
//     contiguous lanes, and charges the global loads it did before.  No kernel loads an
//     output of its own (Extras zeroes rho instead), so a state loaded
//     before the launch equals one loaded during it, and a tile's bounds
//     fold the same lanes in the same order.
//   - Tile-pair cull.  Before a non-diagonal tile pair loads, tiles_apart
//     tests box against box, at a radius that bounds every lane's
//     reach_radius on both sides (tile_pair_reach).  Its gap bounds every
//     lane's beyond_reach gap from below, with the same margin, so a
//     skipped pair is one whose lanes reach nothing: it adds no term, and
//     it is charged what the full path charges for such a pair (both tile
//     loads, every exchange round or broadcast, each lane's candidates in
//     the other half, each lane's commit).  Counted on hydro-paper (seed
//     42, 1 thread, sub-group 32), it skips 42% of the non-diagonal SPH
//     tile pairs and 20% of the P-P ones: 96% and 90% of those in which
//     the per-lane cull leaves no live lane.
//   - Leaf-locked commits.  Each launch holds one spin flag per leaf of its
//     view.  A tile half commits its touched sums under its leaf's flag
//     with plain adds (and a plain max for vsig, with fetch_max's rule);
//     Broadcast's per-B-particle and per-A-tile commits take the flag the
//     same way.  A sum belongs to one leaf, so every write to an output
//     happens under that leaf's flag, in the order the commits take it.
//     At one thread that is the sub-groups' launch order, the order in
//     which atomic adds would land, and a plain float add rounds as an
//     atomic one does: every bit is the same.  At more threads the order
//     follows the schedule, as atomics' would, and sums agree to ~1e-4
//     relative.  The flags hold no counters; the harness charges
//     charge_commit for every commit, touched or not.
//   - Bounds cull.  After a tile loads, each lane is tested against the
//     bounds of the other half, four lanes at a time (cull_tile /
//     box_cull4): a float box test on the half's centre and half-width
//     (half_tile_bounds), whose margin covers its own float rounding on
//     top of the double test's (beyond_reach), so it culls a subset of the
//     lanes beyond_reach culls (on the cull tests' scenarios, all but
//     0.07% of them).  A lane whose position or h is not finite, whose
//     radius is outside (0, inf), or that lies a box or more from the
//     centre takes beyond_reach itself.  A lane that reaches none of the
//     other half runs no candidate tests; its candidates are counted
//     arithmetically.  The cull only decides which lanes run rounds, so
//     any sound cull leaves every bit and counter unchanged.  Where the
//     reach is the same both ways (P-P: r² < r_cut², and r² has the same
//     bits from either side), no lane of the other half reaches a culled
//     lane either.
//   - Lane-major order.  Every exchange variant loops over lanes outside
//     and rounds inside (vector blocks, below, the other way round),
//     reading the partner lane in place.  Each lane's sum still receives
//     its terms in round order, so no bit changes.  A tile whose lanes were
//     all culled runs no rounds at all.
//   - Reach-compacted batches.  Under every exchange variant, Traits with
//     a term form (the five SPH kernels) run in two passes once a half
//     holds at least four lanes (batch_rounds).  Pass 1 tests each live
//     lane's partners four rounds at a time with a four-lane `reaches`
//     and lists the pairs that reach, lane by lane in round order.  Pass 2
//     evaluates the list four pairs at a time as one Floats4 term and adds
//     lane k of it to pair k's own scalar sum, in list order: every sum
//     receives the float operations of lane_rounds in the same order.  The
//     last batch repeats its final pair in its empty slots and drops their
//     terms.  Own-lane blocks (below) do not pay for these kernels: on
//     hydro-paper a tile with a live lane holds ~6 of 32 after the bounds
//     cull, and a live lane reaches ~4 of its 16 candidates, so a block of
//     four own lanes fills ~1.7 lanes of each term vector while every field
//     of the tile (up to 28) is transposed; the batches are 98% full.
//   - Vector blocks and mirrored rounds.  Under every exchange variant,
//     Traits with a four-lane form (P-P) run a tile through block_rounds
//     once a half holds at least four lanes.  The launch stores every
//     tile's lanes once, per field (LaneArrays: the kLaneFields, idx and
//     valid), each tile from a four-aligned element, so four lanes of a
//     field are one aligned load.  Rounds run outside, the lower half's
//     blocks of four inside.  In round r, lower lanes j .. j + 3 meet the
//     upper lanes the schedule pairs them with: the XOR schedule's j ^ r
//     (Select and both Memory variants) are one aligned block and one of
//     four fixed shuffles, by r & 3; vISA's (j + r) mod H span at most two
//     aligned blocks.  Each pair is evaluated once, from one profile, in
//     both directions (terms4): the own term goes to the lower lane's sum,
//     the mirrored term back through the same shuffle to the upper lane's,
//     and the upper lane meets that lower lane in the same round, so both
//     sums receive their terms in round order, as in lane_rounds.  A pair is
//     evaluated only where both lanes are live: a culled lane reaches no
//     lane of the other half, nor does any reach it (Bounds cull).  On a
//     diagonal tile the two halves are one slice: only the lower lanes take
//     terms, and round 0, which pairs each lane with itself, is skipped.
//     Empty partners and pairs out of reach are masked, not branched
//     around; an unreached lane adds +0, the identity on a sum that starts
//     at +0 (below).  Every lane gets the float operations of reaches +
//     accumulate: the build targets baseline x86-64, which has no FMA to
//     contract into, and sqrtps and divps round correctly, as the scalar
//     instructions do.  A -march, -mfma or -ffast-math change may move
//     these bits, and must re-record the output bit snapshots explicitly.
//     A tile's particles are distinct, so a live lane's candidates are
//     counted arithmetically: every particle of the other half, itself
//     excepted on a diagonal tile.  P-P keeps these blocks rather than
//     batches: its term is light and most of its candidates reach, and on
//     the batch path its pp.short_s was 5% slower on cosmo-treepm (median
//     of 6 traced pairs).
//   - Charge-only commits.  An accumulator that received no term is all +0
//     and is not committed, nor is its leaf's flag taken for it.  This is
//     exact because every pair-kernel output is zero-filled (+0) before its
//     launch and only accumulated afterwards, so it is never -0:
//     x + (+0) == x, and a max with +0 is a no-op on a vsig that starts at 0
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
  util::Vec3f c, w;     // float centre and half-width of [lo, hi] (box_cull4)
  double extent = 0.0;  // largest |coordinate|: scales the rounding margin
  float hmax = 0.f;     // largest h, at least 0
  float hmin = std::numeric_limits<float>::infinity();  // smallest h
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
    b.hmin = std::min(b.hmin, h);
  }
  for (int a = 0; a < 3; ++a) {
    b.c[a] = static_cast<float>(0.5 * (b.lo[a] + b.hi[a]));
    b.w[a] = static_cast<float>(0.5 * (b.hi[a] - b.lo[a]));
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

// True only if a lane at `p` of smoothing length `h` reaches no member of
// `other` within `radius`: the minimum-image distance to the box bounds
// every member's distance from below.  The margin covers the float rounding
// of the pair's own r.  The subtraction, the box multiple and the wrap each
// round to half an ulp of values up to 2 (|coordinate| + box), under
// 2^-22 (box + extent) per axis in all; 2^-20 covers three axes.  The
// squares, sum and sqrt add a few relative ulps, far inside 1e-4.  A
// non-finite position or h on either side, or a radius that is not
// positive, keeps the lane live.
inline bool beyond_reach(const util::Vec3d& p, float h, const HalfTileBounds& other,
                         double radius, double box) {
  if (other.n_valid == 0) return true;
  if (!(other.finite && std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z) &&
        std::isfinite(h) && radius > 0.0 && std::isfinite(radius) && box > 0.0 &&
        std::isfinite(box))) {
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

template <typename State>
bool beyond_reach(const State& own, const HalfTileBounds& other, double radius,
                  double box) {
  return beyond_reach(util::Vec3d{own.px, own.py, own.pz}, lane_h(own), other, radius, box);
}

// The positions and h of four lanes, as the cull reads them.
struct LanePositions4 {
  Floats4 x, y, z, h;
};

// The bounds cull of four lanes against one half-tile, in float: bit k is
// set where lane k is culled, and beyond_reach then culls it too.  Along
// each axis the periodic gap from p to [c - w, c + w] is
// max(min(|p - c|, box - |p - c|) - w, 0) for |p - c| < box.  In float
// that gap is off by under 2^-22 (box + extent) per axis, 2^-21 over three:
// half an ulp each of c and w (at most extent), of box, p - c and box - d
// (at most box) and of d - w.  beyond_reach's margin for the pair's own
// float r adds 2^-20 (box + extent'), where extent' = max(extent, |p|) is
// below box + extent: under 2^-18 (box + extent) in all, and the margin
// takes 2^-17.  The float radius, the squares, the sum and the reach round
// to a few relative ulps, far inside the factor 1.001.  A lane whose
// position or h is not finite, whose float radius is outside (0, inf) or
// whose |p - c| reaches box takes beyond_reach at exact_radius(k), its
// double radius.
template <typename ExactRadius>
unsigned box_cull4(const LanePositions4& own, const Floats4& radius,
                   const HalfTileBounds& other, double box, ExactRadius exact_radius) {
  if (other.n_valid == 0) return (1u << kBlockLanes) - 1;
  if (!(other.finite && box > 0.0 && std::isfinite(box))) return 0;
  const auto fbox = static_cast<float>(box);
  const Floats4 p[3] = {own.x, own.y, own.z};
  // Lanes for the scalar test; |x| < inf is false for inf and NaN.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Mask4 scalar = !(stdx::abs(own.h) < kInf && radius > 0.f && radius < kInf);
  Floats4 gap2(0.f);
  for (int a = 0; a < 3; ++a) {
    Floats4 d = stdx::abs(p[a] - other.c[a]);
    scalar = scalar || !(d < fbox);
    d = stdx::min(d, fbox - d);
    const Floats4 g = stdx::max(d - other.w[a], Floats4(0.f));
    gap2 += g * g;
  }
  const auto margin = static_cast<float>(0x1p-17 * (box + other.extent));
  const Floats4 reach = (radius + margin) * 1.001f;
  const Mask4 culled = gap2 > reach * reach && !scalar;
  unsigned bits = 0;
  for (int k = 0; k < kBlockLanes; ++k) bits |= static_cast<unsigned>(bool(culled[k])) << k;
  if (stdx::any_of(scalar)) {
    for (int k = 0; k < kBlockLanes; ++k) {
      if (scalar[k] && beyond_reach(util::Vec3d{own.x[k], own.y[k], own.z[k]}, own.h[k],
                                    other, exact_radius(k), box)) {
        bits |= 1u << k;
      }
    }
  }
  return bits;
}

// ---- Tile-pair cull ----

// True only if no member of `a` reaches a member of `b`, or the reverse,
// when `radius` bounds every member's reach_radius on both sides.  Along
// each axis, the periodic gap from a's low corner to b's interval grown
// down by a's width bounds from below the gap from every member of a to
// every member of b; the margin is beyond_reach's, with the extent of both
// tiles.  A non-finite position or h on either side, or a radius that is
// not positive, keeps the pair.
inline bool tiles_apart(const HalfTileBounds& a, const HalfTileBounds& b, double radius,
                        double box) {
  if (a.n_valid == 0 || b.n_valid == 0) return true;
  if (!(a.finite && b.finite && radius > 0.0 && std::isfinite(radius) && box > 0.0 &&
        std::isfinite(box))) {
    return false;
  }
  double d2 = 0.0;
  for (int ax = 0; ax < 3; ++ax) {
    const double g =
        periodic_gap(a.lo[ax], b.lo[ax] - (a.hi[ax] - a.lo[ax]), b.hi[ax], box);
    d2 += g * g;
  }
  const double extent = std::max(a.extent, b.extent);
  const double reach = (radius + 0x1p-20 * (box + extent)) * (1.0 + 1e-4);
  return d2 > reach * reach;
}

// A state whose only set field is h (none for states without one).
template <typename State>
State with_h(float h) {
  State s{};
  if constexpr (requires { s.h; }) s.h = h;
  return s;
}

// The radius tiles_apart needs for tiles `a` and `b`: the largest
// reach_radius of any member of either against the other, or 0 (keep) when
// some member's is not positive.  reach_radius grows with the own h (the
// Traits contract), so a state of the tile's largest h bounds every member
// and one of its smallest h is the least.
template <typename Traits>
double tile_pair_reach(const Traits& traits, const HalfTileBounds& a,
                       const HalfTileBounds& b) {
  using State = typename Traits::State;
  const auto least = [&](const HalfTileBounds& own, const HalfTileBounds& other) {
    return traits.reach_radius(with_h<State>(own.hmin), other.hmax);
  };
  if (!(least(a, b) > 0.0 && least(b, a) > 0.0)) return 0.0;
  return std::max(traits.reach_radius(with_h<State>(a.hmax), b.hmax),
                  traits.reach_radius(with_h<State>(b.hmax), a.hmax));
}

// Traits whose reach test and pair term are written once over the lane
// type.
template <typename Traits>
concept BatchTraits = requires(const Traits& t, typename Traits::Accum& acc,
                               const typename Traits::State& s,
                               const Gather4<typename Traits::State>& g) {
  { t.reaches(g, g) } -> std::same_as<Mask4>;
  acc.add(t.term(s, s), 0);
  acc.add(t.term(g, g), 0);
};

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
  if constexpr (BatchTraits<Traits>) {
    acc.add(traits.term(own, other), 0);
  } else {
    traits.accumulate(acc, own, other);
  }
  return true;
}

// The lane registers of one tile.  Before the partner rounds run, `live`
// marks the lanes that own a particle and were not culled (cull_tile), and
// the sums of the live lanes are +0 and untouched; `mine` holds the tile,
// except on the vector-block path, which reads the launch's lane arrays.
// The rounds may skip every pair of a lane that is not live: a culled lane
// reaches no lane of the other half.  block_rounds also skips the pairs
// whose other lane is culled, which needs the reverse too: no lane reaches
// a culled lane of the other half, which holds for a reach that is the
// same both ways (see "Bounds cull").
template <typename Traits>
struct TileRegisters {
  xsycl::Varying<typename Traits::State> mine;
  xsycl::Varying<bool> live;
  xsycl::Varying<typename Traits::Accum> acc;
  xsycl::Varying<bool> touched;  // some term reached the lane's sum
  std::uint64_t interactions = 0;
};

// Traits with a four-lane form of reaches + the pair term in both
// directions.
template <typename Traits>
concept BlockTraits =
    requires(const Traits& t, typename Traits::Accum4& acc,
             const LaneBlock<Traits::kLaneFields.size()>& b, Mask4 m) {
      { t.terms4(b, b, m).reach } -> std::convertible_to<Mask4>;
      acc += t.terms4(b, b, m).own;
      acc += t.terms4(b, b, m).mirrored;
      { acc[0] } -> std::same_as<Floats4&>;
      { Traits::lane(acc, 0) } -> std::same_as<typename Traits::Accum>;
    };

// The exchange variant's partner rounds of the live lanes of a tile of
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

// The same rounds as reach-compacted batches of four pairs (see
// "Reach-compacted batches" above).  Needs sg_size >= 8.  Flattened, so
// that the terms inline into the batch loop (2-7% faster per kernel than
// calls).
template <BatchTraits Traits>
[[gnu::flatten]] void batch_rounds(const Traits& traits, xsycl::CommVariant v,
                                   int sg_size, TileRegisters<Traits>& t) {
  constexpr int kMaxPairs = xsycl::kMaxLanes * xsycl::kMaxLanes / 2;
  std::uint8_t own[kMaxPairs];
  std::uint8_t other[kMaxPairs];
  int n = 0;
  for (int l = 0; l < sg_size; ++l) {
    if (!t.live[l]) continue;
    const auto& me = t.mine[l];
    const Gather4<typename Traits::State> owner{{&me, &me, &me, &me}};
    for (int r0 = 0; r0 < sg_size / 2; r0 += kBlockLanes) {
      // Rounds r0 .. r0 + 3 of lane l: the candidates as one Mask4.
      Gather4<typename Traits::State> partners;
      int o[kBlockLanes];
      bool pair[kBlockLanes];
      for (int k = 0; k < kBlockLanes; ++k) {
        o[k] = xsycl::partner_lane(v, l, r0 + k, sg_size);
        partners.s[k] = &t.mine[o[k]];
        pair[k] = t.mine[o[k]].valid && t.mine[o[k]].idx != me.idx;
        t.interactions += pair[k] ? 1 : 0;
      }
      const Mask4 reach = Floats4([&](auto k) { return pair[k] ? 1.f : 0.f; }) != 0.f &&
                          traits.reaches(owner, partners);
      for (int k = 0; k < kBlockLanes; ++k) {
        own[n] = static_cast<std::uint8_t>(l);
        other[n] = static_cast<std::uint8_t>(o[k]);
        n += reach[k] ? 1 : 0;
      }
      if (stdx::any_of(reach)) t.touched[l] = true;
    }
  }
  for (int b = 0; b < n; b += kBlockLanes) {
    Gather4<typename Traits::State> owners, partners;
    for (int k = 0; k < kBlockLanes; ++k) {
      const int p = std::min(b + k, n - 1);
      owners.s[k] = &t.mine[own[p]];
      partners.s[k] = &t.mine[other[p]];
    }
    const auto term = traits.term(owners, partners);
    for (int k = 0; k < std::min(kBlockLanes, n - b); ++k) t.acc[own[b + k]].add(term, k);
  }
}

// The same rounds of a tile whose halves are `lower` and `upper` (one slice
// on a diagonal tile, where `upper` is `lower`), with rounds outside and
// the lower half's blocks of four lanes inside, each pair of live lanes
// evaluated once in both directions (see "Vector blocks and mirrored
// rounds").  Needs sg_size >= 8.
template <BlockTraits Traits>
void block_rounds(const Traits& traits, xsycl::CommVariant v, int sg_size,
                  const HalfLanes<Traits::kLaneFields.size()>& lower,
                  const HalfLanes<Traits::kLaneFields.size()>& upper, bool diagonal,
                  TileRegisters<Traits>& t) {
  constexpr int kMaxHalf = xsycl::kMaxLanes / 2;
  constexpr int kMaxBlocks = kMaxHalf / kBlockLanes;
  const int H = sg_size / 2;
  const bool visa = v == xsycl::CommVariant::kVISA;

  // 1.f for the live lower lanes, and for the upper lanes a live lower lane
  // pairs with: the live ones, or on a diagonal tile every particle (no
  // round after round 0 pairs a lane with itself).
  alignas(kBlockLanes * sizeof(float)) float own_live[kMaxHalf];
  alignas(kBlockLanes * sizeof(float)) float partner_ok[kMaxHalf];
  std::int64_t live[2] = {0, 0}, valid[2] = {0, 0};
  for (int j = 0; j < H; ++j) {
    live[0] += t.live[j] ? 1 : 0;
    live[1] += t.live[H + j] ? 1 : 0;
    valid[0] += lower.valid[j] != 0 ? 1 : 0;
    valid[1] += upper.valid[j] != 0 ? 1 : 0;
    own_live[j] = t.live[j] ? 1.f : 0.f;
    partner_ok[j] = (diagonal ? lower.valid[j] != 0 : t.live[H + j]) ? 1.f : 0.f;
  }
  t.interactions += static_cast<std::uint64_t>(
      diagonal ? live[0] * (valid[0] - 1) : live[0] * valid[1] + live[1] * valid[0]);
  if (live[0] == 0 || (!diagonal && live[1] == 0)) return;

  int own_blocks[kMaxBlocks];  // the lower blocks with a live lane
  int n_own = 0;
  for (int j0 = 0; j0 < H; j0 += kBlockLanes) {
    if (stdx::any_of(load4(own_live + j0) != 0.f)) own_blocks[n_own++] = j0;
  }
  typename Traits::Accum4 own_sum[kMaxBlocks]{}, partner_sum[kMaxBlocks]{};
  Floats4 own_hits[kMaxBlocks]{}, partner_hits[kMaxBlocks]{};  // terms that reached

  // Round r, where S = r & 3.  Lower lanes j0 .. j0 + 3 meet the upper lanes
  // from block p0 on: Select's block j0 ^ (r - S) shuffled by S, or vISA's
  // lanes (j0 + r) mod H onward, rotated by S from block p0 into p1.
  const auto round = [&](auto shuffle, int r) {
    constexpr int S = decltype(shuffle)::value;
    for (int b = 0; b < n_own; ++b) {
      const int j0 = own_blocks[b];
      const int p0 = visa ? (j0 + r - S) % H : j0 ^ (r - S);
      const int p1 = (p0 + kBlockLanes) % H;
      const auto partners = [&](const auto* half) {
        if (!visa) return xor_shuffled<S>(load4(half + p0));
        if constexpr (S == 0) {
          return load4(half + p0);
        } else {
          return rotated<S>(load4(half + p0), load4(half + p1));
        }
      };
      const Mask4 pair = load4(own_live + j0) != 0.f && partners(partner_ok) != 0.f;
      if (stdx::none_of(pair)) continue;
      LaneBlock<Traits::kLaneFields.size()> other;
      for (std::size_t i = 0; i < other.f.size(); ++i) other.f[i] = partners(upper.f[i]);
      const auto terms = traits.terms4(lower.load(j0), other, pair);
      if (stdx::none_of(terms.reach)) continue;
      Floats4 hit(0.f);
      where(terms.reach, hit) = 1.f;
      own_sum[j0 / kBlockLanes] += terms.own;
      own_hits[j0 / kBlockLanes] += hit;
      if (diagonal) continue;
      // The mirrored terms go back through the same permutation; +0 fills
      // the lanes of a block that another term of the round serves.
      const auto add = [&](int p, auto permute) {
        for (int c = 0; c < Traits::kAccumWords; ++c) {
          partner_sum[p / kBlockLanes][c] += permute(terms.mirrored[c]);
        }
        partner_hits[p / kBlockLanes] += permute(hit);
      };
      if (!visa) {
        add(p0, [](const Floats4& x) { return xor_shuffled<S>(x); });
      } else if constexpr (S == 0) {
        add(p0, [](const Floats4& x) { return x; });
      } else {
        const Floats4 zero(0.f);
        add(p0, [&](const Floats4& x) { return rotated<kBlockLanes - S>(zero, x); });
        add(p1, [&](const Floats4& x) { return rotated<kBlockLanes - S>(x, zero); });
      }
    }
  };
  for (int r = diagonal ? 1 : 0; r < H; ++r) {
    switch (r & 3) {
      case 0: round(std::integral_constant<int, 0>{}, r); break;
      case 1: round(std::integral_constant<int, 1>{}, r); break;
      case 2: round(std::integral_constant<int, 2>{}, r); break;
      default: round(std::integral_constant<int, 3>{}, r); break;
    }
  }

  for (int l = 0; l < H; ++l) {
    const int b = l / kBlockLanes, k = l % kBlockLanes;
    if (t.live[l]) {
      t.acc[l] = Traits::lane(own_sum[b], k);
      t.touched[l] = own_hits[b][k] != 0.f;
    }
    if (!diagonal && t.live[H + l]) {
      t.acc[H + l] = Traits::lane(partner_sum[b], k);
      t.touched[H + l] = partner_hits[b][k] != 0.f;
    }
  }
}

// The partner rounds of any exchange variant on the lanes of `mine`:
// reach-compacted batches where the Traits and the sub-group size allow
// them, else one lane at a time.
template <typename Traits>
void register_rounds(const Traits& traits, xsycl::CommVariant v, int sg_size,
                     TileRegisters<Traits>& t) {
  if constexpr (BatchTraits<Traits>) {
    if (sg_size / 2 >= kBlockLanes) return batch_rounds(traits, v, sg_size, t);
  }
  lane_rounds(traits, v, sg_size, t);
}

// The positions and h of lanes l0 .. l0 + 3 of `mine`, lane `last` standing
// in for those past it.
template <typename State>
LanePositions4 lane_positions4(const xsycl::Varying<State>& mine, int l0, int last) {
  Gather4<State> g;
  for (int k = 0; k < kBlockLanes; ++k) g.s[k] = &mine[std::min(l0 + k, last)];
  return {read(g, &State::px), read(g, &State::py), read(g, &State::pz),
          read(g, [](const State& s) { return lane_h(s); })};
}

// The bounds cull of one tile of `sg_size` lanes (see "Bounds cull"): the
// active lanes of each half against the bounds of the other, half[1] and
// half[0], four at a time.  A lane that survives is marked live, its sum
// +0 and untouched; a culled one is counted with its candidates, every
// valid lane of the other half but itself on a diagonal tile.  `read4(l)`
// gives the positions and h of lanes l .. l + 3, any values past the end of
// l's half.  Returns whether some lane is live.
template <typename Traits, typename Read4>
bool cull_tile(const Traits& traits, int sg_size, const HalfTileBounds* const half[2],
               bool diagonal, const xsycl::Varying<bool>& active, Read4 read4,
               TileRegisters<Traits>& t) {
  using State = typename Traits::State;
  constexpr bool kHasH = requires(State s) { s.h; };
  const int H = sg_size / 2;
  bool any_live = false;
  for (int h = 0; h < 2; ++h) {
    const HalfTileBounds& other = *half[1 - h];
    const auto candidates = static_cast<std::uint64_t>(other.n_valid - (diagonal ? 1 : 0));
    const auto radius_of = [&](float lane_h) {
      return traits.reach_radius(with_h<State>(lane_h), other.hmax);
    };
    // Without h, every lane's radius is the same.
    const Floats4 fixed_radius(kHasH ? 0.f : static_cast<float>(radius_of(0.f)));
    for (int l0 = h * H; l0 < (h + 1) * H; l0 += kBlockLanes) {
      const int n = std::min(kBlockLanes, (h + 1) * H - l0);
      bool any_active = false;
      for (int l = l0; l < l0 + n; ++l) {
        t.live[l] = false;
        t.touched[l] = false;
        any_active = any_active || active[l];
      }
      if (!any_active) continue;
      const LanePositions4 p = read4(l0);
      const unsigned culled = box_cull4(
          p,
          kHasH ? Floats4([&](auto k) { return static_cast<float>(radius_of(p.h[k])); })
                : fixed_radius,
          other, traits.box, [&](int k) { return radius_of(p.h[k]); });
      for (int k = 0; k < n; ++k) {
        if (!active[l0 + k]) continue;
        if (culled & (1u << k)) {
          t.interactions += candidates;
          continue;
        }
        t.live[l0 + k] = true;
        t.acc[l0 + k] = typename Traits::Accum{};
        any_live = true;
      }
    }
  }
  return any_live;
}

// Holds one leaf's commit flag while it lives (see "Leaf-locked commits").
class LeafLock {
 public:
  explicit LeafLock(std::atomic_flag& flag) : flag_(flag) {
    while (flag_.test_and_set(std::memory_order_acquire)) {
      while (flag_.test(std::memory_order_relaxed)) std::this_thread::yield();
    }
  }
  ~LeafLock() { flag_.clear(std::memory_order_release); }
  LeafLock(const LeafLock&) = delete;
  LeafLock& operator=(const LeafLock&) = delete;

 private:
  std::atomic_flag& flag_;
};

// The per-field lane arrays of a launch of vector blocks; none for Traits
// without a four-lane form.
struct NoLaneArrays {};
template <typename Traits>
struct LaneArraysOf {
  using type = NoLaneArrays;
};
template <BlockTraits Traits>
struct LaneArraysOf<Traits> {
  using type = LaneArrays<typename Traits::State, Traits::kLaneFields>;
};

// What every batch of one pair launch shares: the Traits, the view, the
// state of every slot of the view's leaves (loaded once, leaf by leaf), the
// bounds of every tile of `tile_width` slots, and one commit flag per leaf.
// A launch of vector blocks (blocked()) keeps the states in per-field lane
// arrays, each tile at tile_width elements, and no slot-ordered copy.
template <typename Traits>
class PairLaunch {
 public:
  using State = typename Traits::State;

  // Gathers the states and bounds on `pool`.
  PairLaunch(const Traits& traits, const domain::SpeciesView& view,
             xsycl::CommVariant variant, int tile_width, util::ThreadPool& pool)
      : traits_(traits),
        view_(view),
        variant_(variant),
        tile_width_(tile_width),
        blocked_(BlockTraits<Traits> && variant != xsycl::CommVariant::kBroadcast &&
                 tile_width >= kBlockLanes),
        first_state_(view.n_leaves),
        first_tile_(view.n_leaves),
        flags_(std::make_unique<std::atomic_flag[]>(view.n_leaves)) {
    std::size_t n_states = 0, n_tiles = 0;
    for (std::size_t l = 0; l < view.n_leaves; ++l) {
      first_state_[l] = n_states;
      first_tile_[l] = n_tiles;
      const int count = view.leaves[l].count();
      n_states += static_cast<std::size_t>(count);
      n_tiles += static_cast<std::size_t>((count + tile_width - 1) / tile_width);
    }
    if constexpr (BlockTraits<Traits>) {
      if (blocked_) lanes_ = typename LaneArraysOf<Traits>::type(n_tiles * tile_width);
    }
    if (!blocked_) states_.resize(n_states);
    bounds_.resize(n_tiles);
    const char* span = obs::Tracer::global().enabled() ? "sph.pair_gather" : nullptr;
    // shared: states_, lanes_, bounds_ — each leaf writes only its own
    // slots' states or lanes and its own tiles' bounds.
    pool.parallel_for_chunks(
        static_cast<std::int64_t>(view.n_leaves), /*chunk=*/16,
        [&](std::int64_t begin, std::int64_t end) {
          const obs::TraceSpan chunk_span(span);
          for (auto l = static_cast<std::size_t>(begin); l < static_cast<std::size_t>(end);
               ++l) {
            gather_leaf(l);
          }
        });
  }

  const Traits& traits() const { return traits_; }
  const domain::SpeciesView& view() const { return view_; }
  xsycl::CommVariant variant() const { return variant_; }
  bool blocked() const { return blocked_; }

  // The states of leaf `leaf`'s slots, in slot order (not blocked()).
  const State* states(std::int32_t leaf) const {
    return states_.data() + first_state_[leaf];
  }
  // The lanes of tile `tile` of leaf `leaf` (blocked()).
  auto lanes(std::int32_t leaf, int tile) const {
    return lanes_.half((first_tile_[leaf] + static_cast<std::size_t>(tile)) *
                       static_cast<std::size_t>(tile_width_));
  }
  // The bounds of tile `tile` of leaf `leaf`: its slots tile * tile_width
  // onward.
  const HalfTileBounds& bounds(std::int32_t leaf, int tile) const {
    return bounds_[first_tile_[leaf] + tile];
  }
  LeafLock lock(std::int32_t leaf) const { return LeafLock(flags_[leaf]); }

 private:
  // Loads the states of leaf l's slots and the bounds of its tiles.
  void gather_leaf(std::size_t l) {
    const tree::Leaf& leaf = view_.leaves[l];
    for (int t = 0; t * tile_width_ < leaf.count(); ++t) {
      const int first = t * tile_width_;
      const int n = std::min(tile_width_, leaf.count() - first);
      const auto load = [&](State* s) {
        for (int k = 0; k < n; ++k) s[k] = traits_.load(view_.order[leaf.begin + first + k]);
        bounds_[first_tile_[l] + t] = half_tile_bounds(s, n);
      };
      if constexpr (BlockTraits<Traits>) {
        if (blocked_) {
          State tile[xsycl::kMaxLanes]{};
          load(tile);
          const std::size_t at = (first_tile_[l] + t) * static_cast<std::size_t>(tile_width_);
          for (int k = 0; k < n; ++k) lanes_.store(at + k, tile[k]);
          continue;
        }
      }
      load(states_.data() + first_state_[l] + first);
    }
  }

  Traits traits_;
  domain::SpeciesView view_;
  xsycl::CommVariant variant_;
  int tile_width_;
  bool blocked_;
  std::vector<std::size_t> first_state_;  // per leaf: index into states_
  std::vector<std::size_t> first_tile_;   // per leaf: index into bounds_
  std::vector<State> states_;
  typename LaneArraysOf<Traits>::type lanes_;
  std::vector<HalfTileBounds> bounds_;
  std::unique_ptr<std::atomic_flag[]> flags_;
};

// One batch of a pair launch: one sub-group per leaf pair.
template <typename Traits>
class PairInteractionKernel {
 public:
  using State = typename Traits::State;
  using Accum = typename Traits::Accum;

  PairInteractionKernel(std::string name, const PairLaunch<Traits>& launch,
                        const tree::LeafPair* pairs, std::size_t n_pairs)
      : name_(std::move(name)),
        launch_(&launch),
        traits_(launch.traits()),
        leaves_(launch.view().leaves),
        order_(launch.view().order),
        pairs_(pairs),
        n_pairs_(n_pairs),
        variant_(launch.variant()) {}

  std::string name() const { return name_; }
  std::size_t n_pairs() const { return n_pairs_; }

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

  // Copies the states of tile `tile` (`width` slots) of leaf `leaf` into
  // lanes [lane0, lane0 + width); lanes past the leaf's end are empty.
  void load_tile(xsycl::SubGroup& sg, std::int32_t leaf, int tile, int lane0, int width,
                 xsycl::Varying<State>& mine, xsycl::Varying<bool>& active,
                 xsycl::Varying<std::int32_t>& idx) const {
    const tree::Leaf& lf = leaves_[leaf];
    const int first = tile * width;
    const State* states = launch_->states(leaf) + first;
    for (int k = 0; k < width; ++k) {
      const int lane = lane0 + k;
      const bool ok = first + k < lf.count();
      active[lane] = ok;
      if (ok) {
        idx[lane] = order_[lf.begin + first + k];
        mine[lane] = states[k];
      } else {
        idx[lane] = 0;
        mine[lane] = State{};
        mine[lane].valid = 0;
      }
    }
    sg.counters().global_loads += static_cast<std::uint64_t>(width);
  }

  // Commits the sums of the active lanes of [l0, l1), all owned by `leaf`:
  // charges every commit, and adds the touched sums under the leaf's flag.
  void commit_lanes(xsycl::SubGroup& sg, std::int32_t leaf, int l0, int l1,
                    const xsycl::Varying<bool>& active,
                    const xsycl::Varying<std::int32_t>& idx,
                    const xsycl::Varying<Accum>& acc,
                    const xsycl::Varying<bool>& touched) const {
    bool any = false;
    for (int l = l0; l < l1; ++l) {
      if (!active[l]) continue;
      Traits::charge_commit(sg.counters());
      any = any || touched[l];
    }
    if (!any) return;
    const LeafLock lock = launch_->lock(leaf);
    for (int l = l0; l < l1; ++l) {
      if (active[l] && touched[l]) traits_.commit(idx[l], acc[l]);
    }
  }

  // Commits one sum of a particle of `leaf`, as commit_lanes does.
  void commit_one(xsycl::SubGroup& sg, std::int32_t leaf, std::int32_t idx,
                  const Accum& acc, bool touched) const {
    Traits::charge_commit(sg.counters());
    if (!touched) return;
    const LeafLock lock = launch_->lock(leaf);
    traits_.commit(idx, acc);
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
    xsycl::Varying<bool> active;  // owns a particle and commits its sum
    xsycl::Varying<std::int32_t> idx;

    for (int ta = 0; ta < tiles_a; ++ta) {
      for (int tb = self ? ta : 0; tb < tiles_b; ++tb) {
        // On the diagonal both halves hold the same slice: the lower half
        // already covers every ordered pair, so the upper half only serves
        // as the exchange source and must not accumulate or commit.
        const bool diagonal = self && ta == tb;
        const HalfTileBounds* half[2] = {&launch_->bounds(lp.a, ta),
                                         &launch_->bounds(lp.b, tb)};
        // Every exchange round is charged, whether the pair runs or not.
        for (int r = 0; r < H; ++r) xsycl::charge_exchange(sg, variant_, sizeof(State));
        if (!diagonal &&
            tiles_apart(*half[0], *half[1], tile_pair_reach(traits_, *half[0], *half[1]),
                        traits_.box)) {
          charge_apart(sg, half[0]->n_valid, half[1]->n_valid, t.interactions);
          continue;
        }
        if (launch_->blocked()) {
          block_tile(sg, lp, ta, tb, diagonal, half, t, active, idx);
        } else {
          register_tile(sg, lp, ta, tb, diagonal, half, t, active, idx);
        }
        commit_lanes(sg, lp.a, 0, H, active, idx, t.acc, t.touched);
        commit_lanes(sg, lp.b, H, S, active, idx, t.acc, t.touched);
      }
    }
    sg.counters().interactions += t.interactions;
  }

  // One tile pair from the launch's states: culled, then run through the
  // exchange rounds of the variant, each partner read in place.
  void register_tile(xsycl::SubGroup& sg, const tree::LeafPair& lp, int ta, int tb,
                     bool diagonal, const HalfTileBounds* const half[2],
                     TileRegisters<Traits>& t, xsycl::Varying<bool>& active,
                     xsycl::Varying<std::int32_t>& idx) const {
    const int S = sg.size();
    const int H = S / 2;
    xsycl::Varying<State>& mine = t.mine;
    load_tile(sg, lp.a, ta, /*lane0=*/0, H, mine, active, idx);
    load_tile(sg, lp.b, tb, /*lane0=*/H, H, mine, active, idx);
    if (diagonal) {
      for (int l = H; l < S; ++l) active[l] = false;
    }
    const auto read4 = [&](int l0) {
      return lane_positions4(mine, l0, l0 < H ? H - 1 : S - 1);
    };
    if (cull_tile(traits_, S, half, diagonal, active, read4, t)) {
      register_rounds(traits_, variant_, S, t);
    }
  }

  // One tile pair from the launch's lane arrays: culled four lanes at a
  // time, then run as vector blocks.  Charges what register_tile charges.
  void block_tile(xsycl::SubGroup& sg, const tree::LeafPair& lp, int ta, int tb,
                  bool diagonal, const HalfTileBounds* const half[2],
                  TileRegisters<Traits>& t, xsycl::Varying<bool>& active,
                  xsycl::Varying<std::int32_t>& idx) const {
    if constexpr (BlockTraits<Traits>) {
      static_assert(Traits::kLaneFields[0] == &State::px &&
                        Traits::kLaneFields[1] == &State::py &&
                        Traits::kLaneFields[2] == &State::pz,
                    "the cull reads the positions from the first three lane fields");
      static_assert(!requires(State s) { s.h; }, "vector blocks serve states without h");
      const int S = sg.size();
      const int H = S / 2;
      // On the diagonal both are the one tile.
      const auto lower = launch_->lanes(lp.a, ta);
      const auto upper = launch_->lanes(lp.b, tb);
      sg.counters().global_loads += 2 * static_cast<std::uint64_t>(H);
      for (int j = 0; j < H; ++j) {
        active[j] = lower.valid[j] != 0;
        idx[j] = lower.idx[j];
        active[H + j] = !diagonal && upper.valid[j] != 0;
        idx[H + j] = upper.idx[j];
      }
      const auto read4 = [&](int l0) {
        const auto& lanes = l0 < H ? lower : upper;
        const int j = l0 < H ? l0 : l0 - H;
        return LanePositions4{load4(lanes.f[0] + j), load4(lanes.f[1] + j),
                              load4(lanes.f[2] + j), Floats4(0.f)};
      };
      if (cull_tile(traits_, S, half, diagonal, active, read4, t)) {
        block_rounds(traits_, variant_, S, lower, upper, diagonal, t);
      }
    }
  }

  // Charges a tile pair that tiles_apart skipped, of `na` and `nb` valid
  // lanes, exactly as the full path would: both tile loads, each lane's
  // candidates in the other half, and each lane's commit (run_exchange
  // charges the exchange rounds of every tile pair).
  void charge_apart(xsycl::SubGroup& sg, int na, int nb,
                    std::uint64_t& interactions) const {
    const int H = sg.size() / 2;
    sg.counters().global_loads += 2 * static_cast<std::uint64_t>(H);
    interactions += 2 * static_cast<std::uint64_t>(na) * static_cast<std::uint64_t>(nb);
    for (int k = 0; k < na + nb; ++k) Traits::charge_commit(sg.counters());
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
      load_tile(sg, lp.a, ta, 0, S, mine, active, idx);
      for (int l = 0; l < S; ++l) {
        acc[l] = Accum{};
        touched[l] = false;
      }
      const HalfTileBounds& a_bounds = launch_->bounds(lp.a, ta);

      for (int tb = 0; tb < tiles_b; ++tb) {
        const HalfTileBounds& b_bounds = launch_->bounds(lp.b, tb);
        const int bwidth = std::min(S, lb.count() - tb * S);
        // Candidates of a culled broadcast particle, per direction.
        const auto n_candidates = static_cast<std::uint64_t>(
            a_bounds.n_valid - (self && ta == tb ? 1 : 0));
        if (!(self && ta == tb) &&
            tiles_apart(a_bounds, b_bounds, tile_pair_reach(traits_, a_bounds, b_bounds),
                        traits_.box)) {
          // What the loop below charges when it culls every B-particle.
          sg.counters().global_loads += static_cast<std::uint64_t>(S);
          sg.counters().broadcast_ops +=
              static_cast<std::uint64_t>(bwidth) * ((sizeof(State) + 3) / 4);
          const auto nb = static_cast<std::uint64_t>(b_bounds.n_valid);
          interactions += nb * (self ? n_candidates : 2 * n_candidates);
          if (!self) {
            sg.counters().reduce_ops += nb * Traits::kAccumWords;
            for (std::uint64_t k = 0; k < nb; ++k) Traits::charge_commit(sg.counters());
          }
          continue;
        }
        load_tile(sg, lp.b, tb, 0, S, bstate, bactive, bidx);
        // Distance at which an A-lane reaches any particle of this B-tile;
        // 0 (never cull) once one lane's radius is not positive.
        double a_reach = 0.0;
        for (int l = 0; l < S; ++l) {
          if (!active[l]) continue;
          const double r = traits_.reach_radius(mine[l], b_bounds.hmax);
          if (!(r > 0.0)) {
            a_reach = 0.0;
            break;
          }
          a_reach = std::max(a_reach, r);
        }

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
            // lane, combine with a reduction, and issue ONE commit.  The
            // lanes' terms are summed in lane order, as the reduction adds
            // them.
            Accum sum{};
            bool any = false;
            for (int l = 0; l < S; ++l) {
              if (active[l] && add_pair(traits_, interactions, sum, other, mine[l])) any = true;
            }
            sg.counters().reduce_ops += Traits::kAccumWords;
            commit_one(sg, lp.b, bidx[jj], sum, any);
          }
        }
      }
      commit_lanes(sg, lp.a, 0, S, active, idx, acc, touched);
    }
    sg.counters().interactions += interactions;
  }

  std::string name_;
  const PairLaunch<Traits>* launch_;
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
// loop shared by the SPH kernel runners and gravity's run_pp_short.  The
// launch-wide PairLaunch is built before the first batch, on the queue's
// pool; its wall is outside the recorded launch seconds, like the walk that
// produces the batches.
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
  std::optional<PairLaunch<Traits>> pair_launch;
  pairs.for_each_batch([&](std::span<const tree::LeafPair> batch) {
    if (!pair_launch) {
      xsycl::check_sub_group_size(launch.sub_group_size);
      const int width = variant == xsycl::CommVariant::kBroadcast
                            ? launch.sub_group_size
                            : launch.sub_group_size / 2;
      pair_launch.emplace(traits, view, variant, width, q.pool());
    }
    PairInteractionKernel<Traits> kernel(name, *pair_launch, batch.data(), batch.size());
    const xsycl::LaunchStats stats = q.submit(kernel, batch.size(), launch);
    total.n_sub_groups += stats.n_sub_groups;
    total.seconds += stats.seconds;
    total.ops.merge(stats.ops);
  });
  return total;
}

}  // namespace hacc::sph
