#pragma once

// SYCL 2020 group-algorithm equivalents (paper §5.1) plus the specialized
// communication patterns of §5.3.  Every primitive updates OpCounters; the
// platform cost model prices them per architecture:
//   - select_from_group  -> indirect register access on Intel (slow), native
//                           shuffle on NVIDIA/AMD (fast)
//   - group_broadcast    -> register regioning on Intel (near free)
//   - local-memory exchange -> SLM / shared-memory round trip
//   - butterfly_shuffle  -> the 4-mov vISA sequence (Intel only)

#include <cstring>

#include "xsycl/sub_group.hpp"

namespace hacc::xsycl {

// 32-bit words one lane register of `obj_bytes` occupies.
inline std::uint64_t words_of(std::size_t obj_bytes) { return (obj_bytes + 3) / 4; }

// Counter charge of one sycl::select_from_group over `obj_bytes` objects.
inline void charge_select(SubGroup& sg, std::size_t obj_bytes) {
  ++sg.counters().select_ops;
  sg.counters().select_words += static_cast<std::uint64_t>(sg.size()) * words_of(obj_bytes);
}

// Counter charge of one specialized vISA butterfly shuffle: the Intel model
// prices it at ~4 movs per register moved (paper Fig. 8).
inline void charge_butterfly(SubGroup& sg, std::size_t obj_bytes) {
  sg.counters().butterfly_words +=
      static_cast<std::uint64_t>(sg.size()) * words_of(obj_bytes);
}

// Counter charge of one "Memory, 32-bit" exchange of `obj_bytes` objects:
// per 32-bit word, one barrier and one word per lane through local memory.
inline void charge_local32(SubGroup& sg, std::size_t obj_bytes) {
  const std::uint64_t words = words_of(obj_bytes);
  sg.counters().barriers += words;
  sg.counters().local32_barriers += words;
  sg.counters().local32_words += words * static_cast<std::uint64_t>(sg.size());
}

// Counter charge of one "Memory, Object" exchange: one barrier, and every
// lane's object through local memory.
inline void charge_local_object(SubGroup& sg, std::size_t obj_bytes) {
  ++sg.counters().barriers;
  ++sg.counters().localobj_barriers;
  sg.counters().localobj_bytes += static_cast<std::uint64_t>(sg.size()) * obj_bytes;
}

// Generic permutation: out[l] = x[src[l]].  Models sycl::select_from_group,
// which compiles to indirect register access when the pattern is not known
// at compile time (paper Fig. 5).
template <typename T>
inline Varying<T> select_from_group(SubGroup& sg, const Varying<T>& x,
                                    const Varying<std::int32_t>& src) {
  Varying<T> out;
  for (int l = 0; l < sg.size(); ++l) out[l] = x[src[l] & (sg.size() - 1)];
  charge_select(sg, sizeof(T));
  return out;
}

// XOR permutation used by the half-warp algorithm's Select variant
// (paper Fig. 4).  Implemented via select_from_group, as SYCLomatic migrates
// __shfl_xor_sync.
template <typename T>
inline Varying<T> permute_by_xor(SubGroup& sg, const Varying<T>& x, int mask) {
  Varying<std::int32_t> src;
  for (int l = 0; l < sg.size(); ++l) src[l] = l ^ mask;
  return select_from_group(sg, x, src);
}

// Broadcast from a compile-time-known lane: register regioning (paper Fig. 6).
template <typename T>
inline T group_broadcast(SubGroup& sg, const Varying<T>& x, int lane) {
  ++sg.counters().broadcast_ops;
  return x[lane & (sg.size() - 1)];
}

// Broadcast of a whole composite object from a known lane: one register-
// regioning broadcast per 32-bit word (paper Fig. 6).
template <typename T>
inline T broadcast_object(SubGroup& sg, const Varying<T>& x, int lane) {
  sg.counters().broadcast_ops += (sizeof(T) + 3) / 4;
  return x[lane & (sg.size() - 1)];
}

// shift_group_left: out[l] = x[l + delta] (undefined top lanes keep x).
template <typename T>
inline Varying<T> shift_group_left(SubGroup& sg, const Varying<T>& x, int delta = 1) {
  Varying<T> out = x;
  for (int l = 0; l + delta < sg.size(); ++l) out[l] = x[l + delta];
  ++sg.counters().shift_ops;
  return out;
}

template <typename T>
inline Varying<T> shift_group_right(SubGroup& sg, const Varying<T>& x, int delta = 1) {
  Varying<T> out = x;
  for (int l = sg.size() - 1; l >= delta; --l) out[l] = x[l - delta];
  ++sg.counters().shift_ops;
  return out;
}

// reduce_over_group with operator+ (replaces shuffle reduction networks).
template <typename T>
inline T reduce_over_group(SubGroup& sg, const Varying<T>& x) {
  T sum{};
  for (int l = 0; l < sg.size(); ++l) sum += x[l];
  ++sg.counters().reduce_ops;
  return sum;
}

// Masked reduction helper (inactive lanes contribute zero).
template <typename T>
inline T reduce_over_group_masked(SubGroup& sg, const Varying<T>& x,
                                  const Varying<bool>& active) {
  T sum{};
  for (int l = 0; l < sg.size(); ++l) {
    if (active[l]) sum += x[l];
  }
  ++sg.counters().reduce_ops;
  return sum;
}

// ---------------------------------------------------------------------------
// Half-warp partner schedules.  Both map, per round r in [0, S/2), every
// lower-half lane to a distinct upper-half lane and vice versa, and both are
// involutions per round — the pair-wise symmetry that the algorithm's
// correctness requires (paper §5.3).
// ---------------------------------------------------------------------------

// XOR-based schedule (paper Fig. 4): partner(l) = l ^ (S/2 | r).
inline int xor_partner(int lane, int round, int sg_size) {
  return lane ^ ((sg_size / 2) | round);
}

// Specialized butterfly schedule (paper Fig. 7): swap halves, then cyclic
// inward shift by the round index.  Still an involution pairing across halves.
inline int butterfly_partner(int lane, int round, int sg_size) {
  const int h = sg_size / 2;
  if (lane < h) return h + (lane + round) % h;
  return ((lane - h) - round % h + h) % h;
}

// The exchanges below write lane l's partner state to out[l]; `out` is a
// caller-owned register the caller can reuse across rounds.

// Exchange via the XOR schedule, priced as one select_from_group (the Select
// variant).
template <typename T>
inline void exchange_select(SubGroup& sg, const Varying<T>& x, int round, Varying<T>& out) {
  for (int l = 0; l < sg.size(); ++l) out[l] = x[xor_partner(l, round, sg.size())];
  charge_select(sg, sizeof(T));
}

// Exchange via the butterfly schedule priced as the 4-mov vISA sequence
// (paper Fig. 8).
template <typename T>
inline void exchange_visa(SubGroup& sg, const Varying<T>& x, int round, Varying<T>& out) {
  for (int l = 0; l < sg.size(); ++l) out[l] = x[butterfly_partner(l, round, sg.size())];
  charge_butterfly(sg, sizeof(T));
}

// Exchange through work-group local memory, one 32-bit word at a time
// (the "Memory, 32-bit" variant).  Each word: write, barrier, read; the
// lockstep emulation needs no barrier, so the barriers are only charged.
template <typename T>
inline void exchange_local32(SubGroup& sg, const Varying<T>& x, int round, Varying<T>& out) {
  static_assert(sizeof(T) % 4 == 0, "exchanged objects must be 4-byte multiples");
  const int words = static_cast<int>(sizeof(T) / 4);
  auto slm = sg.local();
  assert(slm.size() >= sizeof(std::uint32_t) * static_cast<std::size_t>(sg.size()));
  auto* word_buf = reinterpret_cast<std::uint32_t*>(slm.data());
  for (int w = 0; w < words; ++w) {
    for (int l = 0; l < sg.size(); ++l) {
      std::uint32_t word;
      std::memcpy(&word, reinterpret_cast<const std::uint32_t*>(&x[l]) + w, 4);
      word_buf[l] = word;
    }
    for (int l = 0; l < sg.size(); ++l) {
      const int p = xor_partner(l, round, sg.size());
      std::memcpy(reinterpret_cast<std::uint32_t*>(&out[l]) + w, &word_buf[p], 4);
    }
  }
  charge_local32(sg, sizeof(T));
}

// Exchange through local memory as whole objects ("Memory, Object"): one
// write, one barrier, one read, at the price of a larger SLM footprint
// (the launch wrapper sizes the arena from the largest exchanged object).
template <typename T>
inline void exchange_local_object(SubGroup& sg, const Varying<T>& x, int round,
                                  Varying<T>& out) {
  auto slm = sg.local();
  assert(slm.size() >= sizeof(T) * static_cast<std::size_t>(sg.size()));
  auto* obj_buf = reinterpret_cast<T*>(slm.data());
  for (int l = 0; l < sg.size(); ++l) obj_buf[l] = x[l];
  for (int l = 0; l < sg.size(); ++l) out[l] = obj_buf[xor_partner(l, round, sg.size())];
  charge_local_object(sg, sizeof(T));
}

}  // namespace hacc::xsycl
