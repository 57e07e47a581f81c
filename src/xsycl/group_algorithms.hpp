#pragma once

// The counter charges of the SYCL 2020 group algorithms (paper §5.1) and
// the specialized communication patterns of §5.3 that the pair harness
// runs, and the two half-warp partner schedules.  The CPU emulation reads a
// partner lane in place; each charge counts what the primitive it stands
// for moves, and the platform cost model prices the counts per
// architecture:
//   - select             -> indirect register access on Intel (slow), native
//                           shuffle on NVIDIA/AMD (fast)
//   - broadcast          -> register regioning on Intel (near free)
//   - local-memory exchange -> SLM / shared-memory round trip
//   - butterfly shuffle  -> the 4-mov vISA sequence (Intel only)

#include "xsycl/sub_group.hpp"

namespace hacc::xsycl {

// 32-bit words one lane register of `obj_bytes` occupies.
inline std::uint64_t words_of(std::size_t obj_bytes) { return (obj_bytes + 3) / 4; }

// Counter charge of one sub-group select over `obj_bytes` objects.
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

// Broadcast of a whole composite object from a known lane: one register-
// regioning broadcast per 32-bit word (paper Fig. 6).
template <typename T>
inline T broadcast_object(SubGroup& sg, const Varying<T>& x, int lane) {
  sg.counters().broadcast_ops += words_of(sizeof(T));
  return x[lane & (sg.size() - 1)];
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

}  // namespace hacc::xsycl
