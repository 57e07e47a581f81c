#pragma once

// The five kernel communication variants studied by the paper (§5.3-5.4).
// kBroadcast restructures the interaction loop and therefore does not use
// exchange(); the remaining four share the half-warp loop shape and differ
// only in how partner state crosses lanes.

#include <array>
#include <stdexcept>
#include <string>

#include "xsycl/group_algorithms.hpp"

namespace hacc::xsycl {

enum class CommVariant {
  kSelect,        // sycl::select_from_group (XOR schedule)
  kMemory32,      // work-group local memory, 32-bit components
  kMemoryObject,  // work-group local memory, whole objects
  kBroadcast,     // restructured loop using group_broadcast
  kVISA,          // inline-vISA specialized butterfly shuffle
};

inline constexpr std::array<CommVariant, 5> kAllVariants = {
    CommVariant::kSelect, CommVariant::kMemory32, CommVariant::kMemoryObject,
    CommVariant::kBroadcast, CommVariant::kVISA};

// Exchange-style variants (everything except kBroadcast).
inline constexpr std::array<CommVariant, 4> kExchangeVariants = {
    CommVariant::kSelect, CommVariant::kMemory32, CommVariant::kMemoryObject,
    CommVariant::kVISA};

inline const char* to_string(CommVariant v) {
  switch (v) {
    case CommVariant::kSelect: return "Select";
    case CommVariant::kMemory32: return "Memory, 32-bit";
    case CommVariant::kMemoryObject: return "Memory, Object";
    case CommVariant::kBroadcast: return "Broadcast";
    case CommVariant::kVISA: return "vISA";
  }
  return "?";
}

// Parses the names printed by to_string (and compact aliases for CLI use).
bool parse_variant(const std::string& name, CommVariant& out);

// Partner lane this variant pairs `lane` with on `round`.
inline int partner_lane(CommVariant v, int lane, int round, int sg_size) {
  return v == CommVariant::kVISA ? butterfly_partner(lane, round, sg_size)
                                 : xor_partner(lane, round, sg_size);
}

// Dispatch of the partner-state exchange for the four exchange variants:
// out[l] receives the state of partner_lane(v, l, round).  kBroadcast
// restructures the loop instead and throws std::logic_error here.
template <typename T>
inline void exchange(SubGroup& sg, const Varying<T>& x, int round, CommVariant v,
                     Varying<T>& out) {
  switch (v) {
    case CommVariant::kSelect: return exchange_select(sg, x, round, out);
    case CommVariant::kMemory32: return exchange_local32(sg, x, round, out);
    case CommVariant::kMemoryObject: return exchange_local_object(sg, x, round, out);
    case CommVariant::kVISA: return exchange_visa(sg, x, round, out);
    case CommVariant::kBroadcast: break;
  }
  throw std::logic_error("exchange(): the Broadcast variant does not exchange lanes");
}

// Select and vISA permute lane registers, so the CPU emulation can read
// x[partner_lane(v, l, round)] in place instead of copying every lane.
inline bool permutes_registers(CommVariant v) {
  return v == CommVariant::kSelect || v == CommVariant::kVISA;
}

// Charges one in-place round of a register-permute variant: exactly the
// counters exchange() charges for it.
inline void charge_register_exchange(SubGroup& sg, CommVariant v, std::size_t obj_bytes) {
  if (v == CommVariant::kVISA) {
    charge_butterfly(sg, obj_bytes);
  } else {
    charge_select(sg, obj_bytes);
  }
}

// Local-memory bytes one sub-group needs to exchange objects of `obj_bytes`
// under this variant (paper §5.3.1: object size × work-items).
inline std::size_t local_bytes_for(CommVariant v, int sg_size, std::size_t obj_bytes) {
  switch (v) {
    case CommVariant::kMemory32: return 4 * static_cast<std::size_t>(sg_size);
    case CommVariant::kMemoryObject: return obj_bytes * static_cast<std::size_t>(sg_size);
    default: return 0;
  }
}

inline bool parse_variant(const std::string& name, CommVariant& out) {
  if (name == "Select" || name == "select") { out = CommVariant::kSelect; return true; }
  if (name == "Memory, 32-bit" || name == "memory32" || name == "mem32") {
    out = CommVariant::kMemory32;
    return true;
  }
  if (name == "Memory, Object" || name == "memory_object" || name == "memobj") {
    out = CommVariant::kMemoryObject;
    return true;
  }
  if (name == "Broadcast" || name == "broadcast") { out = CommVariant::kBroadcast; return true; }
  if (name == "vISA" || name == "visa") { out = CommVariant::kVISA; return true; }
  return false;
}

}  // namespace hacc::xsycl
