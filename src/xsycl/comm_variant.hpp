#pragma once

// The five kernel communication variants studied by the paper (§5.3-5.4).
// kBroadcast restructures the interaction loop; the remaining four share
// the half-warp loop shape and differ only in how partner state crosses
// lanes: the partner schedule (partner_lane) and the counters one exchange
// round charges (charge_exchange).

#include <array>
#include <span>
#include <stdexcept>

#include "util/enum_names.hpp"
#include "xsycl/group_algorithms.hpp"

namespace hacc::xsycl {

enum class CommVariant {
  kSelect,        // sub-group select (XOR schedule)
  kMemory32,      // work-group local memory, 32-bit components (XOR schedule)
  kMemoryObject,  // work-group local memory, whole objects (XOR schedule)
  kBroadcast,     // restructured loop using sub-group broadcasts
  kVISA,          // inline-vISA specialized butterfly shuffle
};

inline constexpr std::array<CommVariant, 5> kAllVariants = {
    CommVariant::kSelect, CommVariant::kMemory32, CommVariant::kMemoryObject,
    CommVariant::kBroadcast, CommVariant::kVISA};

// Exchange-style variants (everything except kBroadcast).
inline constexpr std::array<CommVariant, 4> kExchangeVariants = {
    CommVariant::kSelect, CommVariant::kMemory32, CommVariant::kMemoryObject,
    CommVariant::kVISA};

// The names the paper's figures print (to_string), then compact aliases
// for CLI use (util/enum_names.hpp).
inline std::span<const util::EnumName<CommVariant>> enum_names(CommVariant) {
  static constexpr util::EnumName<CommVariant> kNames[] = {
      {CommVariant::kSelect, {"Select", "select"}},
      {CommVariant::kMemory32, {"Memory, 32-bit", "memory32", "mem32"}},
      {CommVariant::kMemoryObject, {"Memory, Object", "memory_object", "memobj"}},
      {CommVariant::kBroadcast, {"Broadcast", "broadcast"}},
      {CommVariant::kVISA, {"vISA", "visa"}}};
  return kNames;
}
inline const char* to_string(CommVariant v) { return util::enum_name(v); }

// Partner lane this variant pairs `lane` with on `round`.
inline int partner_lane(CommVariant v, int lane, int round, int sg_size) {
  return v == CommVariant::kVISA ? butterfly_partner(lane, round, sg_size)
                                 : xor_partner(lane, round, sg_size);
}

// Charges one round of an exchange variant: the counters its exchange of
// objects of `obj_bytes` moves on the device.  The pair harness charges
// every round this way, of every tile pair it runs or skips, while it reads
// the partner lane in place.  kBroadcast throws std::logic_error.
inline void charge_exchange(SubGroup& sg, CommVariant v, std::size_t obj_bytes) {
  switch (v) {
    case CommVariant::kSelect: return charge_select(sg, obj_bytes);
    case CommVariant::kMemory32: return charge_local32(sg, obj_bytes);
    case CommVariant::kMemoryObject: return charge_local_object(sg, obj_bytes);
    case CommVariant::kVISA: return charge_butterfly(sg, obj_bytes);
    case CommVariant::kBroadcast: break;
  }
  throw std::logic_error("charge_exchange(): the Broadcast variant does not exchange lanes");
}

}  // namespace hacc::xsycl
