#pragma once

// Name tables for the config enums: one row per value, listing its
// spellings.  The first spelling is what the value's to_string prints;
// every spelling parses.  A config enum opts in by declaring, in its own
// namespace,
//
//   std::span<const util::EnumName<E>> enum_names(E);
//
// which enum_name, parse_name, name_list and util::Config::read find by
// argument-dependent lookup.  bool has its own table (bool_names).

#include <array>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

namespace hacc::util {

template <typename E>
struct EnumName {
  E value;
  std::array<const char*, 4> names;  ///< unused trailing entries are nullptr
};

/// The eight spellings of a boolean config value.
inline std::span<const EnumName<bool>> bool_names() {
  static constexpr EnumName<bool> kNames[] = {{true, {"true", "1", "yes", "on"}},
                                              {false, {"false", "0", "no", "off"}}};
  return kNames;
}

template <typename E>
std::span<const EnumName<E>> names_of() {
  if constexpr (std::is_same_v<E, bool>) {
    return bool_names();
  } else {
    return enum_names(E{});
  }
}

/// The first spelling of `v` ("?" for a value outside the table).
template <typename E>
const char* enum_name(E v) {
  for (const auto& row : names_of<E>()) {
    if (row.value == v) return row.names[0];
  }
  return "?";
}

/// Sets `out` and returns true iff `text` is exactly one of the spellings;
/// `out` is untouched otherwise.
template <typename E>
bool parse_name(std::string_view text, E& out) {
  for (const auto& row : names_of<E>()) {
    for (const char* name : row.names) {
      if (name != nullptr && text == name) {
        out = row.value;
        return true;
      }
    }
  }
  return false;
}

/// Every spelling in table order, joined by " | " (error messages, docs).
template <typename E>
std::string name_list() {
  std::string out;
  for (const auto& row : names_of<E>()) {
    for (const char* name : row.names) {
      if (name == nullptr) continue;
      if (!out.empty()) out += " | ";
      out += name;
    }
  }
  return out;
}

}  // namespace hacc::util
