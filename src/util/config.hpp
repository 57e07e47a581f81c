#pragma once

// Minimal key = value configuration parser used by hacc_run, the examples
// and the standalone-kernel driver (paper §7.2).  Supports comments (#) and
// blank lines; every typed value goes through the one strict Config::read.

#include <limits>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/enum_names.hpp"

namespace hacc::util {

// The shared text-to-number parses (config keys, thread counts, list
// items, checkpoint step suffixes).  True iff `text`, less surrounding
// whitespace, is one base-10 integer that fits a long (strtol), or one
// number strtod reads without overflow or underflow (decimal, hex, inf,
// nan); `out` is untouched otherwise.  Leading whitespace is what strto*
// skips (isspace), trailing whitespace the " \t\r\n" that Config trims.
bool parse_number(const std::string& text, long& out);
bool parse_number(const std::string& text, double& out);

// A config field's role (docs/CONFIG.md, "Restart safety"): physics (in the
// checkpoint signature), neutral (execution tuning) or run control.
enum class Role { kPhysics, kNeutral, kRunControl };

// The numbers a key accepts (docs/CONFIG.md's "Valid values").  refused()
// is "" for a `v` in range (NaN is in none but kAny), else what `key`
// needs: "np >= 2", "pm_grid = a power of two >= 2".
struct Range {
  enum Kind { kAny, kAtLeast, kAbove, kUnit, kPowerOfTwo } kind = kAny;
  int bound = 0;
  std::string refused(double v, const std::string& key) const;
};
constexpr Range at_least(int b) { return {Range::kAtLeast, b}; }
constexpr Range above(int b) { return {Range::kAbove, b}; }

// One row of a config field table: the key that sets the field (nullptr
// for a struct-only field), its role and its range.
struct KeyRow {
  const char* key;
  Role role;
  Range range{};
};

class Config {
 public:
  Config() = default;

  // Parses "key = value" lines; returns false and sets error on bad syntax.
  bool parse(const std::string& text);
  bool parse_file(const std::string& path);

  // Command-line overrides of the form key=value (argv-style).  Callers
  // typically pass (argc - 1, argv + 1); arguments that do not look like
  // key=value (including a program path containing '=') are skipped.
  void apply_overrides(int argc, const char* const* argv);

  // has, get_string and read record the key they look up, so a caller that
  // has looked up every key it knows can list the rest (unread_keys) as
  // misspelt.  The record is a mutable member: a Config is not for
  // concurrent lookups.
  bool has(const std::string& key) const {
    looked_up_.insert(key);
    return values_.count(key) != 0;
  }

  std::string get_string(const std::string& key, const std::string& fallback) const;

  // The one typed read of a key.  An absent key leaves `field` as it is and
  // returns true.  A present key is stored only when its whole text is a
  // value of the field's type: a parse_number integer within T's range, a
  // parse_number double, exactly one spelling of bool's or the enum's name
  // table (util/enum_names.hpp), or any text for a std::string.  Otherwise
  // `field` stays, `error` reads "invalid <key> '<text>' (need <what>)" and
  // the read returns false.
  template <typename T>
  bool read(const std::string& key, T& field, std::string& error) const;
  // A comma-separated list of parse_number doubles ("50, 20,10").
  bool read(const std::string& key, std::vector<double>& field, std::string& error) const;
  // A table row: nothing if keyless, else as above, and then a number out
  // of the row's range fails the same way, `need` naming the range.
  template <typename T>
  bool read(const KeyRow& row, T& field, std::string& error) const;

  void set(const std::string& key, const std::string& value) { values_[key] = value; }

  const std::string& error() const { return error_; }
  const std::map<std::string, std::string>& values() const { return values_; }

  // The keys present but never looked up, in key order.
  std::vector<std::string> unread_keys() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> looked_up_;
  std::string error_;
};

template <typename T>
bool Config::read(const std::string& key, T& field, std::string& error) const {
  looked_up_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return true;
  const std::string& text = it->second;
  std::string need;
  if constexpr (std::is_same_v<T, std::string>) {
    field = text;
    return true;
  } else if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    if (parse_name(text, field)) return true;
    need = name_list<T>();
  } else if constexpr (std::is_same_v<T, double>) {
    if (parse_number(text, field)) return true;
    need = "a number";
  } else {
    static_assert(std::is_integral_v<T>, "Config::read: unsupported field type");
    long v = 0;
    if (parse_number(text, v) && std::in_range<T>(v)) {
      field = static_cast<T>(v);
      return true;
    }
    // The texts that parse as a long and fit T.
    using L = std::numeric_limits<long>;
    using N = std::numeric_limits<T>;
    const long lo = std::cmp_less(N::min(), L::min()) ? L::min() : static_cast<long>(N::min());
    const long hi = std::cmp_greater(N::max(), L::max()) ? L::max() : static_cast<long>(N::max());
    need = "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
  }
  error = "invalid " + key + " '" + text + "' (need " + need + ")";
  return false;
}

template <typename T>
bool Config::read(const KeyRow& row, T& field, std::string& error) const {
  if (row.key == nullptr || !has(row.key)) return true;
  T value = field;
  if (!read(row.key, value, error)) return false;
  std::string need;
  if constexpr (std::is_arithmetic_v<T>) need = row.range.refused(value, row.key);
  if (!need.empty()) {
    error = "invalid " + std::string(row.key) + " '" + values_.at(row.key) + "' (need " +
            need + ")";
    return false;
  }
  field = std::move(value);
  return true;
}

}  // namespace hacc::util
