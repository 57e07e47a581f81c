#include "util/config.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace hacc::util {

namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

// A command-line override key: what appears left of '=' in `key=value`.
// Rejecting path-ish characters keeps an argv[0] program path that happens
// to contain '=' (e.g. "./run=prod/app") from being ingested as an override.
bool is_override_key(const std::string& key) {
  if (key.empty()) return false;
  for (const char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

bool Config::parse(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      error_ = "line " + std::to_string(lineno) + ": expected key = value";
      return false;
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      error_ = "line " + std::to_string(lineno) + ": empty key";
      return false;
    }
    values_[key] = value;
  }
  return true;
}

bool Config::parse_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    error_ = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  return parse(buf.str());
}

void Config::apply_overrides(int argc, const char* const* argv) {
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    const std::string key = trim(arg.substr(0, eq));
    if (!is_override_key(key)) continue;
    values_[key] = trim(arg.substr(eq + 1));
  }
}

std::string Config::get_string(const std::string& key, const std::string& fallback) const {
  looked_up_.insert(key);
  if (auto it = values_.find(key); it != values_.end()) return it->second;
  return fallback;
}

bool Config::read(const std::string& key, std::vector<double>& field,
                  std::string& error) const {
  if (!has(key)) return true;
  std::vector<double> items;
  std::istringstream in(values_.at(key));
  for (std::string item; std::getline(in, item, ',');) {
    if (!parse_number(item, items.emplace_back())) {
      error = "invalid " + key + " '" + values_.at(key) +
              "' (need a comma-separated list of numbers)";
      return false;
    }
  }
  field = std::move(items);
  return true;
}

std::string Range::refused(double v, const std::string& key) const {
  const std::string b = std::to_string(bound);
  int exponent = 0;
  switch (kind) {
    case kAny: return "";
    case kAtLeast: return v >= bound ? "" : key + " >= " + b;
    case kAbove: return v > bound ? "" : key + " > " + b;
    case kUnit: return v >= 0.0 && v <= 1.0 ? "" : key + " in [0, 1]";
    case kPowerOfTwo:
      return v >= 2.0 && std::frexp(v, &exponent) == 0.5 ? "" : key + " = a power of two >= 2";
  }
  return "";
}

std::vector<std::string> Config::unread_keys() const {
  std::vector<std::string> keys;
  for (const auto& [key, value] : values_) {
    if (looked_up_.count(key) == 0) keys.push_back(key);
  }
  return keys;
}

namespace {

// strto* over the whole of `text`: the number may be preceded by what
// strto* skips (isspace) and followed only by the " \t\r\n" that trim()
// strips from values; an out-of-range value (ERANGE) is refused.
template <typename T, typename Strto>
bool parse_whole(const std::string& text, T& out, Strto strto) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  const T v = strto(begin, &end);
  if (end == begin || errno == ERANGE || end[std::strspn(end, " \t\r\n")] != '\0') {
    return false;
  }
  out = v;
  return true;
}

}  // namespace

bool parse_number(const std::string& text, long& out) {
  return parse_whole(text, out, [](const char* s, char** end) { return std::strtol(s, end, 10); });
}

bool parse_number(const std::string& text, double& out) {
  return parse_whole(text, out, [](const char* s, char** end) { return std::strtod(s, end); });
}

}  // namespace hacc::util
