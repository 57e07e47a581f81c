#include "metrics/cbi/classifier.hpp"

#include <cctype>

#include "metrics/cbi/source_lexer.hpp"

namespace hacc::metrics::cbi {

namespace {

// Splits "#  ifdef   NAME" into ("ifdef", "NAME").
std::pair<std::string, std::string> split_directive(const std::string& text) {
  std::size_t i = 1;  // skip '#'
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
  std::size_t start = i;
  while (i < text.size() && std::isalpha(static_cast<unsigned char>(text[i]))) ++i;
  const std::string keyword = text.substr(start, i - start);
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
  return {keyword, text.substr(i)};
}

std::string first_identifier(const std::string& s) {
  std::size_t i = 0;
  while (i < s.size() && (std::isalnum(static_cast<unsigned char>(s[i])) || s[i] == '_')) {
    ++i;
  }
  return s.substr(0, i);
}

struct Region {
  bool parent_active = true;  // enclosing region active
  bool this_active = true;    // current branch active
  bool any_taken = false;     // some earlier branch of this #if chain taken
};

// Classifies one file for ONE configuration; sets `bit` in mask for every
// active physical line.
void classify_for_config(const LexedSource& lexed, const Configuration& config,
                         std::uint32_t bit, std::vector<std::uint32_t>& masks) {
  DefineMap defines = config.defines;
  std::vector<Region> stack;
  const auto active = [&stack] {
    return stack.empty() || (stack.back().parent_active && stack.back().this_active);
  };

  for (const auto& ll : lexed.logical) {
    bool line_visible;
    if (!ll.is_directive) {
      line_visible = active();
    } else {
      const auto [keyword, rest] = split_directive(ll.text);
      if (keyword == "if" || keyword == "ifdef" || keyword == "ifndef") {
        // The directive itself belongs to the ENCLOSING region.
        line_visible = active();
        Region r;
        r.parent_active = active();
        if (keyword == "ifdef") {
          r.this_active = defines.count(first_identifier(rest)) != 0;
        } else if (keyword == "ifndef") {
          r.this_active = defines.count(first_identifier(rest)) == 0;
        } else {
          const EvalResult res = eval_pp_expression(rest, defines);
          r.this_active = res.ok && res.value != 0;
        }
        r.any_taken = r.this_active;
        stack.push_back(r);
      } else if (keyword == "elif") {
        if (!stack.empty()) {
          Region& r = stack.back();
          line_visible = r.parent_active;
          if (r.any_taken) {
            r.this_active = false;
          } else {
            const EvalResult res = eval_pp_expression(rest, defines);
            r.this_active = res.ok && res.value != 0;
            r.any_taken = r.this_active;
          }
        } else {
          line_visible = true;  // stray directive: count conservatively
        }
      } else if (keyword == "else") {
        if (!stack.empty()) {
          Region& r = stack.back();
          line_visible = r.parent_active;
          r.this_active = !r.any_taken;
          r.any_taken = true;
        } else {
          line_visible = true;
        }
      } else if (keyword == "endif") {
        if (!stack.empty()) {
          line_visible = stack.back().parent_active;
          stack.pop_back();
        } else {
          line_visible = true;
        }
      } else {
        // define/undef/include/pragma/...: visible when the region is.
        line_visible = active();
        if (line_visible) {
          if (keyword == "define") {
            const std::string name = first_identifier(rest);
            std::string value = rest.substr(name.size());
            const auto b = value.find_first_not_of(" \t");
            value = b == std::string::npos ? "" : value.substr(b);
            if (!name.empty() && name.size() < rest.size() && rest[name.size()] == '(') {
              // Function-like macros are recorded as defined but not expanded.
              value = "1";
            }
            defines[name] = value;
          } else if (keyword == "undef") {
            defines.erase(first_identifier(rest));
          }
        }
      }
    }
    if (line_visible) {
      for (int k = 0; k < ll.n_physical; ++k) {
        masks[static_cast<std::size_t>(ll.first_physical) + k] |= bit;
      }
    }
  }
}

}  // namespace

MaskHistogram ClassifiedFile::histogram() const {
  MaskHistogram hist;
  for (std::size_t i = 0; i < masks.size(); ++i) {
    if (is_code[i]) ++hist[masks[i]];
  }
  return hist;
}

std::size_t ClassifiedFile::sloc() const {
  std::size_t n = 0;
  for (const bool c : is_code) n += c ? 1 : 0;
  return n;
}

ClassifiedFile classify_file(const std::string& name, const std::string& content,
                             std::span<const Configuration> configs) {
  const LexedSource lexed = lex_source(content);
  ClassifiedFile out;
  out.name = name;
  out.masks.assign(static_cast<std::size_t>(lexed.n_physical_lines), 0);
  out.is_code.assign(lexed.has_code.begin(), lexed.has_code.end());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    classify_for_config(lexed, configs[c], 1u << c, out.masks);
  }
  return out;
}

TreeClassification classify_tree(std::span<const SourceFile> files,
                                 std::span<const Configuration> configs) {
  TreeClassification out;
  for (const auto& f : files) {
    out.files.push_back(classify_file(f.name, f.content, configs));
    const auto& cf = out.files.back();
    for (const auto& [mask, count] : cf.histogram()) out.histogram[mask] += count;
    out.total_sloc += cf.sloc();
  }
  const auto unused = out.histogram.find(0);
  if (unused != out.histogram.end()) out.unused_sloc = unused->second;
  return out;
}

}  // namespace hacc::metrics::cbi
