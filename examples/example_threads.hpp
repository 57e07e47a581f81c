#pragma once

// The `threads=` argument of the example CLIs, parsed as strictly as
// hacc_run parses it (ThreadPool::parse_thread_count): a non-negative
// integer, 0 = hardware concurrency.  On a malformed value it prints a
// message naming `threads` and returns nullopt, so the caller exits 1
// before any pool exists.

#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>

#include "util/config.hpp"
#include "util/thread_pool.hpp"

namespace hacc::examples {

inline std::optional<unsigned> threads_arg(const util::Config& cli,
                                           const char* program) {
  const std::string text = cli.get_string("threads", "");
  try {
    return util::ThreadPool::parse_thread_count(text.c_str());
  } catch (const std::invalid_argument&) {
    std::fprintf(stderr,
                 "%s: invalid threads '%s' (need an integer in [0, %ld], "
                 "0 = hardware concurrency)\n",
                 program, text.c_str(), util::ThreadPool::kMaxThreads);
    return std::nullopt;
  }
}

}  // namespace hacc::examples
