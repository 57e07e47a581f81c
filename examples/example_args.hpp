#pragma once

// The key=value arguments of the example CLIs, read as strictly as hacc_run
// reads its scenario keys.  A present numeric key whose text is not a
// number of the wanted type, or a `threads=` that
// ThreadPool::parse_thread_count rejects, prints a message naming the key
// and clears ok(), so the caller exits 1 before any work starts.  An absent
// key gives the fallback.
//
//   hacc::examples::Args args(argc, argv, "quickstart");
//   cfg.np_side = args.get("np", 8);
//   const unsigned threads = args.threads();
//   if (!args.ok()) return 1;

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "util/config.hpp"
#include "util/thread_pool.hpp"

namespace hacc::examples {

class Args {
 public:
  Args(int argc, char** argv, const char* program) : program_(program) {
    cli_.apply_overrides(argc - 1, argv + 1);
  }

  // A number: any integer type within its range, or a double.  The
  // util::Config getters fall back silently on text that does not parse,
  // so a getter that returns the same value under two different fallbacks
  // is what proves the text parsed.
  template <typename T>
  T get(const char* key, T fallback) {
    if (!cli_.has(key)) return fallback;
    if constexpr (std::is_floating_point_v<T>) {
      const double v = cli_.get_double(key, 0.0);
      if (v == cli_.get_double(key, 1.0) || std::isnan(v)) return static_cast<T>(v);
      reject(key, "a number");
    } else {
      const long v = cli_.get_int(key, 0);
      if (v == cli_.get_int(key, 1) && std::in_range<T>(v)) return static_cast<T>(v);
      reject(key, ("an integer in [" + std::to_string(std::numeric_limits<T>::min()) + ", " +
                   std::to_string(std::numeric_limits<T>::max()) + "]")
                      .c_str());
    }
    return fallback;
  }

  std::string text(const char* key, const std::string& fallback) const {
    return cli_.get_string(key, fallback);
  }

  // The pool size `threads=` asks for; 0 = hardware concurrency.
  unsigned threads() {
    const std::string text = cli_.get_string("threads", "");
    try {
      return util::ThreadPool::parse_thread_count(text.c_str());
    } catch (const std::invalid_argument&) {
      reject("threads", ("an integer in [0, " + std::to_string(util::ThreadPool::kMaxThreads) +
                         "], 0 = hardware concurrency")
                            .c_str());
      return 0;
    }
  }

  // False once a key was rejected.
  bool ok() const { return ok_; }

 private:
  void reject(const char* key, const char* want) {
    std::fprintf(stderr, "%s: invalid %s '%s' (need %s)\n", program_, key,
                 cli_.get_string(key, "").c_str(), want);
    ok_ = false;
  }

  util::Config cli_;
  const char* program_;
  bool ok_ = true;
};

}  // namespace hacc::examples
