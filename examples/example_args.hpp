#pragma once

// The key=value arguments of the example CLIs, read by the same strict
// util::Config::read as hacc_run's keys: read() takes the SimConfig keys
// (all of them, or one) with their ranges, get() the example's own.  A
// present key whose text is not a value of the wanted type (a number in
// range, or one of an enum's spellings), or a `threads=` that
// ThreadPool::parse_thread_count rejects, prints a message naming the key
// and clears ok(), so the caller exits 1 before any work starts.  So does
// a given key that no read looked up (a misspelt key), which ok() reports:
// call it after the last read.  An absent key gives the fallback.
//
//   hacc::examples::Args args(argc, argv, "quickstart");
//   const unsigned threads = args.threads();
//   cfg.np_side = 8;  // the example's default; np= overrides it
//   args.read(cfg);
//   if (!args.ok()) return 1;

#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/solver.hpp"
#include "util/config.hpp"
#include "util/thread_pool.hpp"

namespace hacc::examples {

class Args {
 public:
  Args(int argc, char** argv, const char* program) : program_(program) {
    cli_.apply_overrides(argc - 1, argv + 1);
  }

  // Any type util::Config::read takes: an integer, a double, a bool, a
  // config enum or a std::string.
  template <typename T>
  T get(const char* key, T fallback) {
    std::string error;
    if (!cli_.read(key, fallback, error)) reject(error.c_str());
    return fallback;
  }

  // Overlays the SimConfig keys given (np, box, steps, ...) onto `cfg`.
  void read(core::SimConfig& cfg) {
    if (std::string error; !core::read_sim_keys(cli_, cfg, error)) reject(error.c_str());
  }

  // Overlays the one SimConfig key `key` onto `cfg`, with its table range,
  // for an example that takes only that key.
  void read(core::SimConfig& cfg, std::string_view key) {
    core::for_each_sim_field(cfg, [&](const util::KeyRow& row, auto& field) {
      std::string error;
      if (row.key != nullptr && row.key == key && !cli_.read(row, field, error)) {
        reject(error.c_str());
      }
    });
  }

  // The pool size `threads=` asks for; 0 = hardware concurrency.
  unsigned threads() {
    try {
      return util::ThreadPool::parse_thread_count(cli_.get_string("threads", "").c_str(),
                                                  "threads");
    } catch (const std::invalid_argument& e) {
      reject(e.what());
      return 0;
    }
  }

  // False once a key was rejected or when a given key was never read.
  bool ok() {
    for (const std::string& key : cli_.unread_keys()) {
      reject(("unknown key '" + key + "'").c_str());
    }
    return ok_;
  }

 private:
  void reject(const char* error) {
    std::fprintf(stderr, "%s: %s\n", program_, error);
    ok_ = false;
  }

  util::Config cli_;
  const char* program_;
  bool ok_ = true;
};

}  // namespace hacc::examples
