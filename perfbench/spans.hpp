#pragma once
// In-memory span recorder for the benchmark driver.  Every public call the
// driver makes into the hacc libraries runs inside time_call(), which reads
// the clock around the call and, when the recorder is enabled (the traced
// run), also records a span: name, start, end, and the enclosing span.
// Spans stay in memory and are written once, when the run ends.  The driver
// is single-threaded, so the recorder needs no locking.

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point t0 = clock::now();
  return std::chrono::duration<double>(clock::now() - t0).count();
}

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // index into the recorder's spans, -1 for a root
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int open(const std::string& name) {
    if (!enabled_) return -1;
    spans_.push_back({name, now_s(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[id].end = now_s();
    stack_.pop_back();
  }

  // Chrome trace_event JSON (µs timestamps), loadable in Perfetto.  The
  // parent index rides in args so tools can rebuild the tree exactly.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d}}",
                   i == 0 ? "" : ",\n", s.name.c_str(), s.start * 1e6,
                   (s.end - s.start) * 1e6, i, s.parent);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Runs f() inside a span named `name` and returns its wall seconds.
template <typename F>
double time_call(SpanRecorder& rec, const std::string& name, F&& f) {
  const int id = rec.open(name);
  const double t0 = now_s();
  std::forward<F>(f)();
  const double dt = now_s() - t0;
  rec.close(id);
  return dt;
}

// A grouping span with no timing of its own (e.g. one replay pass).
class SpanScope {
 public:
  SpanScope(SpanRecorder& rec, const std::string& name)
      : rec_(rec), id_(rec.open(name)) {}
  ~SpanScope() { rec_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace perfbench
