#pragma once

/// \file
/// Run-wide metrics registry: named counters, gauges, and log-bucketed
/// latency histograms — the aggregation half of the observability layer
/// (docs/OBSERVABILITY.md).  Producers all over the step (PM phase times,
/// tree build/reuse counts, kernel op counters, checkpoint bytes/seconds,
/// step-controller decisions) record into one registry; the scenario runner
/// snapshots it into every JSONL step event and into the end-of-run
/// `run_summary` event.  The registry aggregates; it times nothing itself.
/// Kernel and stage walls reach it from the two records the runtime keeps:
/// per-kernel walls from xsycl::Queue's LaunchStats (ops.kernel_s) and
/// per-stage walls from the solver's force-evaluation stages via core::StepStats
/// (sched.pm_s, sched.short_s, tree.build_s).
///
/// Handles: name lookup happens once, at registration
/// (counter()/gauge()/histogram() intern the name and return an index);
/// recording through a handle is a mutex acquire plus an array update — no
/// string construction, no map lookup.  reset() zeroes values but keeps every
/// registration, so cached handles in long-lived producers (PmSolver, the
/// runner) survive a reset between runs.
///
/// Thread-safe: every operation takes mu_ (compiler-checked via
/// HACC_GUARDED_BY); recording is cheap enough for per-step and per-solve
/// cadence, and snapshots may race recorders freely — the TSan CI job runs
/// the concurrent record+snapshot suite at 8 threads.

#include <cstdint>
#include <string>
#include <vector>

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace hacc::obs {

/// What kind of instrument a registry entry is.
enum class MetricKind { kCounter, kGauge, kHistogram };

/// One registry entry's exported state.  Counters/gauges fill `value`;
/// histograms fill count/sum/min/max plus the interpolated percentiles.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
  std::uint64_t count = 0;  ///< histogram sample count
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

class MetricsRegistry {
 public:
  using Handle = std::size_t;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every instrumented subsystem records into.
  /// The scenario runner resets it at run start; see docs/OBSERVABILITY.md
  /// for the one-active-run-per-process contract.
  static MetricsRegistry& global();

  /// Registers (or finds) a named instrument and returns its handle.
  /// Registering an existing name with a different kind throws
  /// std::logic_error — one name, one meaning.
  Handle counter(const std::string& name);
  Handle gauge(const std::string& name);
  Handle histogram(const std::string& name);

  /// Counter: adds `v` (default 1).
  void inc(Handle h, double v = 1.0);
  /// Gauge: sets the current value.
  void set(Handle h, double v);
  /// Histogram: records one sample (clamped into the bucket range).
  void record(Handle h, double v);

  /// Name-based conveniences for cold paths (one registration + one update).
  void inc(const std::string& name, double v = 1.0) { inc(counter(name), v); }
  void set(const std::string& name, double v) { set(gauge(name), v); }
  void record(const std::string& name, double v) { record(histogram(name), v); }

  /// Every registered instrument, in registration order.
  std::vector<MetricValue> snapshot() const;

  /// The snapshot as one flat JSON object: counters/gauges as
  /// `"name":value`, histograms as `"name.count"`, `"name.sum"`,
  /// `"name.p50"`, `"name.p95"`, `"name.p99"` — the fragment embedded in
  /// JSONL step events and the run_summary event.
  std::string to_json() const;

  /// Zeroes all values; registrations (names, kinds, handles) survive.
  void reset();

  std::size_t size() const;

 private:
  // Log-2 bucket boundaries spanning [kHistMin, kHistMin * 2^kHistBuckets):
  // bucket b holds samples in [kHistMin * 2^b, kHistMin * 2^(b+1)).  At
  // kHistMin = 1 ns this covers a nanosecond to ~584 years, plenty for both
  // latencies and step sizes.
  static constexpr int kHistBuckets = 64;
  static constexpr double kHistMin = 1e-9;

  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    double value = 0.0;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::vector<std::uint64_t> buckets;  // kHistBuckets, histograms only
  };

  Handle intern(const std::string& name, MetricKind kind);
  static double percentile(const Entry& e, double q);

  mutable util::Mutex mu_;
  std::vector<Entry> entries_ HACC_GUARDED_BY(mu_);
};

}  // namespace hacc::obs
