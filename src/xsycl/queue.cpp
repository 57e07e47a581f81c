#include "xsycl/queue.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace hacc::xsycl {

LaunchStats Queue::submit_impl(const KernelFn& fn, const std::string& name,
                               std::uint64_t n_sub_groups, const LaunchConfig& cfg) {
  check_sub_group_size(cfg.sub_group_size);
  LaunchStats stats;
  stats.kernel = name;
  stats.sub_group_size = cfg.sub_group_size;
  stats.n_sub_groups = n_sub_groups;

  const int sg_per_wg = std::max(1, cfg.sg_per_wg);
  const std::uint64_t n_wg = (n_sub_groups + sg_per_wg - 1) / sg_per_wg;

  OpCounters total;
  util::Mutex merge_mu;

  // Per-chunk trace spans make each kernel launch visible on every worker
  // lane it ran on.  The dynamic span name ("xsycl." + kernel) is interned
  // once per launch, only while tracing is on; chunks then record through
  // the stable pointer lock-free.
  const char* span_name =
      obs::Tracer::global().enabled()
          ? obs::Tracer::global().intern("xsycl." + name)
          : nullptr;

  const double t0 = util::wtime();
  // shared: total (kernel-wide OpCounters, merged under merge_mu); each
  // chunk otherwise works on its own local_counters.
  pool_->parallel_for_chunks(
      static_cast<std::int64_t>(n_wg), /*chunk=*/4,
      [&](std::int64_t wg_begin, std::int64_t wg_end) {
        const obs::TraceSpan chunk_span(span_name);
        // One counter block per worker chunk.
        OpCounters local_counters;
        for (std::int64_t wg = wg_begin; wg < wg_end; ++wg) {
          ++local_counters.work_groups;
          for (int s = 0; s < sg_per_wg; ++s) {
            const std::uint64_t sg_index =
                static_cast<std::uint64_t>(wg) * sg_per_wg + s;
            if (sg_index >= n_sub_groups) break;
            ++local_counters.sub_groups;
            local_counters.lanes_launched += cfg.sub_group_size;
            SubGroup sg(cfg.sub_group_size, sg_index, local_counters);
            fn(sg);
          }
        }
        util::MutexLock lock(merge_mu);
        total.merge(local_counters);
      });
  stats.seconds = util::wtime() - t0;
  stats.ops = total;

  {
    util::MutexLock lock(mu_);
    history_.push_back(stats);
  }
  return stats;
}

KernelTotalsByName Queue::aggregate_by_kernel() const {
  KernelTotalsByName agg;
  util::MutexLock lock(mu_);
  for (const auto& s : history_) agg[s.kernel].add(s);
  return agg;
}

}  // namespace hacc::xsycl
