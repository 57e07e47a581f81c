#pragma once

// Queue: the launch machinery.  A launch spans N sub-groups; sub-groups are
// packed into work-groups, work-groups are distributed across the thread
// pool (standing in for a GPU's compute units).  Kernels are C++ function
// objects invoked once per sub-group — the functor style the paper's
// migration pipeline produces (Fig. 1c) so kernels can be referenced by
// name through CRK-HACC's launch wrapper (§4.2).

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/annotations.hpp"
#include "util/mutex.hpp"
#include "util/thread_pool.hpp"
#include "xsycl/sub_group.hpp"

namespace hacc::xsycl {

// Every xsycl kernel satisfies this concept.  name() keys the launch history
// and the by-name launch registry.
template <typename K>
concept SubGroupKernel = requires(const K k, SubGroup& sg) {
  { k(sg) } -> std::same_as<void>;
  { k.name() } -> std::convertible_to<std::string>;
};

struct LaunchConfig {
  int sub_group_size = 32;  // HACC_SYCL_SG_SIZE: 16 on Aurora, 32 on Polaris, 64 on Frontier
  int sg_per_wg = 4;        // sub-groups per work-group (block size 128 / warp 32)
};

// Per-launch record: kernel identity, configuration, instrumented op counts,
// and measured CPU wall time.  The platform cost model consumes these.
struct LaunchStats {
  std::string kernel;
  int sub_group_size = 0;
  std::uint64_t n_sub_groups = 0;
  OpCounters ops;
  double seconds = 0.0;
};

// Per-kernel totals over a run of launches: merged op counters, wall seconds
// summed in launch order, and the launch count.  The one source of per-kernel
// wall time: the runner's cascade and the examples' tables read these.
struct KernelTotals {
  OpCounters ops;
  double seconds = 0.0;
  std::uint64_t launches = 0;

  void add(const LaunchStats& s) {
    ops.merge(s.ops);
    seconds += s.seconds;
    ++launches;
  }
};
using KernelTotalsByName = std::map<std::string, KernelTotals>;

// Thread-safe: submit() may be called from several driver threads at once
// (each launch still fans its work-groups out over the shared pool), and the
// launch history is snapshotted under mu_.  Kernel bodies themselves see
// per-chunk OpCounters, so they never share mutable state across workers.
class Queue {
 public:
  explicit Queue(util::ThreadPool& pool = util::ThreadPool::global())
      : pool_(&pool) {}

  // Runs kernel(sg) for every sub-group index in [0, n_sub_groups).  Throws
  // std::invalid_argument for a sub-group size check_sub_group_size rejects.
  template <SubGroupKernel K>
  LaunchStats submit(const K& kernel, std::uint64_t n_sub_groups,
                     const LaunchConfig& cfg = {}) {
    return submit_impl([&kernel](SubGroup& sg) { kernel(sg); }, kernel.name(),
                       n_sub_groups, cfg);
  }

  // The pool launches run on; a launch's host-side preparation (the pair
  // harness's launch-wide state gather) runs on it too.
  util::ThreadPool& pool() const { return *pool_; }

  // Snapshot of every launch since construction / last clear.  Returns a
  // copy: a reference into history_ could be invalidated — or torn — by a
  // concurrent submit().
  std::vector<LaunchStats> history() const {
    util::MutexLock lock(mu_);
    return history_;
  }
  void clear_history() {
    util::MutexLock lock(mu_);
    history_.clear();
  }

  // Totals per kernel name over the recorded history.
  KernelTotalsByName aggregate_by_kernel() const;

 private:
  using KernelFn = std::function<void(SubGroup&)>;

  LaunchStats submit_impl(const KernelFn& fn, const std::string& name,
                          std::uint64_t n_sub_groups, const LaunchConfig& cfg);

  util::ThreadPool* pool_;
  mutable util::Mutex mu_;
  std::vector<LaunchStats> history_ HACC_GUARDED_BY(mu_);
};

}  // namespace hacc::xsycl
