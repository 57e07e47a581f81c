#pragma once

// A fixed-size worker pool with a blocking parallel_for, standing in for the
// per-rank device: work-groups of an xsycl launch are distributed over these
// workers the way a GPU distributes work-groups over compute units.
//
// Thread-safety: parallel_for / parallel_for_chunks may be called from any
// thread, including reentrantly from inside a running body (a worker that
// submits a nested loop drives it to completion itself, borrowing whichever
// workers are idle; the outer loop finishes on its remaining participants).
// All job hand-off state is guarded by mu_ and checked by clang's Thread
// Safety Analysis (see util/annotations.hpp).

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace hacc::util {

class ThreadPool {
 public:
  // n_threads == 0 picks the hardware concurrency.
  explicit ThreadPool(unsigned n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  // Runs body(i) for i in [0, n), blocking until all iterations finish.
  // Iterations are chunked dynamically; body must be thread-safe.  With a
  // 1-thread pool the loop runs inline on the calling thread in index order,
  // bit-identical to a plain serial loop.
  void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& body);

  // Chunked variant: body(begin, end) over disjoint ranges covering [0, n).
  void parallel_for_chunks(std::int64_t n, std::int64_t chunk,
                           const std::function<void(std::int64_t, std::int64_t)>& body);

  // Process-wide pool, sized from HACC_NUM_THREADS or hardware concurrency.
  // Throws std::invalid_argument on the first call if HACC_NUM_THREADS is
  // set to garbage (see parse_thread_count).
  static ThreadPool& global();

  // Parses a thread count: a non-negative integer (util::parse_number)
  // with only whitespace around it, where 0 (and an unset/empty value) means
  // "pick the hardware concurrency".  Anything else — trailing junk
  // ("8abc"), negative counts, overflow, or values beyond kMaxThreads —
  // throws std::invalid_argument naming `key` and the text, instead of
  // silently falling back.
  static unsigned parse_thread_count(const char* text, const char* key = "HACC_NUM_THREADS");

  // Sanity cap for parse_thread_count: more threads than this is a typo,
  // not a machine.
  static constexpr long kMaxThreads = 4096;

  // Observability hook: invoked once on every newly started worker thread
  // (on that thread, with its index within the pool) before it processes
  // jobs.  The tracing layer installs this so worker lanes carry stable
  // "worker-N" names in trace exports (docs/OBSERVABILITY.md).  Install
  // before constructing the pool whose workers should be announced; pools
  // already running keep the hook state they started with.  nullptr clears.
  static void set_worker_start_hook(void (*hook)(unsigned worker_index));

 private:
  struct Job {
    // Immutable after publication (written before job_ is set under mu_,
    // read by workers only after they observe job_ under mu_).
    std::int64_t n = 0;
    std::int64_t chunk = 1;
    const std::function<void(std::int64_t, std::int64_t)>* body = nullptr;
    // Guarded by the owning pool's mu_ (inexpressible as HACC_GUARDED_BY
    // from a nested struct: the analysis cannot name a member of the
    // enclosing object here, so these are locked by convention and checked
    // dynamically by the TSan CI job).
    std::int64_t next = 0;       // next chunk start to claim
    std::int64_t remaining = 0;  // chunks not yet completed
    int active = 0;              // threads currently inside run_chunks
  };

  void worker_loop(unsigned worker_index);
  void run_chunks(Job& job);

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_work_;
  CondVar cv_done_;
  Job* job_ HACC_GUARDED_BY(mu_) = nullptr;
  std::uint64_t job_seq_ HACC_GUARDED_BY(mu_) = 0;
  bool stop_ HACC_GUARDED_BY(mu_) = false;
};

}  // namespace hacc::util
