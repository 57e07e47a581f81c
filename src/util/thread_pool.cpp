#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "util/config.hpp"

namespace hacc::util {

namespace {

// Worker-start announcement hook (see set_worker_start_hook).  A plain
// atomic function pointer: read once per worker start, no static-destruction
// ordering hazards.
std::atomic<void (*)(unsigned)> g_worker_start_hook{nullptr};

}  // namespace

void ThreadPool::set_worker_start_hook(void (*hook)(unsigned)) {
  g_worker_start_hook.store(hook, std::memory_order_release);
}

ThreadPool::ThreadPool(unsigned n_threads) {
  if (n_threads == 0) {
    n_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(n_threads);
  for (unsigned i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(unsigned worker_index) {
  if (auto* hook = g_worker_start_hook.load(std::memory_order_acquire)) {
    hook(worker_index);
  }
  std::uint64_t seen_seq = 0;
  for (;;) {
    Job* job = nullptr;
    {
      MutexLock lock(mu_);
      while (!stop_ && !(job_ != nullptr && job_seq_ != seen_seq)) {
        cv_work_.wait(lock);
      }
      if (stop_) return;
      job = job_;
      seen_seq = job_seq_;
      // Register as active before releasing the lock so the submitter cannot
      // destroy the job while this thread still holds a pointer to it.
      ++job->active;
    }
    run_chunks(*job);
  }
}

void ThreadPool::run_chunks(Job& job) {
  for (;;) {
    std::int64_t begin;
    {
      MutexLock lock(mu_);
      if (job.next >= job.n) break;
      begin = job.next;
      job.next += job.chunk;
    }
    const std::int64_t end = std::min(begin + job.chunk, job.n);
    (*job.body)(begin, end);
    {
      MutexLock lock(mu_);
      --job.remaining;
    }
  }
  MutexLock lock(mu_);
  if (--job.active == 0 && job.remaining == 0) cv_done_.notify_all();
}

void ThreadPool::parallel_for_chunks(std::int64_t n, std::int64_t chunk,
                                     const std::function<void(std::int64_t, std::int64_t)>& body) {
  if (n <= 0) return;
  chunk = std::max<std::int64_t>(1, chunk);
  if (n <= chunk || workers_.size() == 1) {
    for (std::int64_t b = 0; b < n; b += chunk) body(b, std::min(b + chunk, n));
    return;
  }
  Job job;
  job.n = n;
  job.chunk = chunk;
  job.body = &body;
  job.next = 0;
  job.remaining = (n + chunk - 1) / chunk;
  job.active = 1;  // the submitting thread participates too
  {
    MutexLock lock(mu_);
    job_ = &job;
    ++job_seq_;
  }
  cv_work_.notify_all();
  run_chunks(job);
  {
    MutexLock lock(mu_);
    // Wait until every chunk completed AND every worker left run_chunks;
    // only then is it safe to destroy the stack-allocated job.
    while (!(job.remaining == 0 && job.active == 0)) cv_done_.wait(lock);
    // A concurrent submitter (two driver threads sharing one pool)
    // may have published its own job while this one drained — only clear
    // the slot if it still points at OUR job, or idle workers would stop
    // being offered the other submitter's chunks.
    if (job_ == &job) job_ = nullptr;
  }
}

void ThreadPool::parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& body) {
  // Pick a chunk size that gives each worker several chunks for load balance.
  const std::int64_t target_chunks = static_cast<std::int64_t>(size()) * 8;
  const std::int64_t chunk = std::max<std::int64_t>(1, n / std::max<std::int64_t>(1, target_chunks));
  const std::function<void(std::int64_t, std::int64_t)> wrapped =
      [&body](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) body(i);
      };
  parallel_for_chunks(n, chunk, wrapped);
}

unsigned ThreadPool::parse_thread_count(const char* text, const char* key) {
  if (text == nullptr) return 0;
  const std::string s = text;
  const auto space = [](unsigned char c) { return std::isspace(c) != 0; };
  const auto b = std::find_if_not(s.begin(), s.end(), space);
  if (b == s.end()) return 0;  // set-but-empty behaves like unset
  long v = 0;
  if (!parse_number(std::string(b, std::find_if_not(s.rbegin(), s.rend(), space).base()), v) ||
      v < 0 || v > kMaxThreads) {
    throw std::invalid_argument(std::string("invalid ") + key + " '" + s +
                                "' (need an integer in [0, " + std::to_string(kMaxThreads) +
                                "], 0 = hardware concurrency)");
  }
  return static_cast<unsigned>(v);
}

ThreadPool& ThreadPool::global() {
  // NOLINT below: read once at first use to size the process-wide pool; the
  // process does not setenv concurrently with pool construction.
  static ThreadPool pool(
      parse_thread_count(std::getenv("HACC_NUM_THREADS")));  // NOLINT(concurrency-mt-unsafe): single read at static init
  return pool;
}

}  // namespace hacc::util
