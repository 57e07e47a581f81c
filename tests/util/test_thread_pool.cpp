#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace hacc::util {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::int64_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::int64_t i) { hits[i].fetch_add(1); });
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleIteration) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.parallel_for(1, [&](std::int64_t i) {
    EXPECT_EQ(i, 0);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ChunkedRangesAreDisjointAndComplete) {
  ThreadPool pool(4);
  constexpr std::int64_t n = 1237;  // deliberately not a multiple of the chunk
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for_chunks(n, 64, [&](std::int64_t b, std::int64_t e) {
    ASSERT_LT(b, e);
    ASSERT_LE(e, n);
    for (std::int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::int64_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(6);
  constexpr std::int64_t n = 100'000;
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for_chunks(n, 1000, [&](std::int64_t b, std::int64_t e) {
    std::int64_t local = 0;
    for (std::int64_t i = b; i < e; ++i) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(ThreadPool, ReusableAcrossManySubmissions) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(100, [&](std::int64_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 100);
  }
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(1000, [&](std::int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 1000 * 999 / 2);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

TEST(ThreadPool, EmptyChunkedRangeIsNoop) {
  ThreadPool pool(3);
  bool called = false;
  pool.parallel_for_chunks(0, 16, [&](std::int64_t, std::int64_t) { called = true; });
  pool.parallel_for_chunks(-5, 16, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ChunkLargerThanRangeRunsInlineOnce) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  int calls = 0;
  std::int64_t seen_b = -1, seen_e = -1;
  pool.parallel_for_chunks(7, 64, [&](std::int64_t b, std::int64_t e) {
    // n <= chunk short-circuits to the calling thread: one covering call.
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
    seen_b = b;
    seen_e = e;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen_b, 0);
  EXPECT_EQ(seen_e, 7);
}

TEST(ThreadPool, ReentrantParallelForFromWorkerCompletes) {
  // Documented behavior: a body may submit a nested parallel_for.  The
  // submitting worker drives the inner loop itself (borrowing idle workers),
  // so the nested call completes even when every worker is busy, and the
  // outer loop still covers all its iterations.
  ThreadPool pool(4);
  constexpr std::int64_t outer_n = 16;
  constexpr std::int64_t inner_n = 1000;
  std::vector<std::atomic<int>> outer_hits(outer_n);
  std::atomic<std::int64_t> inner_sum{0};
  pool.parallel_for(outer_n, [&](std::int64_t i) {
    outer_hits[i].fetch_add(1);
    pool.parallel_for_chunks(inner_n, 100, [&](std::int64_t b, std::int64_t e) {
      std::int64_t local = 0;
      for (std::int64_t k = b; k < e; ++k) local += k;
      inner_sum.fetch_add(local);
    });
  });
  for (std::int64_t i = 0; i < outer_n; ++i) ASSERT_EQ(outer_hits[i].load(), 1);
  EXPECT_EQ(inner_sum.load(), outer_n * (inner_n * (inner_n - 1) / 2));
}

TEST(ThreadPool, DestructionWithIdleWorkersDoesNotHang) {
  // Workers that never received a job must still observe stop_ and join.
  for (int round = 0; round < 8; ++round) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
  }
  // And destruction right after a completed job must not hang either.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(64, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, OneThreadPoolIsBitIdenticalToSerialLoop) {
  // A 1-thread pool runs inline in index order, so non-associative float
  // accumulation matches a plain serial loop bit for bit.
  constexpr std::int64_t n = 4096;
  std::vector<float> values(n);
  for (std::int64_t i = 0; i < n; ++i) {
    values[i] = 1.0f / static_cast<float>(3 * i + 1);
  }
  float serial = 0.f;
  for (std::int64_t i = 0; i < n; ++i) serial += values[i];

  ThreadPool pool(1);
  float pooled = 0.f;
  pool.parallel_for(n, [&](std::int64_t i) { pooled += values[i]; });
  EXPECT_EQ(serial, pooled);

  float chunked = 0.f;
  pool.parallel_for_chunks(n, 128, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) chunked += values[i];
  });
  EXPECT_EQ(serial, chunked);
}

TEST(ThreadPoolEnv, ParsesValidThreadCounts) {
  EXPECT_EQ(ThreadPool::parse_thread_count(nullptr), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count(""), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count("  "), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count("0"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count("8"), 8u);
  EXPECT_EQ(ThreadPool::parse_thread_count(" 16 "), 16u);
  EXPECT_EQ(ThreadPool::parse_thread_count("4096"), 4096u);
}

TEST(ThreadPoolEnv, RejectsGarbageLoudly) {
  EXPECT_THROW(ThreadPool::parse_thread_count("8abc"), std::invalid_argument);
  EXPECT_THROW(ThreadPool::parse_thread_count("abc"), std::invalid_argument);
  EXPECT_THROW(ThreadPool::parse_thread_count("-2"), std::invalid_argument);
  EXPECT_THROW(ThreadPool::parse_thread_count("8 4"), std::invalid_argument);
  EXPECT_THROW(ThreadPool::parse_thread_count("3.5"), std::invalid_argument);
  EXPECT_THROW(ThreadPool::parse_thread_count("4097"), std::invalid_argument);
  EXPECT_THROW(ThreadPool::parse_thread_count("99999999999999999999"),
               std::invalid_argument);
  try {
    ThreadPool::parse_thread_count("abc", "threads");
    ADD_FAILURE() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "invalid threads 'abc' (need an integer in [0, 4096], 0 = hardware concurrency)");
  }
}

}  // namespace
}  // namespace hacc::util
