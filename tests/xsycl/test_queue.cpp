#include "xsycl/queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace hacc::xsycl {
namespace {

// A minimal conforming kernel: marks which sub-group indices ran and
// accumulates lane counts.
struct MarkKernel {
  std::string name() const { return "mark"; }

  void operator()(SubGroup& sg) const {
    hits[sg.index()].fetch_add(1, std::memory_order_relaxed);
    lanes->fetch_add(sg.size(), std::memory_order_relaxed);
  }

  std::atomic<int>* hits;
  std::atomic<long>* lanes;
};

TEST(Queue, EverySubGroupRunsExactlyOnce) {
  util::ThreadPool pool(4);
  Queue q(pool);
  constexpr std::uint64_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  std::atomic<long> lanes{0};
  const auto stats = q.submit(MarkKernel{hits.data(), &lanes}, n,
                              {.sub_group_size = 32, .sg_per_wg = 4});
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
  EXPECT_EQ(lanes.load(), 1000 * 32);
  EXPECT_EQ(stats.n_sub_groups, n);
  EXPECT_EQ(stats.ops.sub_groups, n);
  EXPECT_EQ(stats.ops.lanes_launched, 1000u * 32u);
}

TEST(Queue, RaggedLastWorkGroupHandled) {
  util::ThreadPool pool(2);
  Queue q(pool);
  constexpr std::uint64_t n = 13;  // not a multiple of sg_per_wg
  std::vector<std::atomic<int>> hits(n);
  std::atomic<long> lanes{0};
  q.submit(MarkKernel{hits.data(), &lanes}, n, {.sub_group_size = 16, .sg_per_wg = 4});
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(Queue, TimersRecordLaunches) {
  util::ThreadPool pool(2);
  Queue q(pool);
  std::vector<std::atomic<int>> hits(10);
  std::atomic<long> lanes{0};
  const auto first = q.submit(MarkKernel{hits.data(), &lanes}, 10, {});
  const auto second = q.submit(MarkKernel{hits.data(), &lanes}, 10, {});
  const auto agg = q.aggregate_by_kernel();
  ASSERT_EQ(agg.size(), 1u);
  EXPECT_EQ(agg.at("mark").launches, 2u);
  EXPECT_GE(first.seconds, 0.0);
  EXPECT_GE(second.seconds, 0.0);
  EXPECT_EQ(agg.at("mark").seconds, first.seconds + second.seconds);
}

TEST(Queue, HistoryAggregatesByKernelName) {
  util::ThreadPool pool(2);
  Queue q(pool);
  std::vector<std::atomic<int>> hits(20);
  std::atomic<long> lanes{0};
  q.submit(MarkKernel{hits.data(), &lanes}, 10, {});
  for (auto& h : hits) h.store(0);
  q.submit(MarkKernel{hits.data(), &lanes}, 20, {});
  const auto agg = q.aggregate_by_kernel();
  ASSERT_EQ(agg.size(), 1u);
  EXPECT_EQ(agg.at("mark").ops.sub_groups, 30u);
  EXPECT_EQ(agg.at("mark").launches, 2u);
  q.clear_history();
  EXPECT_TRUE(q.history().empty());
}

TEST(Queue, ConcurrentSubmittersKeepHistoryConsistent) {
  // Two driver threads submit into one queue over the shared pool; the
  // history must record every launch without tearing (TSan-checked in CI).
  util::ThreadPool pool(4);
  Queue q(pool);
  constexpr int kPerThread = 8;
  std::vector<std::atomic<int>> hits(64);
  std::atomic<long> lanes{0};
  const auto driver = [&] {
    for (int r = 0; r < kPerThread; ++r) {
      q.submit(MarkKernel{hits.data(), &lanes}, 64, {});
      (void)q.history();  // concurrent snapshot while the other thread submits
    }
  };
  std::thread a(driver);
  std::thread b(driver);
  a.join();
  b.join();
  EXPECT_EQ(q.history().size(), 2u * kPerThread);
  const auto agg = q.aggregate_by_kernel();
  ASSERT_EQ(agg.size(), 1u);
  EXPECT_EQ(agg.at("mark").launches, 2u * kPerThread);
  EXPECT_EQ(agg.at("mark").ops.sub_groups, 2u * kPerThread * 64u);
}

TEST(Queue, SubGroupSizePropagates) {
  util::ThreadPool pool(2);
  Queue q(pool);
  std::vector<std::atomic<int>> hits(4);
  std::atomic<long> lanes{0};
  for (const int S : {16, 32, 64}) {
    lanes.store(0);
    for (auto& h : hits) h.store(0);
    const auto stats =
        q.submit(MarkKernel{hits.data(), &lanes}, 4, {.sub_group_size = S, .sg_per_wg = 2});
    EXPECT_EQ(stats.sub_group_size, S);
    EXPECT_EQ(lanes.load(), 4 * S);
  }
}

// Sizes a sub-group cannot have: zero, negative, not a power of two, or
// above the 64 lanes of a Varying.
class InvalidSubGroupSize : public ::testing::TestWithParam<int> {};

TEST_P(InvalidSubGroupSize, SubmitThrowsInvalidArgumentAndRunsNothing) {
  util::ThreadPool pool(2);
  Queue q(pool);
  std::vector<std::atomic<int>> hits(4);
  std::atomic<long> lanes{0};
  EXPECT_FALSE(valid_sub_group_size(GetParam()));
  EXPECT_THROW(q.submit(MarkKernel{hits.data(), &lanes}, 4,
                        {.sub_group_size = GetParam(), .sg_per_wg = 2}),
               std::invalid_argument);
  EXPECT_EQ(lanes.load(), 0);
  EXPECT_TRUE(q.history().empty());
}

INSTANTIATE_TEST_SUITE_P(Sizes, InvalidSubGroupSize,
                         ::testing::Values(0, -32, 12, 96, 128));

class ValidSubGroupSize : public ::testing::TestWithParam<int> {};

TEST_P(ValidSubGroupSize, SubmitRunsEveryLane) {
  util::ThreadPool pool(2);
  Queue q(pool);
  std::vector<std::atomic<int>> hits(4);
  std::atomic<long> lanes{0};
  EXPECT_TRUE(valid_sub_group_size(GetParam()));
  const auto stats = q.submit(MarkKernel{hits.data(), &lanes}, 4,
                              {.sub_group_size = GetParam(), .sg_per_wg = 2});
  EXPECT_EQ(stats.sub_group_size, GetParam());
  EXPECT_EQ(lanes.load(), 4L * GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, ValidSubGroupSize,
                         ::testing::Values(2, 4, 8, 16, 32, 64));

}  // namespace
}  // namespace hacc::xsycl
