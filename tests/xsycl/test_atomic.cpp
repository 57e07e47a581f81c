#include "xsycl/atomic.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace hacc::xsycl {
namespace {

TEST(AtomicRef, FloatFetchAddAccumulates) {
  OpCounters c;
  float target = 0.0f;
  atomic_ref<float> ref(target, c);
  for (int i = 0; i < 100; ++i) ref.fetch_add(0.5f);
  EXPECT_FLOAT_EQ(target, 50.0f);
  EXPECT_EQ(c.atomic_f32_add, 100u);
}

TEST(AtomicRef, FloatFetchMinMax) {
  // SYCL exposes fetch_min/fetch_max for floats on all hardware (§5.1);
  // CUDA's atomicMin/Max are integer-only.
  OpCounters c;
  float target = 10.0f;
  atomic_ref<float> ref(target, c);
  ref.fetch_min(3.0f);
  EXPECT_FLOAT_EQ(target, 3.0f);
  ref.fetch_min(5.0f);  // larger: no change
  EXPECT_FLOAT_EQ(target, 3.0f);
  ref.fetch_max(8.0f);
  EXPECT_FLOAT_EQ(target, 8.0f);
  ref.fetch_max(1.0f);  // smaller: no change
  EXPECT_FLOAT_EQ(target, 8.0f);
  EXPECT_EQ(c.atomic_f32_minmax, 4u);
}

TEST(AtomicRef, IntFetchAddAndMinMaxCounters) {
  OpCounters c;
  int target = 0;
  atomic_ref<int> ref(target, c);
  ref.fetch_add(3);
  ref.fetch_min(-5);
  ref.fetch_max(7);
  EXPECT_EQ(target, 7);
  EXPECT_EQ(c.atomic_i32, 3u);
  EXPECT_EQ(c.atomic_f32_add, 0u);
}

TEST(AtomicRef, ConcurrentFloatAddIsLossless) {
  OpCounters c;
  alignas(8) float target = 0.0f;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  std::vector<OpCounters> counters(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&target, &counters, t] {
      atomic_ref<float> ref(target, counters[t]);
      for (int i = 0; i < kPerThread; ++i) ref.fetch_add(1.0f);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FLOAT_EQ(target, float(kThreads * kPerThread));
}

TEST(AtomicRef, ConcurrentMinFindsGlobalMinimum) {
  alignas(8) float target = 1e30f;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<OpCounters> counters(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&target, &counters, t] {
      atomic_ref<float> ref(target, counters[t]);
      for (int i = 0; i < 1000; ++i) {
        ref.fetch_min(float(1000 * (t + 1) - i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FLOAT_EQ(target, 1.0f);  // t=0, i=999
}

}  // namespace
}  // namespace hacc::xsycl
