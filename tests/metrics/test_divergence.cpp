#include "metrics/divergence.hpp"

#include <gtest/gtest.h>

namespace hacc::metrics {
namespace {

// Config bits: 0 = A, 1 = B, 2 = C.
constexpr std::uint32_t kA = 1, kB = 2, kC = 4;

TEST(Jaccard, IdenticalSetsHaveZeroDistance) {
  MaskHistogram hist = {{kA | kB, 100}};
  EXPECT_DOUBLE_EQ(jaccard_distance(hist, 0, 1), 0.0);
}

TEST(Jaccard, DisjointSetsHaveUnitDistance) {
  MaskHistogram hist = {{kA, 50}, {kB, 70}};
  EXPECT_DOUBLE_EQ(jaccard_distance(hist, 0, 1), 1.0);
}

TEST(Jaccard, PartialOverlap) {
  // 80 shared, 10 A-only, 10 B-only: d = 1 - 80/100.
  MaskHistogram hist = {{kA | kB, 80}, {kA, 10}, {kB, 10}};
  EXPECT_DOUBLE_EQ(jaccard_distance(hist, 0, 1), 0.2);
}

TEST(Jaccard, EmptySetsAreIdentical) {
  MaskHistogram hist = {{kC, 30}};  // nothing in A or B
  EXPECT_DOUBLE_EQ(jaccard_distance(hist, 0, 1), 0.0);
}

TEST(Jaccard, SymmetricInArguments) {
  MaskHistogram hist = {{kA | kB, 10}, {kA, 30}, {kB, 5}};
  EXPECT_DOUBLE_EQ(jaccard_distance(hist, 0, 1), jaccard_distance(hist, 1, 0));
}

TEST(CodeDivergence, ZeroWhenAllCodeShared) {
  // CD = 0: no specialization for any platform (paper §3.3).
  MaskHistogram hist = {{kA | kB | kC, 1000}};
  EXPECT_DOUBLE_EQ(code_divergence(hist, 3), 0.0);
  EXPECT_DOUBLE_EQ(code_convergence(hist, 3), 1.0);
}

TEST(CodeDivergence, OneWhenNothingShared) {
  MaskHistogram hist = {{kA, 10}, {kB, 10}, {kC, 10}};
  EXPECT_DOUBLE_EQ(code_divergence(hist, 3), 1.0);
}

TEST(CodeDivergence, AveragesPairwiseDistances) {
  // A and B identical; C disjoint: pairs (A,B)=0, (A,C)=1, (B,C)=1.
  MaskHistogram hist = {{kA | kB, 100}, {kC, 100}};
  EXPECT_NEAR(code_divergence(hist, 3), 2.0 / 3.0, 1e-12);
}

TEST(CodeDivergence, SmallSpecializationStaysNearZero) {
  // The paper's headline: select vs memory variants differ by ~19 lines in
  // a ~11k-line SYCL code base -> convergence ~= 1.
  MaskHistogram hist = {{kA | kB, 11273}, {kA, 19}, {kB, 19}};
  EXPECT_GT(code_convergence(hist, 2), 0.99);
}

TEST(CodeDivergence, SinglePlatformIsZero) {
  MaskHistogram hist = {{kA, 10}};
  EXPECT_DOUBLE_EQ(code_divergence(hist, 1), 0.0);
}

}  // namespace
}  // namespace hacc::metrics
