#include "xsycl/group_algorithms.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "test_helpers.hpp"

namespace hacc::xsycl {
namespace {

using testing::StandaloneSubGroup;

class GroupAlgorithms : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(SubGroupSizes, GroupAlgorithms,
                         ::testing::Values(8, 16, 32, 64),
                         [](const auto& info) {
                           return "sg" + std::to_string(info.param);
                         });

Varying<int> iota_lanes(int n) {
  Varying<int> v;
  for (int l = 0; l < n; ++l) v[l] = 100 + l;
  return v;
}

TEST_P(GroupAlgorithms, SelectFromGroupAppliesArbitraryPermutation) {
  const int S = GetParam();
  StandaloneSubGroup ctx(S);
  const auto x = iota_lanes(S);
  Varying<int> src;
  for (int l = 0; l < S; ++l) src[l] = (l * 3 + 1) % S;  // some permutation-ish map
  const auto out = select_from_group(ctx.sg, x, src);
  for (int l = 0; l < S; ++l) EXPECT_EQ(out[l], 100 + (l * 3 + 1) % S);
  EXPECT_EQ(ctx.counters.select_ops, 1u);
  EXPECT_EQ(ctx.counters.select_words, static_cast<std::uint64_t>(S));
}

TEST_P(GroupAlgorithms, XorPermuteIsInvolution) {
  const int S = GetParam();
  StandaloneSubGroup ctx(S);
  const auto x = iota_lanes(S);
  for (int mask = 1; mask < S; ++mask) {
    const auto once = permute_by_xor(ctx.sg, x, mask);
    const auto twice = permute_by_xor(ctx.sg, once, mask);
    for (int l = 0; l < S; ++l) {
      ASSERT_EQ(once[l], 100 + (l ^ mask));
      ASSERT_EQ(twice[l], x[l]) << "mask " << mask << " lane " << l;
    }
  }
}

TEST_P(GroupAlgorithms, BroadcastReadsNamedLane) {
  const int S = GetParam();
  StandaloneSubGroup ctx(S);
  const auto x = iota_lanes(S);
  for (int lane = 0; lane < S; ++lane) {
    EXPECT_EQ(group_broadcast(ctx.sg, x, lane), 100 + lane);
  }
  EXPECT_EQ(ctx.counters.broadcast_ops, static_cast<std::uint64_t>(S));
}

TEST_P(GroupAlgorithms, ShiftLeftMovesLanesDown) {
  const int S = GetParam();
  StandaloneSubGroup ctx(S);
  const auto x = iota_lanes(S);
  const auto out = shift_group_left(ctx.sg, x, 2);
  for (int l = 0; l + 2 < S; ++l) EXPECT_EQ(out[l], 100 + l + 2);
}

TEST_P(GroupAlgorithms, ShiftRightMovesLanesUp) {
  const int S = GetParam();
  StandaloneSubGroup ctx(S);
  const auto x = iota_lanes(S);
  const auto out = shift_group_right(ctx.sg, x, 3);
  for (int l = 3; l < S; ++l) EXPECT_EQ(out[l], 100 + l - 3);
}

TEST_P(GroupAlgorithms, ReduceOverGroupSumsAllLanes) {
  const int S = GetParam();
  StandaloneSubGroup ctx(S);
  Varying<double> x;
  for (int l = 0; l < S; ++l) x[l] = l + 1;
  EXPECT_DOUBLE_EQ(reduce_over_group(ctx.sg, x), S * (S + 1) / 2.0);
}

TEST_P(GroupAlgorithms, MaskedReduceSkipsInactiveLanes) {
  const int S = GetParam();
  StandaloneSubGroup ctx(S);
  Varying<double> x;
  Varying<bool> active;
  for (int l = 0; l < S; ++l) {
    x[l] = 10.0;
    active[l] = (l % 2 == 0);
  }
  EXPECT_DOUBLE_EQ(reduce_over_group_masked(ctx.sg, x, active), 10.0 * (S / 2));
}

// --- Half-warp partner schedule properties (correctness backbone, §5.3) ---

TEST_P(GroupAlgorithms, XorScheduleIsCrossHalfInvolutionCoveringAllPairs) {
  const int S = GetParam();
  const int H = S / 2;
  std::set<std::pair<int, int>> pairs;
  for (int r = 0; r < H; ++r) {
    for (int l = 0; l < S; ++l) {
      const int p = xor_partner(l, r, S);
      // Cross-half property.
      EXPECT_NE(l < H, p < H) << "round " << r << " lane " << l;
      // Involution: my partner's partner is me (pair-wise symmetry).
      EXPECT_EQ(xor_partner(p, r, S), l);
      if (l < H) pairs.emplace(l, p - H);
    }
  }
  // Every (lower, upper) pair appears exactly once over all rounds.
  EXPECT_EQ(pairs.size(), static_cast<std::size_t>(H) * H);
}

TEST_P(GroupAlgorithms, ButterflyScheduleIsCrossHalfInvolutionCoveringAllPairs) {
  const int S = GetParam();
  const int H = S / 2;
  std::set<std::pair<int, int>> pairs;
  for (int r = 0; r < H; ++r) {
    for (int l = 0; l < S; ++l) {
      const int p = butterfly_partner(l, r, S);
      EXPECT_NE(l < H, p < H);
      EXPECT_EQ(butterfly_partner(p, r, S), l)
          << "round " << r << " lane " << l << " partner " << p;
      if (l < H) pairs.emplace(l, p - H);
    }
  }
  EXPECT_EQ(pairs.size(), static_cast<std::size_t>(H) * H);
}

TEST_P(GroupAlgorithms, ButterflyRoundZeroSwapsHalves) {
  const int S = GetParam();
  const int H = S / 2;
  for (int l = 0; l < H; ++l) EXPECT_EQ(butterfly_partner(l, 0, S), l + H);
}

TEST_P(GroupAlgorithms, SchedulesCoverSamePairSets) {
  // Different order, same set: the guarantee that lets variants interoperate.
  const int S = GetParam();
  const int H = S / 2;
  std::set<std::pair<int, int>> xor_pairs, fly_pairs;
  for (int r = 0; r < H; ++r) {
    for (int l = 0; l < H; ++l) {
      xor_pairs.emplace(l, xor_partner(l, r, S));
      fly_pairs.emplace(l, butterfly_partner(l, r, S));
    }
  }
  EXPECT_EQ(xor_pairs, fly_pairs);
}

TEST_P(GroupAlgorithms, ExchangeSelectMatchesXorSchedule) {
  const int S = GetParam();
  StandaloneSubGroup ctx(S);
  const auto x = iota_lanes(S);
  for (int r = 0; r < S / 2; ++r) {
    Varying<int> out;
    exchange_select(ctx.sg, x, r, out);
    for (int l = 0; l < S; ++l) ASSERT_EQ(out[l], 100 + xor_partner(l, r, S));
  }
}

TEST_P(GroupAlgorithms, ExchangeVisaMatchesButterflySchedule) {
  const int S = GetParam();
  StandaloneSubGroup ctx(S);
  const auto x = iota_lanes(S);
  for (int r = 0; r < S / 2; ++r) {
    Varying<int> out;
    exchange_visa(ctx.sg, x, r, out);
    for (int l = 0; l < S; ++l) ASSERT_EQ(out[l], 100 + butterfly_partner(l, r, S));
  }
  EXPECT_GT(ctx.counters.butterfly_words, 0u);
  EXPECT_EQ(ctx.counters.select_ops, 0u);
}

TEST_P(GroupAlgorithms, LocalMemoryExchangesMatchSelect) {
  const int S = GetParam();
  struct Obj {
    float a, b, c;  // 12 bytes: three 32-bit components
  };
  StandaloneSubGroup ctx(S, sizeof(Obj) * kMaxLanes);
  Varying<Obj> x;
  for (int l = 0; l < S; ++l) x[l] = {float(l), float(10 * l), float(l * l)};
  for (int r = 0; r < S / 2; ++r) {
    Varying<Obj> via32, viaobj;
    exchange_local32(ctx.sg, x, r, via32);
    exchange_local_object(ctx.sg, x, r, viaobj);
    for (int l = 0; l < S; ++l) {
      const int p = xor_partner(l, r, S);
      ASSERT_EQ(via32[l].a, float(p));
      ASSERT_EQ(via32[l].b, float(10 * p));
      ASSERT_EQ(via32[l].c, float(p * p));
      ASSERT_EQ(viaobj[l].a, via32[l].a);
      ASSERT_EQ(viaobj[l].b, via32[l].b);
      ASSERT_EQ(viaobj[l].c, via32[l].c);
    }
  }
  // 32-bit path: one barrier per word; object path: one barrier per exchange.
  EXPECT_EQ(ctx.counters.local32_barriers, static_cast<std::uint64_t>(S / 2) * 3);
  EXPECT_EQ(ctx.counters.localobj_barriers, static_cast<std::uint64_t>(S / 2));
}

TEST(GroupAlgorithmsCounters, SelectCountsWordsForCompositeTypes) {
  StandaloneSubGroup ctx(32);
  struct Obj {
    float v[5];  // 20 bytes = 5 words
  };
  Varying<Obj> x;
  Varying<std::int32_t> src;
  for (int l = 0; l < 32; ++l) src[l] = l;
  (void)select_from_group(ctx.sg, x, src);
  EXPECT_EQ(ctx.counters.select_words, 32u * 5u);
}

}  // namespace
}  // namespace hacc::xsycl
