#include "xsycl/group_algorithms.hpp"

#include <gtest/gtest.h>

#include <set>

#include "test_helpers.hpp"
#include "xsycl/comm_variant.hpp"

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

TEST_P(GroupAlgorithms, BroadcastReadsNamedLane) {
  const int S = GetParam();
  StandaloneSubGroup ctx(S);
  const auto x = iota_lanes(S);
  for (int lane = 0; lane < S; ++lane) {
    EXPECT_EQ(broadcast_object(ctx.sg, x, lane), 100 + lane);
  }
  EXPECT_EQ(ctx.counters.broadcast_ops, static_cast<std::uint64_t>(S));
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

// An exchange round of the harness reads the partner at partner_lane in
// place and charges the variant's primitive with charge_exchange.

TEST_P(GroupAlgorithms, ExchangeSelectMatchesXorSchedule) {
  const int S = GetParam();
  StandaloneSubGroup ctx(S);
  for (int r = 0; r < S / 2; ++r) {
    for (int l = 0; l < S; ++l) {
      ASSERT_EQ(partner_lane(CommVariant::kSelect, l, r, S), xor_partner(l, r, S));
    }
    charge_exchange(ctx.sg, CommVariant::kSelect, sizeof(int));
  }
  EXPECT_EQ(ctx.counters.select_ops, static_cast<std::uint64_t>(S / 2));
  EXPECT_EQ(ctx.counters.select_words, static_cast<std::uint64_t>(S / 2) * S);
}

TEST_P(GroupAlgorithms, ExchangeVisaMatchesButterflySchedule) {
  const int S = GetParam();
  StandaloneSubGroup ctx(S);
  for (int r = 0; r < S / 2; ++r) {
    for (int l = 0; l < S; ++l) {
      ASSERT_EQ(partner_lane(CommVariant::kVISA, l, r, S), butterfly_partner(l, r, S));
    }
    charge_exchange(ctx.sg, CommVariant::kVISA, sizeof(int));
  }
  EXPECT_GT(ctx.counters.butterfly_words, 0u);
  EXPECT_EQ(ctx.counters.select_ops, 0u);
}

TEST_P(GroupAlgorithms, LocalMemoryExchangesMatchSelect) {
  // Both local-memory variants pair lanes as Select does, so the pair
  // harness reads the same partner for all three; only the charges differ.
  const int S = GetParam();
  StandaloneSubGroup ctx(S);
  for (int r = 0; r < S / 2; ++r) {
    for (int l = 0; l < S; ++l) {
      const int p = partner_lane(CommVariant::kSelect, l, r, S);
      ASSERT_EQ(partner_lane(CommVariant::kMemory32, l, r, S), p);
      ASSERT_EQ(partner_lane(CommVariant::kMemoryObject, l, r, S), p);
    }
    charge_exchange(ctx.sg, CommVariant::kMemory32, 12);  // three 32-bit words
    charge_exchange(ctx.sg, CommVariant::kMemoryObject, 12);
  }
  // 32-bit path: one barrier per word; object path: one barrier per exchange.
  EXPECT_EQ(ctx.counters.local32_barriers, static_cast<std::uint64_t>(S / 2) * 3);
  EXPECT_EQ(ctx.counters.localobj_barriers, static_cast<std::uint64_t>(S / 2));
  EXPECT_EQ(ctx.counters.select_ops, 0u);
}

TEST(GroupAlgorithmsCounters, SelectCountsWordsForCompositeTypes) {
  StandaloneSubGroup ctx(32);
  struct Obj {
    float v[5];  // 20 bytes = 5 words
  };
  charge_exchange(ctx.sg, CommVariant::kSelect, sizeof(Obj));
  EXPECT_EQ(ctx.counters.select_ops, 1u);
  EXPECT_EQ(ctx.counters.select_words, 32u * 5u);
}

}  // namespace
}  // namespace hacc::xsycl
