#include "xsycl/comm_variant.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <tuple>

#include "test_helpers.hpp"

namespace hacc::xsycl {
namespace {

using testing::StandaloneSubGroup;

class CommVariants : public ::testing::TestWithParam<std::tuple<CommVariant, int>> {};

INSTANTIATE_TEST_SUITE_P(
    ExchangeVariantsBySgSize, CommVariants,
    ::testing::Combine(::testing::ValuesIn(kExchangeVariants),
                       ::testing::Values(16, 32, 64)),
    [](const auto& info) {
      std::string v = to_string(std::get<0>(info.param));
      for (char& c : v) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return v + "_sg" + std::to_string(std::get<1>(info.param));
    });

TEST_P(CommVariants, ExchangeDeliversPartnerState) {
  // The pair harness reads a lane's partner in place, at partner_lane: the
  // lane whose state the variant's exchange delivers on the device.  Select
  // and both local-memory variants pair by the XOR schedule (paper Fig. 4),
  // vISA by the butterfly (Fig. 7).
  const auto [variant, S] = GetParam();
  struct State {
    float pos[3];
    float vel[3];
    float mass;
    float pad;
  };
  Varying<State> mine;
  for (int l = 0; l < S; ++l) {
    mine[l] = {{float(l), float(l + 1), float(l + 2)},
               {float(-l), float(-l - 1), float(-l - 2)},
               float(l) * 0.5f,
               0.f};
  }
  const int H = S / 2;
  for (int r = 0; r < H; ++r) {
    for (int l = 0; l < S; ++l) {
      const int p = variant == CommVariant::kVISA
                        ? (l < H ? H + (l + r) % H : (l - H - r + H) % H)
                        : l ^ (H | r);
      const State& theirs = mine[partner_lane(variant, l, r, S)];
      ASSERT_EQ(theirs.pos[0], float(p));
      ASSERT_EQ(theirs.vel[2], float(-p - 2));
      ASSERT_EQ(theirs.mass, float(p) * 0.5f);
    }
  }
}

TEST_P(CommVariants, PartnerScheduleIsSymmetricPerRound) {
  // The "critically important" pair-wise symmetry (§5.3): if lane l sees
  // lane p's particle this round, lane p sees lane l's.
  const auto [variant, S] = GetParam();
  for (int r = 0; r < S / 2; ++r) {
    for (int l = 0; l < S; ++l) {
      const int p = partner_lane(variant, l, r, S);
      EXPECT_EQ(partner_lane(variant, p, r, S), l);
    }
  }
}

TEST_P(CommVariants, AllCrossHalfPairsCoveredExactlyOnce) {
  const auto [variant, S] = GetParam();
  const int H = S / 2;
  std::set<std::pair<int, int>> pairs;
  for (int r = 0; r < H; ++r) {
    for (int l = 0; l < H; ++l) pairs.emplace(l, partner_lane(variant, l, r, S));
  }
  EXPECT_EQ(pairs.size(), static_cast<std::size_t>(H) * H);
}

TEST_P(CommVariants, OnlyTheExpectedCountersMove) {
  const auto [variant, S] = GetParam();
  StandaloneSubGroup ctx(S);
  charge_exchange(ctx.sg, variant, sizeof(float));
  const auto& c = ctx.counters;
  switch (variant) {
    case CommVariant::kSelect:
      EXPECT_GT(c.select_ops, 0u);
      EXPECT_EQ(c.local32_words + c.localobj_bytes + c.butterfly_words, 0u);
      break;
    case CommVariant::kMemory32:
      EXPECT_GT(c.local32_words, 0u);
      EXPECT_GT(c.barriers, 0u);
      EXPECT_EQ(c.select_ops + c.localobj_bytes + c.butterfly_words, 0u);
      break;
    case CommVariant::kMemoryObject:
      EXPECT_GT(c.localobj_bytes, 0u);
      EXPECT_GT(c.barriers, 0u);
      EXPECT_EQ(c.select_ops + c.local32_words + c.butterfly_words, 0u);
      break;
    case CommVariant::kVISA:
      EXPECT_GT(c.butterfly_words, 0u);
      EXPECT_EQ(c.select_ops + c.local32_words + c.localobj_bytes, 0u);
      break;
    case CommVariant::kBroadcast:
      break;
  }
}

TEST(CommVariantExchange, BroadcastThrowsInEveryBuild) {
  // Broadcast restructures the loop instead of exchanging; a charge that
  // reached it would otherwise price a round that never runs.
  StandaloneSubGroup ctx(16);
  EXPECT_THROW(charge_exchange(ctx.sg, CommVariant::kBroadcast, sizeof(float)),
               std::logic_error);
  EXPECT_EQ(ctx.counters.summary(), OpCounters{}.summary());
}

TEST(CommVariantNames, RoundTripThroughStrings) {
  for (const auto v : kAllVariants) {
    CommVariant parsed;
    ASSERT_TRUE(util::parse_name(to_string(v), parsed)) << to_string(v);
    EXPECT_EQ(parsed, v);
  }
  // The figure benches and the snapshot tables key rows by these names.
  EXPECT_STREQ(to_string(CommVariant::kSelect), "Select");
  EXPECT_STREQ(to_string(CommVariant::kMemory32), "Memory, 32-bit");
  EXPECT_STREQ(to_string(CommVariant::kMemoryObject), "Memory, Object");
  EXPECT_STREQ(to_string(CommVariant::kBroadcast), "Broadcast");
  EXPECT_STREQ(to_string(CommVariant::kVISA), "vISA");
}

TEST(CommVariantNames, CompactAliases) {
  CommVariant v;
  EXPECT_TRUE(util::parse_name("select", v));
  EXPECT_EQ(v, CommVariant::kSelect);
  EXPECT_TRUE(util::parse_name("mem32", v));
  EXPECT_EQ(v, CommVariant::kMemory32);
  EXPECT_TRUE(util::parse_name("memobj", v));
  EXPECT_EQ(v, CommVariant::kMemoryObject);
  EXPECT_TRUE(util::parse_name("visa", v));
  EXPECT_EQ(v, CommVariant::kVISA);
  EXPECT_TRUE(util::parse_name("memory32", v));
  EXPECT_EQ(v, CommVariant::kMemory32);
  EXPECT_TRUE(util::parse_name("memory_object", v));
  EXPECT_EQ(v, CommVariant::kMemoryObject);
  EXPECT_TRUE(util::parse_name("broadcast", v));
  EXPECT_EQ(v, CommVariant::kBroadcast);
  EXPECT_FALSE(util::parse_name("warp", v));
  EXPECT_EQ(v, CommVariant::kBroadcast);  // untouched on failure
}

}  // namespace
}  // namespace hacc::xsycl
