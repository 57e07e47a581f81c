#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "xsycl/group_algorithms.hpp"

namespace hacc::xsycl {
namespace {

using testing::StandaloneSubGroup;

TEST(SubGroup, ExposesSizeAndIndex) {
  OpCounters counters;
  const SubGroup sg(32, /*index=*/7, counters);
  EXPECT_EQ(sg.size(), 32);
  EXPECT_EQ(sg.index(), 7u);
}

TEST(BroadcastObject, CountsWordsOfCompositeType) {
  struct Obj {
    float v[7];
  };
  StandaloneSubGroup ctx(32);
  Varying<Obj> x;
  x[5].v[3] = 1.25f;
  const Obj got = broadcast_object(ctx.sg, x, 5);
  EXPECT_EQ(got.v[3], 1.25f);
  EXPECT_EQ(ctx.counters.broadcast_ops, 7u);
}

TEST(OpCounters, MergeAccumulatesEveryField) {
  OpCounters a, b;
  a.select_ops = 1;
  a.interactions = 10;
  a.atomic_f32_add = 3;
  b.select_ops = 2;
  b.interactions = 20;
  b.localobj_bytes = 64;
  b.butterfly_words = 8;
  a.merge(b);
  EXPECT_EQ(a.select_ops, 3u);
  EXPECT_EQ(a.interactions, 30u);
  EXPECT_EQ(a.localobj_bytes, 64u);
  EXPECT_EQ(a.butterfly_words, 8u);
  EXPECT_EQ(a.atomic_f32_add, 3u);
}

TEST(OpCounters, SummaryMentionsKeyFields) {
  OpCounters c;
  c.interactions = 42;
  c.select_words = 7;
  const auto s = c.summary();
  EXPECT_NE(s.find("interactions=42"), std::string::npos);
  EXPECT_NE(s.find("select_words=7"), std::string::npos);
}

}  // namespace
}  // namespace hacc::xsycl
