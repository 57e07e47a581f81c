// The shard-to-shard message seam: routing, canonical drain order, traffic
// accounting, and thread-safety of concurrent sends.

#include "shard/transport.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

namespace hacc::shard {
namespace {

Message make_message(int from, int to, std::uint32_t tag, MsgKind kind) {
  Message m;
  m.kind = kind;
  m.from = from;
  m.to = to;
  m.tag = tag;
  m.ids = {1, 2, 3};
  m.payload = {1.f, 2.f};
  return m;
}

TEST(TransportTest, RoutesToTheAddressedEndpointOnly) {
  InProcTransport t(3);
  t.send(make_message(0, 2, 0, MsgKind::kMigrate));
  t.send(make_message(1, 2, 0, MsgKind::kMigrate));
  EXPECT_TRUE(t.receive(0).empty());
  EXPECT_TRUE(t.receive(1).empty());
  const auto msgs = t.receive(2);
  ASSERT_EQ(msgs.size(), 2u);
  // A drain empties the mailbox.
  EXPECT_TRUE(t.receive(2).empty());
}

TEST(TransportTest, DrainSortsBySenderThenTag) {
  // Post in scrambled order; the drain must come back (from, tag)-sorted —
  // arrival order is scheduling noise and must not leak into physics.
  InProcTransport t(2);
  t.send(make_message(1, 0, 1, MsgKind::kGhostLoad));
  t.send(make_message(1, 0, 0, MsgKind::kGhostLoad));
  t.send(make_message(0, 0, 1, MsgKind::kGhostLoad));
  t.send(make_message(0, 0, 0, MsgKind::kGhostLoad));
  const auto msgs = t.receive(0);
  ASSERT_EQ(msgs.size(), 4u);
  EXPECT_EQ(msgs[0].from, 0);
  EXPECT_EQ(msgs[0].tag, 0u);
  EXPECT_EQ(msgs[1].from, 0);
  EXPECT_EQ(msgs[1].tag, 1u);
  EXPECT_EQ(msgs[2].from, 1);
  EXPECT_EQ(msgs[2].tag, 0u);
  EXPECT_EQ(msgs[3].from, 1);
  EXPECT_EQ(msgs[3].tag, 1u);
}

TEST(TransportTest, ConcurrentSendsAllArrive) {
  // Many threads post to the same endpoint at once; the mailbox mutex must
  // keep every message (run under TSan in CI).
  InProcTransport t(2);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&t, w] {
      for (int i = 0; i < kPerThread; ++i) {
        t.send(make_message(w % 2, 1, static_cast<std::uint32_t>(i),
                            MsgKind::kGhostRefresh));
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto msgs = t.receive(1);
  EXPECT_EQ(msgs.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(t.stats().messages, static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(TransportTest, CountsBytesAndMessages) {
  InProcTransport t(2);
  const Message m = make_message(0, 1, 0, MsgKind::kGhostLoad);
  const std::size_t expect_bytes = m.bytes();
  EXPECT_EQ(expect_bytes, 3 * sizeof(std::int64_t) + 2 * sizeof(float));
  t.send(make_message(0, 1, 0, MsgKind::kGhostLoad));
  t.send(make_message(0, 1, 1, MsgKind::kGhostLoad));
  EXPECT_EQ(t.stats().messages, 2u);
  EXPECT_EQ(t.stats().bytes, 2 * expect_bytes);
}

TEST(TransportTest, RejectsBadRanks) {
  InProcTransport t(2);
  EXPECT_THROW(t.send(make_message(0, 2, 0, MsgKind::kMigrate)),
               std::out_of_range);
  EXPECT_THROW(t.send(make_message(0, -1, 0, MsgKind::kMigrate)),
               std::out_of_range);
  EXPECT_THROW(t.receive(2), std::out_of_range);
  EXPECT_THROW(InProcTransport(0), std::invalid_argument);
}

}  // namespace
}  // namespace hacc::shard
