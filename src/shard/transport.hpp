#pragma once

/// \file
/// Message passing between shards.  Shards never touch each other's state:
/// every cross-shard byte — migrating particles, ghost-halo loads, the
/// per-kernel ghost field refreshes of the SPH chain — travels as a typed
/// `Message` through the `InProcTransport`, one mailbox per endpoint behind
/// an annotated mutex.  Which fields a message carries is the engine's
/// wire format, declared once in its field tables (shard/engine.hpp).
///
/// The transport is concrete: it has one implementation, so it has no
/// interface.  An MPI transport would reintroduce one beside its second
/// implementation (SPH-EXA's USE_MPI seam is the model); the engine is
/// already written strictly in pack / send / barrier / drain phases for it.
///
/// Delivery discipline: the engine alternates send and drain phases with a
/// barrier between them (a pool join in-process; MPI_Waitall under MPI), so
/// a drain sees every message of the phase.  drain() returns messages
/// sorted by (sender, tag) — arrival order is scheduling noise and MUST
/// NOT leak into physics, so the sort is part of the transport contract.

#include <cstdint>
#include <vector>

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace hacc::shard {

/// What a message carries; with the tag it names the payload's field table.
enum class MsgKind : std::uint8_t {
  kMigrate,       ///< resident handover: global particle ids
  kGhostLoad,     ///< halo build: ids + packed per-particle fields
  kGhostRefresh,  ///< mid-evaluation field update for an existing halo
};

/// One typed shard-to-shard message.  `ids` are global particle ids (the
/// combined dm-then-gas addressing of the engine); `payload` is the packed
/// field data, `words` floats per particle, particle by particle.
struct Message {
  MsgKind kind = MsgKind::kMigrate;
  int from = -1;
  int to = -1;
  /// Disambiguates streams within one phase (species, refresh round).
  std::uint32_t tag = 0;
  std::uint32_t words = 0;  ///< floats per particle in `payload`
  std::vector<std::int64_t> ids;
  std::vector<float> payload;

  std::size_t bytes() const {
    return ids.size() * sizeof(std::int64_t) + payload.size() * sizeof(float);
  }
};

/// Cumulative traffic counters (the shard.messages / shard.bytes metrics).
struct TransportStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// A thread-safe message queue for one endpoint.
class Mailbox {
 public:
  void post(Message&& m);
  /// Removes and returns everything posted so far, sorted by (from, tag).
  std::vector<Message> drain();

 private:
  util::Mutex mu_;
  std::vector<Message> queue_ HACC_GUARDED_BY(mu_);
};

/// Endpoints 0..size()-1, one mailbox each, zero copies beyond the move.
/// send() may be called concurrently from any thread; receive(rank) must
/// not race itself for the same rank (the engine's phase barriers
/// guarantee that).
class InProcTransport {
 public:
  explicit InProcTransport(int size);

  int size() const { return static_cast<int>(boxes_.size()); }
  /// Routes m to endpoint m.to; throws std::out_of_range on a bad rank.
  void send(Message&& m);
  /// Drains endpoint `rank`'s mailbox (sorted — see Mailbox::drain).
  std::vector<Message> receive(int rank);
  TransportStats stats() const;

 private:
  std::vector<Mailbox> boxes_;
  mutable util::Mutex stats_mu_;
  TransportStats stats_ HACC_GUARDED_BY(stats_mu_);
};

}  // namespace hacc::shard
