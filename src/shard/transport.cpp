#include "shard/transport.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace hacc::shard {

void Mailbox::post(Message&& m) {
  util::MutexLock lock(mu_);
  queue_.push_back(std::move(m));
}

std::vector<Message> Mailbox::drain() {
  std::vector<Message> out;
  {
    util::MutexLock lock(mu_);
    out.swap(queue_);
  }
  // Arrival order is scheduling noise; (sender, tag) is the canonical order
  // every consumer unpacks in.  stable_sort keeps same-key messages in post
  // order, though the engine never posts two messages with equal keys.
  std::stable_sort(out.begin(), out.end(),
                   [](const Message& a, const Message& b) {
                     return std::make_tuple(a.from, a.tag, a.kind) <
                            std::make_tuple(b.from, b.tag, b.kind);
                   });
  return out;
}

InProcTransport::InProcTransport(int size) : boxes_(size) {
  if (size < 1) {
    throw std::invalid_argument("InProcTransport: size must be >= 1");
  }
}

void InProcTransport::send(Message&& m) {
  if (m.to < 0 || m.to >= size()) {
    throw std::out_of_range("InProcTransport::send: bad destination rank");
  }
  {
    util::MutexLock lock(stats_mu_);
    ++stats_.messages;
    stats_.bytes += m.bytes();
  }
  boxes_[static_cast<std::size_t>(m.to)].post(std::move(m));
}

std::vector<Message> InProcTransport::receive(int rank) {
  if (rank < 0 || rank >= size()) {
    throw std::out_of_range("InProcTransport::receive: bad rank");
  }
  return boxes_[static_cast<std::size_t>(rank)].drain();
}

TransportStats InProcTransport::stats() const {
  util::MutexLock lock(stats_mu_);
  return stats_;
}

}  // namespace hacc::shard
