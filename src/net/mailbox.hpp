// A node's incoming-message queue with predicate matching.
//
// Multiple consumer threads may block in recv_match() concurrently with
// different predicates (e.g. the DSM communication thread matching protocol
// tags while application threads match collective tags); a delivery wakes all
// waiters and each re-scans for its own match. The queue preserves arrival
// order between messages matched by the same predicate, which is all the MP
// layer requires for (src, tag) ordering.
//
// Fault awareness: transports that learn a peer is gone (e.g. a SocketFabric
// reader hitting EOF) call mark_peer_down(); receivers waiting specifically
// on that peer wake immediately and observe kUnavailable instead of blocking
// forever. Timed receives (recv_match_for) are the waits that
// net::RetryPolicy::run bounds for the DSM exchanges and the MP reliable
// layer.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_set>

#include "common/status.hpp"
#include "net/message.hpp"

namespace parade::net {

class Mailbox {
 public:
  using Matcher = std::function<bool(const MessageHeader&)>;

  /// Outcome of a receive that can fail: exactly one of `message` or a
  /// non-OK `status` (kUnavailable on close/peer-down, kTimeout on expiry).
  struct RecvOutcome {
    std::optional<Message> message;
    Status status;
  };

  /// Enqueues a message (called by the fabric / reader threads). Returns
  /// false — and drops the message — once the mailbox is closed.
  bool deliver(Message message);

  /// Blocks until a message whose header satisfies `match` is available and
  /// removes it. Returns std::nullopt only after close().
  std::optional<Message> recv_match(const Matcher& match);

  /// Bounded-wait variant: returns std::nullopt on timeout or after close()
  /// (check closed() to distinguish). Queued matches are drained first, so a
  /// zero timeout degenerates to try_recv_match.
  std::optional<Message> recv_match_for(const Matcher& match,
                                        std::chrono::milliseconds timeout);

  /// Waits for a match from `peer` (kAnyNode = any). Wakes with kUnavailable
  /// when the mailbox closes or `peer` is marked down (queued matches are
  /// still drained first), and with kTimeout when `timeout` expires.
  RecvOutcome recv_match_from(
      NodeId peer, const Matcher& match,
      std::optional<std::chrono::milliseconds> timeout = std::nullopt);

  /// Non-blocking variant.
  std::optional<Message> try_recv_match(const Matcher& match);

  /// Wakes all blocked receivers with std::nullopt; subsequent recv_match
  /// calls drain remaining matches, then return std::nullopt.
  void close();

  /// Records that `peer` is unreachable and wakes blocked receivers so
  /// recv_match_from(peer, ...) calls observe kUnavailable. Idempotent.
  void mark_peer_down(NodeId peer);
  bool peer_down(NodeId peer) const;

  bool closed() const;
  std::size_t pending() const;

 private:
  std::optional<Message> take_locked(const Matcher& match);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  std::unordered_set<NodeId> down_peers_;
  bool closed_ = false;
};

}  // namespace parade::net
