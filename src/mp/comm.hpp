// MPI-subset communicator (paper §5.3).
//
// The paper implements point-to-point send/receive plus MPI_Bcast and
// MPI_Allreduce on VIA, because public MPI libraries of the time were not
// thread-safe. This communicator provides those (plus barrier, reduce,
// gather, allgather) over any net::Channel, on one wire protocol: every data
// frame carries a 4-byte sequence prefix, the receiver acks it on the ack tag
// (net::kAckTagBase) and drops duplicates, and the sender waits for the ack,
// retransmitting whenever a bounded wait times out (net::RetryPolicy::run).
// So every operation survives drops, duplicates and reorders, and a peer that
// stays silent past the retry budget yields kUnavailable instead of a hang.
//
// Threading: one thread per node calls into a Comm at a time — the node
// representative inside parallel regions, the main thread outside them, with
// team barriers ordering the two. Collectives are called in the same order on
// every node (standard MPI semantics). There is no progress thread: a node
// acks and absorbs frames only while it is inside a Comm call.
//
// Virtual-time integration: threads that participate in the direct-execution
// timing bind their ThreadClock with bind_thread_clock(); every operation
// then charges LogGP costs and propagates causality through message
// timestamps. Acks, and the wait for them, charge nothing. Unbound threads
// communicate untimed.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/status.hpp"
#include "common/topology.hpp"
#include "mp/datatypes.hpp"
#include "net/channel.hpp"
#include "net/fault.hpp"
#include "obs/metric.hpp"
#include "vtime/clock.hpp"
#include "vtime/cost_model.hpp"

namespace parade::mp {

/// Alias of vtime::bind_thread_clock — all Comm operations on the calling
/// thread charge their costs to the bound clock.
using vtime::bind_thread_clock;
using vtime::thread_clock;

struct RecvStatus {
  NodeId source = 0;
  Tag tag = 0;
  std::size_t bytes = 0;
};

class Comm {
 public:
  /// `topology` carries this node's rank, the cluster size, and the tree
  /// fan-out. Must agree with the channel's rank/size (checked). `retry`
  /// bounds every wait.
  Comm(const Topology& topology, net::Channel& channel,
       vtime::NetworkModel model, net::RetryPolicy retry = {});

  NodeId rank() const { return topo_.rank; }
  int size() const { return topo_.nodes; }
  const Topology& topology() const { return topo_; }
  const vtime::NetworkModel& model() const { return model_; }
  net::Channel& channel() { return channel_; }

  // ---- point-to-point ----

  /// Sends `bytes` of `data` to `dst` with user tag `tag` (>= 0); blocks
  /// until `dst` acked it. Frames that arrive meanwhile are acked and kept
  /// for later receives.
  Status send(NodeId dst, Tag tag, const void* data, std::size_t bytes);

  /// Receives into `buffer` (capacity `capacity`); blocks. `src`/`tag` may be
  /// kAnyNode / kAnyTag. kOutOfRange when the message does not fit;
  /// kUnavailable when the channel closes or nothing arrives within the
  /// retry budget.
  Status recv(NodeId src, Tag tag, void* buffer, std::size_t capacity,
              RecvStatus* status = nullptr);

  /// Non-blocking probe-and-take: searches the frames already received,
  /// then absorbs what the inbox holds. std::nullopt when nothing matches.
  std::optional<std::vector<std::uint8_t>> try_recv_bytes(
      NodeId src, Tag tag, RecvStatus* status = nullptr);

  // ---- collectives (call once per node, same order everywhere) ----
  //
  // Any unreachable partner surfaces as kUnavailable on every node that
  // depended on it; a contribution of the wrong size as kInternal.

  /// Dissemination barrier, O(log N) rounds.
  Status barrier();

  /// Binomial-tree broadcast of `bytes` from `root`.
  Status bcast(void* data, std::size_t bytes, NodeId root);

  /// Binomial-tree reduction to `root`; `buffer` holds this node's
  /// contribution on entry and, on the root, the result on exit.
  Status reduce(void* buffer, std::size_t count, DType dtype, Op op,
                NodeId root);

  /// Reduce-to-0 + broadcast: every node ends with the reduction result.
  Status allreduce(void* buffer, std::size_t count, DType dtype, Op op);

  /// Allreduce with a user combine function over opaque bytes (used for the
  /// merged multi-variable reduction structures of paper §4.2).
  Status allreduce_user(void* buffer, std::size_t bytes,
                        const UserReduceFn& fn);

  /// Root gathers `bytes` from each node into `out` (size N*bytes, rank
  /// order). `out` may be null on non-roots.
  Status gather(const void* contribution, std::size_t bytes, void* out,
                NodeId root);

  /// gather to 0 + bcast.
  Status allgather(const void* contribution, std::size_t bytes, void* out);

  /// Linger after the last operation (MPI_Finalize-style). There is no
  /// background progress thread, so once a node stops calling into its Comm
  /// it also stops answering retransmissions — and a peer whose final ack
  /// was lost in transit would retry into silence. quiesce() keeps pumping
  /// (re-acking duplicate data, absorbing stray acks) until the link has
  /// stayed silent for a few retry timeouts. Call it once per node after the
  /// last operation, before fabric teardown, when the fabric can drop.
  void quiesce();

 private:
  Tag next_collective_tag();
  Status reduce_with(void* buffer, std::size_t bytes, NodeId root, Tag tag,
                     const std::function<void(void*, const void*)>& combine);
  void count_collective(obs::Counter* which, std::size_t payload_bytes);
  /// Charges a delivered message to the bound clock: CPU since the last
  /// event, causality merge with the sender's stamp, receive overhead.
  void charge_arrival(const net::Message& message);

  // Wire engine. rel_pump is the single progress loop: each wait of
  // retry_.run (one poll) consumes acks and stashes fresh data until its
  // goal is met; each timeout retransmits the unacked window.
  Status rel_send(NodeId dst, Tag wire_tag, const void* data,
                  std::size_t bytes);
  Status rel_recv(const net::Mailbox::Matcher& want, net::Message* out);
  Status rel_pump(const net::Mailbox::Matcher* want, net::Message* out);
  /// One wait of at most `timeout` for the goal of rel_pump: the frame
  /// `want` matches (charged and moved into `out`), or, with no `want`, the
  /// ack of the pending send.
  net::WaitOutcome poll(const net::Mailbox::Matcher* want,
                        std::chrono::milliseconds timeout, net::Message* out);
  /// Consumes an ack, or acks + dedupes a data frame; returns the data
  /// frame, seq stripped, only when it was not seen before.
  std::optional<net::Message> rel_absorb(net::Message msg);
  void post_ack(NodeId dst, std::uint32_t seq);

  net::Channel& channel_;
  Topology topo_;
  vtime::NetworkModel model_;
  net::RetryPolicy retry_;

  // Touched only by the one calling thread per node, so unsynchronized.
  std::uint32_t collective_seq_ = 0;
  std::uint32_t rel_seq_ = 0;
  struct PendingSend {
    std::uint32_t seq;
    NodeId dst;
    Tag wire_tag;
    std::vector<std::uint8_t> payload;  // seq-prefixed, for retransmission
    VirtualUs stamp;
  };
  // A send returns once acked or abandoned, so at most one is in flight.
  std::optional<PendingSend> rel_unacked_;
  // Per source rank, the highest seq absorbed. A sender numbers all its
  // frames in one sequence and has at most one in flight, so a frame at or
  // below it is a duplicate, or one its sender already gave up on.
  std::vector<std::uint32_t> rel_last_seq_;
  std::deque<net::Message> rel_stash_;  // acked + deduped, seq stripped

  // Registry handles (resolved once in the ctor; see docs/OBSERVABILITY.md).
  struct Metrics {
    obs::Counter* p2p_sends;
    obs::Counter* p2p_send_bytes;
    obs::Counter* coll_payload_bytes;
    obs::Counter* barriers;
    obs::Counter* bcasts;
    obs::Counter* reduces;
    obs::Counter* allreduces;
    obs::Counter* gathers;
    obs::Counter* allgathers;
    obs::Counter* retries;  ///< mp.retry.count: retransmissions
    obs::Timer* recv_wait;
    /// mp.collective_ns: wall latency distribution of every collective entry
    /// (nested internal collectives record their own samples, matching the
    /// nested counter convention above).
    obs::Histogram* collective_ns;
  };
  Metrics metrics_;
};

}  // namespace parade::mp
