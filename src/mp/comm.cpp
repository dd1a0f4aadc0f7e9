#include "mp/comm.hpp"

#include <algorithm>
#include <cstring>

#include "common/status.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace parade::mp {
namespace {

/// Matches user-tagged point-to-point messages; `src` and `tag` may be
/// kAnyNode / kAnyTag.
net::Mailbox::Matcher user_match(NodeId src, Tag tag) {
  return [src, tag](const net::MessageHeader& h) {
    if (h.tag < net::kMpTagBase || h.tag >= net::kCollTagBase) return false;
    if (src != kAnyNode && h.src != src) return false;
    return tag == kAnyTag || h.tag == net::kMpTagBase + tag;
  };
}

/// Matches one collective frame: its tag from `src`.
net::Mailbox::Matcher coll_match(NodeId src, Tag tag) {
  return [src, tag](const net::MessageHeader& h) {
    return h.tag == tag && h.src == src;
  };
}

void fill_status(const net::Message& m, RecvStatus* status) {
  if (status == nullptr) return;
  *status = {m.header.src, m.header.tag - net::kMpTagBase, m.payload.size()};
}

std::uint32_t read_seq(const std::vector<std::uint8_t>& payload) {
  return static_cast<std::uint32_t>(payload[0]) |
         static_cast<std::uint32_t>(payload[1]) << 8 |
         static_cast<std::uint32_t>(payload[2]) << 16 |
         static_cast<std::uint32_t>(payload[3]) << 24;
}

void write_seq(std::uint8_t* out, std::uint32_t seq) {
  out[0] = static_cast<std::uint8_t>(seq);
  out[1] = static_cast<std::uint8_t>(seq >> 8);
  out[2] = static_cast<std::uint8_t>(seq >> 16);
  out[3] = static_cast<std::uint8_t>(seq >> 24);
}

/// Acks and data frames: everything the wire engine consumes.
bool reliable_frame(const net::MessageHeader& h) {
  return h.tag == net::kAckTagBase || h.tag >= net::kMpTagBase;
}

}  // namespace

Comm::Comm(const Topology& topology, net::Channel& channel,
           vtime::NetworkModel model, net::RetryPolicy retry)
    : channel_(channel),
      topo_(topology),
      model_(model),
      retry_(retry),
      rel_last_seq_(static_cast<std::size_t>(topology.nodes), 0) {
  PARADE_CHECK_MSG(topo_.valid(), "invalid topology");
  PARADE_CHECK_MSG(topo_.rank == channel.rank() &&
                       topo_.nodes == channel.size(),
                   "topology disagrees with channel rank/size");
  auto& reg = obs::Registry::instance();
  const NodeId node = topo_.rank;
  metrics_.p2p_sends = &reg.counter(node, "mp.p2p_sends");
  metrics_.p2p_send_bytes = &reg.counter(node, "mp.p2p_send_bytes");
  metrics_.coll_payload_bytes = &reg.counter(node, "mp.coll_payload_bytes");
  metrics_.barriers = &reg.counter(node, "mp.barriers");
  metrics_.bcasts = &reg.counter(node, "mp.bcasts");
  metrics_.reduces = &reg.counter(node, "mp.reduces");
  metrics_.allreduces = &reg.counter(node, "mp.allreduces");
  metrics_.gathers = &reg.counter(node, "mp.gathers");
  metrics_.allgathers = &reg.counter(node, "mp.allgathers");
  metrics_.retries = &reg.counter(node, "mp.retry.count");
  metrics_.recv_wait = &reg.timer(node, "mp.recv_wait");
  metrics_.collective_ns = &reg.hist(node, "mp.collective_ns");
}

void Comm::count_collective(obs::Counter* which, std::size_t payload_bytes) {
  which->add();
  metrics_.coll_payload_bytes->add(static_cast<std::int64_t>(payload_bytes));
}

Tag Comm::next_collective_tag() {
  // All nodes execute collectives in the same order (SPMD), so a simple
  // sequence number yields matching tags everywhere.
  const std::uint32_t seq = collective_seq_++;
  return net::kCollTagBase + static_cast<Tag>(seq & 0x0FFFFFFF);
}

void Comm::charge_arrival(const net::Message& message) {
  if (auto* clock = vtime::thread_clock()) {
    clock->sync_cpu();
    clock->merge(message.header.vtime +
                 model_.transfer_us(message.payload.size()));
    clock->add(model_.recv_overhead_us);
  }
}

// ---------------------------------------------------------------------------
// Wire engine

void Comm::post_ack(NodeId dst, std::uint32_t seq) {
  // Acks are reliability artifacts outside the LogGP cost model: they carry
  // the current clock (for monotonicity) but charge neither overheads nor
  // the CPU that posts them, so a fault-free run costs only the model's
  // send and receive.
  std::vector<std::uint8_t> payload(4);
  write_seq(payload.data(), seq);
  auto* clock = vtime::thread_clock();
  if (clock != nullptr) clock->sync_cpu();
  const VirtualUs stamp = clock != nullptr ? clock->now() : 0.0;
  (void)channel_.send(dst, net::kAckTagBase, std::move(payload), stamp);
  if (clock != nullptr) clock->discard_cpu();
}

std::optional<net::Message> Comm::rel_absorb(net::Message msg) {
  if (msg.header.tag == net::kAckTagBase) {
    if (rel_unacked_ && msg.payload.size() == 4 &&
        read_seq(msg.payload) == rel_unacked_->seq) {
      rel_unacked_.reset();
    }
    return std::nullopt;
  }
  // Data frame: [seq:4][app payload].
  const NodeId src = msg.header.src;
  if (msg.payload.size() < 4 || src < 0 || src >= size()) {
    return std::nullopt;  // malformed; drop
  }
  const std::uint32_t seq = read_seq(msg.payload);
  post_ack(src, seq);  // always re-ack, even duplicates
  std::uint32_t& last = rel_last_seq_[static_cast<std::size_t>(src)];
  if (seq <= last) return std::nullopt;
  last = seq;
  msg.payload.erase(msg.payload.begin(), msg.payload.begin() + 4);
  return msg;
}

net::WaitOutcome Comm::poll(const net::Mailbox::Matcher* want,
                            std::chrono::milliseconds timeout,
                            net::Message* out) {
  const auto deliver = [&](net::Message&& msg) {
    // Charged on delivery, not on absorption: a frame kept for a later
    // receive merges into the clock when that receive takes it.
    charge_arrival(msg);
    *out = std::move(msg);
    return net::WaitOutcome::kDone;
  };
  if (want != nullptr) {
    const auto it = std::find_if(
        rel_stash_.begin(), rel_stash_.end(),
        [&](const net::Message& m) { return (*want)(m.header); });
    if (it != rel_stash_.end()) {
      net::Message msg = std::move(*it);
      rel_stash_.erase(it);
      return deliver(std::move(msg));
    }
  }
  for (;;) {
    if (want == nullptr && !rel_unacked_) {
      return net::WaitOutcome::kDone;
    }
    auto msg = channel_.inbox().recv_match_for(reliable_frame, timeout);
    if (!msg.has_value()) {
      return channel_.inbox().closed() ? net::WaitOutcome::kClosed
                                       : net::WaitOutcome::kTimedOut;
    }
    auto fresh = rel_absorb(std::move(*msg));
    if (!fresh.has_value()) continue;
    if (want != nullptr && (*want)(fresh->header)) {
      return deliver(std::move(*fresh));
    }
    rel_stash_.push_back(std::move(*fresh));
  }
}

Status Comm::rel_pump(const net::Mailbox::Matcher* want, net::Message* out) {
  const auto resend = [&] {
    if (!rel_unacked_) return;
    metrics_.retries->add();
    (void)channel_.send(rel_unacked_->dst, rel_unacked_->wire_tag,
                        rel_unacked_->payload, rel_unacked_->stamp);
  };
  return retry_.run(
      "mp.partition",
      [&](std::chrono::milliseconds timeout) {
        return poll(want, timeout, out);
      },
      resend);
}

void Comm::quiesce() {
  // A peer stuck in an ack-wait retransmits once per timeout, so "silent for
  // three timeouts" means nobody is currently retrying against us. Bound the
  // total linger by the retry budget so a chattering link cannot pin us.
  int quiet_windows = 0;
  for (int spent = 0; quiet_windows < 3 && spent < retry_.max_attempts;
       ++spent) {
    auto msg =
        channel_.inbox().recv_match_for(reliable_frame, retry_.timeout());
    if (!msg.has_value()) {
      if (channel_.inbox().closed()) return;
      ++quiet_windows;
      continue;
    }
    quiet_windows = 0;
    // Unseen frames are recorded too: the program is over, so the payload is
    // dead — but the ack just sent must stay idempotent if it reappears.
    (void)rel_absorb(std::move(*msg));
  }
}

Status Comm::rel_send(NodeId dst, Tag wire_tag, const void* data,
                      std::size_t bytes) {
  const VirtualUs stamp = vtime::charge_send(model_.send_overhead_us);
  const std::uint32_t seq = ++rel_seq_;
  std::vector<std::uint8_t> payload(bytes + 4);
  write_seq(payload.data(), seq);
  if (bytes > 0) std::memcpy(payload.data() + 4, data, bytes);
  if (Status s = channel_.send(dst, wire_tag, payload, stamp); !s.is_ok()) {
    return s;
  }
  if (dst == rank()) return Status::ok();  // self-sends cannot be lost
  rel_unacked_ = PendingSend{seq, dst, wire_tag, std::move(payload), stamp};
  // The send's own CPU is charged; the wait for its ack, like the ack, is
  // outside the cost model.
  auto* clock = vtime::thread_clock();
  if (clock != nullptr) clock->sync_cpu();
  Status s = rel_pump(nullptr, nullptr);
  if (clock != nullptr) clock->discard_cpu();
  rel_unacked_.reset();  // acked, or abandoned with the spent budget
  return s;
}

Status Comm::rel_recv(const net::Mailbox::Matcher& want, net::Message* out) {
  obs::ScopedTimer wait(metrics_.recv_wait);
  return rel_pump(&want, out);
}

// ---------------------------------------------------------------------------
// Point-to-point

Status Comm::send(NodeId dst, Tag tag, const void* data, std::size_t bytes) {
  PARADE_CHECK_MSG(tag >= 0 && tag < net::kCollTagBase - net::kMpTagBase,
                   "user tag out of range");
  metrics_.p2p_sends->add();
  metrics_.p2p_send_bytes->add(static_cast<std::int64_t>(bytes));
  return rel_send(dst, net::kMpTagBase + tag, data, bytes);
}

Status Comm::recv(NodeId src, Tag tag, void* buffer, std::size_t capacity,
                  RecvStatus* status) {
  net::Message m;
  if (Status s = rel_recv(user_match(src, tag), &m); !s.is_ok()) return s;
  if (m.payload.size() > capacity) {
    return make_error(ErrorCode::kOutOfRange, "recv buffer too small");
  }
  if (!m.payload.empty()) {
    std::memcpy(buffer, m.payload.data(), m.payload.size());
  }
  fill_status(m, status);
  return Status::ok();
}

std::optional<std::vector<std::uint8_t>> Comm::try_recv_bytes(
    NodeId src, Tag tag, RecvStatus* status) {
  const net::Mailbox::Matcher want = user_match(src, tag);
  net::Message m;
  if (poll(&want, std::chrono::milliseconds(0), &m) !=
      net::WaitOutcome::kDone) {
    return std::nullopt;
  }
  fill_status(m, status);
  return std::move(m.payload);
}

// ---------------------------------------------------------------------------
// Collectives

Status Comm::barrier() {
  count_collective(metrics_.barriers, 0);
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  const int n = size();
  if (n == 1) return Status::ok();
  const Tag tag = next_collective_tag();
  // Dissemination barrier: within one barrier every round talks to a distinct
  // partner, so one tag suffices; the round is identified by the source rank.
  for (int dist = 1; dist < n; dist <<= 1) {
    const NodeId to = (rank() + dist) % n;
    const NodeId from = (rank() - dist % n + n) % n;
    if (Status s = rel_send(to, tag, nullptr, 0); !s.is_ok()) return s;
    net::Message m;
    if (Status s = rel_recv(coll_match(from, tag), &m); !s.is_ok()) return s;
  }
  return Status::ok();
}

Status Comm::bcast(void* data, std::size_t bytes, NodeId root) {
  count_collective(metrics_.bcasts, bytes);
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  const int n = size();
  if (n == 1) return Status::ok();
  const Tag tag = next_collective_tag();
  const int relative = (rank() - root + n) % n;

  int mask = 1;
  while (mask < n) {
    if ((relative & mask) != 0) {
      const NodeId src = (rank() - mask + n) % n;
      net::Message m;
      if (Status s = rel_recv(coll_match(src, tag), &m); !s.is_ok()) return s;
      if (m.payload.size() != bytes) {
        return make_error(ErrorCode::kInternal, "bcast size mismatch");
      }
      if (bytes > 0) std::memcpy(data, m.payload.data(), bytes);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < n) {
      const NodeId dst = (rank() + mask) % n;
      if (Status s = rel_send(dst, tag, data, bytes); !s.is_ok()) return s;
    }
    mask >>= 1;
  }
  return Status::ok();
}

Status Comm::reduce_with(
    void* buffer, std::size_t bytes, NodeId root, Tag tag,
    const std::function<void(void*, const void*)>& combine) {
  const int n = size();
  const int relative = (rank() - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if ((relative & mask) == 0) {
      const int source_rel = relative | mask;
      if (source_rel < n) {
        const NodeId source = (source_rel + root) % n;
        net::Message m;
        if (Status s = rel_recv(coll_match(source, tag), &m); !s.is_ok()) {
          return s;
        }
        if (m.payload.size() != bytes) {
          return make_error(ErrorCode::kInternal, "reduce size mismatch");
        }
        combine(buffer, m.payload.data());
      }
    } else {
      const NodeId dst = ((relative & ~mask) + root) % n;
      return rel_send(dst, tag, buffer, bytes);
    }
    mask <<= 1;
  }
  return Status::ok();
}

Status Comm::reduce(void* buffer, std::size_t count, DType dtype, Op op,
                    NodeId root) {
  count_collective(metrics_.reduces, count * dtype_size(dtype));
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  if (size() == 1) return Status::ok();
  const Tag tag = next_collective_tag();
  const std::size_t bytes = count * dtype_size(dtype);
  return reduce_with(buffer, bytes, root, tag,
                     [&](void* inout, const void* in) {
                       reduce_inplace(dtype, op, inout, in, count);
                     });
}

Status Comm::allreduce(void* buffer, std::size_t count, DType dtype, Op op) {
  count_collective(metrics_.allreduces, count * dtype_size(dtype));
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  if (Status s = reduce(buffer, count, dtype, op, /*root=*/0); !s.is_ok()) {
    return s;
  }
  return bcast(buffer, count * dtype_size(dtype), /*root=*/0);
}

Status Comm::allreduce_user(void* buffer, std::size_t bytes,
                            const UserReduceFn& fn) {
  if (size() > 1) {
    const Tag tag = next_collective_tag();
    if (Status s = reduce_with(
            buffer, bytes, /*root=*/0, tag,
            [&](void* inout, const void* in) { fn(inout, in, bytes); });
        !s.is_ok()) {
      return s;
    }
  }
  return bcast(buffer, bytes, /*root=*/0);
}

Status Comm::gather(const void* contribution, std::size_t bytes, void* out,
                    NodeId root) {
  count_collective(metrics_.gathers, bytes);
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  const Tag tag = next_collective_tag();
  if (rank() != root) return rel_send(root, tag, contribution, bytes);
  PARADE_CHECK_MSG(out != nullptr, "gather root needs an output buffer");
  auto* base = static_cast<std::uint8_t*>(out);
  std::memcpy(base + static_cast<std::size_t>(rank()) * bytes, contribution,
              bytes);
  for (int peer = 0; peer < size(); ++peer) {
    if (peer == root) continue;
    net::Message m;
    if (Status s = rel_recv(coll_match(peer, tag), &m); !s.is_ok()) return s;
    if (m.payload.size() != bytes) {
      return make_error(ErrorCode::kInternal, "gather size mismatch");
    }
    std::memcpy(base + static_cast<std::size_t>(peer) * bytes,
                m.payload.data(), bytes);
  }
  return Status::ok();
}

Status Comm::allgather(const void* contribution, std::size_t bytes,
                       void* out) {
  count_collective(metrics_.allgathers, bytes);
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  if (Status s = gather(contribution, bytes, out, /*root=*/0); !s.is_ok()) {
    return s;
  }
  return bcast(out, bytes * static_cast<std::size_t>(size()), /*root=*/0);
}

}  // namespace parade::mp
