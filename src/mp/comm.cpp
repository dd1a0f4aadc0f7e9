#include "mp/comm.hpp"

#include <algorithm>
#include <cstring>

#include "common/log.hpp"
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

void fill_status(const net::Message& m, RecvStatus* status) {
  if (status == nullptr) return;
  *status = {m.header.src, m.header.tag - net::kMpTagBase, m.payload.size()};
}

}  // namespace

Comm::Comm(const Topology& topology, net::Channel& channel,
           vtime::NetworkModel model, net::RetryPolicy retry)
    : channel_(channel), topo_(topology), model_(model), retry_(retry) {
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
  const std::uint32_t seq =
      collective_seq_.fetch_add(1, std::memory_order_relaxed);
  return net::kCollTagBase + static_cast<Tag>(seq & 0x0FFFFFFF);
}

void Comm::send_wire(NodeId dst, Tag wire_tag, const void* data,
                     std::size_t bytes) {
  const VirtualUs stamp = vtime::charge_send(model_.send_overhead_us);
  std::vector<std::uint8_t> payload(bytes);
  if (bytes > 0) std::memcpy(payload.data(), data, bytes);
  if (wire_tag < net::kCollTagBase) {
    metrics_.p2p_sends->add();
    metrics_.p2p_send_bytes->add(static_cast<std::int64_t>(bytes));
  }
  Status s = channel_.send(dst, wire_tag, std::move(payload), stamp);
  if (!s.is_ok()) {
    PLOG_WARN("mp send tag " << wire_tag << " to node " << dst
                             << " dropped: " << s.to_string());
  }
}

void Comm::charge_arrival(const net::Message& message) {
  if (auto* clock = vtime::thread_clock()) {
    clock->sync_cpu();
    clock->merge(message.header.vtime +
                 model_.transfer_us(message.payload.size()));
    clock->add(model_.recv_overhead_us);
  }
}

net::Message Comm::recv_wire(NodeId src, Tag wire_tag) {
  obs::ScopedTimer wait(metrics_.recv_wait);
  auto matched = channel_.inbox().recv_match([&](const net::MessageHeader& h) {
    return h.tag == wire_tag && (src == kAnyNode || h.src == src);
  });
  PARADE_CHECK_MSG(matched.has_value(), "channel closed during recv");
  charge_arrival(*matched);
  return std::move(*matched);
}

void Comm::send(NodeId dst, Tag tag, const void* data, std::size_t bytes) {
  PARADE_CHECK_MSG(tag >= 0 && tag < net::kCollTagBase - net::kMpTagBase,
                   "user tag out of range");
  send_wire(dst, net::kMpTagBase + tag, data, bytes);
}

RecvStatus Comm::recv(NodeId src, Tag tag, void* buffer, std::size_t bytes) {
  RecvStatus status;
  auto payload = recv_bytes(src, tag, &status);
  PARADE_CHECK_MSG(payload.size() <= bytes, "recv buffer too small");
  if (!payload.empty()) std::memcpy(buffer, payload.data(), payload.size());
  return status;
}

std::vector<std::uint8_t> Comm::recv_bytes(NodeId src, Tag tag,
                                           RecvStatus* status) {
  obs::ScopedTimer wait(metrics_.recv_wait);
  auto matched = channel_.inbox().recv_match(user_match(src, tag));
  PARADE_CHECK_MSG(matched.has_value(), "channel closed during recv");
  charge_arrival(*matched);
  fill_status(*matched, status);
  return std::move(matched->payload);
}

std::optional<std::vector<std::uint8_t>> Comm::try_recv_bytes(
    NodeId src, Tag tag, RecvStatus* status) {
  auto matched = channel_.inbox().try_recv_match(user_match(src, tag));
  if (!matched) return std::nullopt;
  charge_arrival(*matched);
  fill_status(*matched, status);
  return std::move(matched->payload);
}

void Comm::barrier() {
  count_collective(metrics_.barriers, 0);
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  const int n = size();
  if (n == 1) return;
  const Tag tag = next_collective_tag();
  // Dissemination barrier: within one barrier every round talks to a distinct
  // partner, so one tag suffices; the round is identified by the source rank.
  for (int dist = 1; dist < n; dist <<= 1) {
    const NodeId to = (rank() + dist) % n;
    const NodeId from = (rank() - dist % n + n) % n;
    send_wire(to, tag, nullptr, 0);
    (void)recv_wire(from, tag);
  }
}

void Comm::bcast(void* data, std::size_t bytes, NodeId root) {
  count_collective(metrics_.bcasts, bytes);
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  const int n = size();
  if (n == 1) return;
  const Tag tag = next_collective_tag();
  const int relative = (rank() - root + n) % n;

  int mask = 1;
  while (mask < n) {
    if ((relative & mask) != 0) {
      const NodeId src = (rank() - mask + n) % n;
      net::Message m = recv_wire(src, tag);
      PARADE_CHECK_MSG(m.payload.size() == bytes, "bcast size mismatch");
      if (bytes > 0) std::memcpy(data, m.payload.data(), bytes);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < n) {
      const NodeId dst = (rank() + mask) % n;
      send_wire(dst, tag, data, bytes);
    }
    mask >>= 1;
  }
}

void Comm::reduce_with(void* buffer, std::size_t bytes, NodeId root, Tag tag,
                       const std::function<void(void*, const void*)>& combine) {
  const int n = size();
  const int relative = (rank() - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if ((relative & mask) == 0) {
      const int source_rel = relative | mask;
      if (source_rel < n) {
        const NodeId source = (source_rel + root) % n;
        net::Message m = recv_wire(source, tag);
        PARADE_CHECK_MSG(m.payload.size() == bytes, "reduce size mismatch");
        combine(buffer, m.payload.data());
      }
    } else {
      const NodeId dst = ((relative & ~mask) + root) % n;
      send_wire(dst, tag, buffer, bytes);
      break;
    }
    mask <<= 1;
  }
}

void Comm::reduce(void* buffer, std::size_t count, DType dtype, Op op,
                  NodeId root) {
  count_collective(metrics_.reduces, count * dtype_size(dtype));
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  if (size() == 1) return;
  const Tag tag = next_collective_tag();
  const std::size_t bytes = count * dtype_size(dtype);
  reduce_with(buffer, bytes, root, tag, [&](void* inout, const void* in) {
    reduce_inplace(dtype, op, inout, in, count);
  });
}

void Comm::allreduce(void* buffer, std::size_t count, DType dtype, Op op) {
  count_collective(metrics_.allreduces, count * dtype_size(dtype));
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  reduce(buffer, count, dtype, op, /*root=*/0);
  bcast(buffer, count * dtype_size(dtype), /*root=*/0);
}

void Comm::allreduce_user(void* buffer, std::size_t bytes,
                          const UserReduceFn& fn) {
  if (size() > 1) {
    const Tag tag = next_collective_tag();
    reduce_with(buffer, bytes, /*root=*/0, tag,
                [&](void* inout, const void* in) { fn(inout, in, bytes); });
  }
  bcast(buffer, bytes, /*root=*/0);
}

void Comm::gather(const void* contribution, std::size_t bytes, void* out,
                  NodeId root) {
  count_collective(metrics_.gathers, bytes);
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  const Tag tag = next_collective_tag();
  if (rank() == root) {
    PARADE_CHECK_MSG(out != nullptr, "gather root needs an output buffer");
    auto* base = static_cast<std::uint8_t*>(out);
    std::memcpy(base + static_cast<std::size_t>(rank()) * bytes, contribution,
                bytes);
    for (int peer = 0; peer < size(); ++peer) {
      if (peer == root) continue;
      net::Message m = recv_wire(peer, tag);
      PARADE_CHECK_MSG(m.payload.size() == bytes, "gather size mismatch");
      std::memcpy(base + static_cast<std::size_t>(peer) * bytes,
                  m.payload.data(), bytes);
    }
  } else {
    send_wire(root, tag, contribution, bytes);
  }
}

void Comm::allgather(const void* contribution, std::size_t bytes, void* out) {
  count_collective(metrics_.allgathers, bytes);
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  gather(contribution, bytes, out, /*root=*/0);
  bcast(out, bytes * static_cast<std::size_t>(size()), /*root=*/0);
}

// ---------------------------------------------------------------------------
// Reliable wire engine (see the try_* family in comm.hpp)

namespace {

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

/// Acks and reliable data frames: everything the reliable engine consumes.
bool reliable_frame(const net::MessageHeader& h) {
  return h.tag == net::kAckTagBase || h.tag >= net::kMpTagBase;
}

}  // namespace

void Comm::post_ack(NodeId dst, std::uint32_t seq) {
  // Acks are reliability artifacts outside the LogGP cost model: they carry
  // the current clock (for monotonicity) but charge no overheads, so a
  // fault-free reliable run keeps the exact timing of the unreliable path.
  std::vector<std::uint8_t> payload(4);
  write_seq(payload.data(), seq);
  const auto* clock = vtime::thread_clock();
  const VirtualUs stamp = clock != nullptr ? clock->now() : 0.0;
  (void)channel_.send(dst, net::kAckTagBase, std::move(payload), stamp);
}

std::optional<net::Message> Comm::rel_absorb(net::Message msg) {
  if (msg.header.tag == net::kAckTagBase) {
    if (msg.payload.size() == 4) rel_unacked_.erase(read_seq(msg.payload));
    return std::nullopt;
  }
  // Reliable data frame: [seq:4][app payload].
  if (msg.payload.size() < 4) return std::nullopt;  // malformed; drop
  const std::uint32_t seq = read_seq(msg.payload);
  post_ack(msg.header.src, seq);  // always re-ack, even duplicates
  if (rel_seen_.seen_or_insert(net::seq_key(msg.header.src, seq))) {
    return std::nullopt;
  }
  return msg;
}

Status Comm::rel_pump(bool want_data, NodeId want_src, Tag want_tag,
                      std::uint32_t want_ack_seq, net::Message* out) {
  const auto wanted = [&](const net::Message& m) {
    return m.header.tag == want_tag &&
           (want_src == kAnyNode || m.header.src == want_src);
  };
  const auto wait_once = [&](std::chrono::milliseconds timeout) {
    for (;;) {
      if (!want_data && rel_unacked_.count(want_ack_seq) == 0) {
        return net::WaitOutcome::kDone;
      }
      if (want_data) {
        const auto it =
            std::find_if(rel_stash_.begin(), rel_stash_.end(), wanted);
        if (it != rel_stash_.end()) {
          *out = std::move(*it);
          rel_stash_.erase(it);
          return net::WaitOutcome::kDone;
        }
      }
      auto msg = channel_.inbox().recv_match_for(reliable_frame, timeout);
      if (!msg.has_value()) {
        return channel_.inbox().closed() ? net::WaitOutcome::kClosed
                                         : net::WaitOutcome::kTimedOut;
      }
      auto fresh = rel_absorb(std::move(*msg));
      if (!fresh.has_value()) continue;
      charge_arrival(*fresh);
      fresh->payload.erase(fresh->payload.begin(), fresh->payload.begin() + 4);
      if (want_data && wanted(*fresh)) {
        *out = std::move(*fresh);
        return net::WaitOutcome::kDone;
      }
      rel_stash_.push_back(std::move(*fresh));
    }
  };
  const auto resend = [&] {
    for (const auto& entry : rel_unacked_) {
      const PendingSend& pending = entry.second;
      metrics_.retries->add();
      (void)channel_.send(pending.dst, pending.wire_tag, pending.payload,
                          pending.stamp);
    }
  };
  return retry_.run("mp.partition", wait_once, resend);
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
  rel_unacked_.emplace(seq, PendingSend{dst, wire_tag, std::move(payload),
                                        stamp});
  return rel_pump(/*want_data=*/false, kAnyNode, 0, seq, nullptr);
}

Status Comm::rel_recv(NodeId src, Tag wire_tag, net::Message* out) {
  return rel_pump(/*want_data=*/true, src, wire_tag, 0, out);
}

Status Comm::try_send(NodeId dst, Tag tag, const void* data,
                      std::size_t bytes) {
  PARADE_CHECK_MSG(tag >= 0 && tag < net::kCollTagBase - net::kMpTagBase,
                   "user tag out of range");
  metrics_.p2p_sends->add();
  metrics_.p2p_send_bytes->add(static_cast<std::int64_t>(bytes));
  return rel_send(dst, net::kMpTagBase + tag, data, bytes);
}

Status Comm::try_recv(NodeId src, Tag tag, void* buffer, std::size_t capacity,
                      RecvStatus* status) {
  PARADE_CHECK_MSG(tag >= 0 && tag < net::kCollTagBase - net::kMpTagBase,
                   "user tag out of range");
  net::Message m;
  if (Status s = rel_recv(src, net::kMpTagBase + tag, &m); !s.is_ok()) {
    return s;
  }
  if (m.payload.size() > capacity) {
    return make_error(ErrorCode::kOutOfRange, "recv buffer too small");
  }
  if (!m.payload.empty()) std::memcpy(buffer, m.payload.data(),
                                      m.payload.size());
  fill_status(m, status);
  return Status::ok();
}

Status Comm::try_barrier() {
  count_collective(metrics_.barriers, 0);
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  const int n = size();
  if (n == 1) return Status::ok();
  const Tag tag = next_collective_tag();
  for (int dist = 1; dist < n; dist <<= 1) {
    const NodeId to = (rank() + dist) % n;
    const NodeId from = (rank() - dist % n + n) % n;
    if (Status s = rel_send(to, tag, nullptr, 0); !s.is_ok()) return s;
    net::Message m;
    if (Status s = rel_recv(from, tag, &m); !s.is_ok()) return s;
  }
  return Status::ok();
}

Status Comm::try_bcast(void* data, std::size_t bytes, NodeId root) {
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
      if (Status s = rel_recv(src, tag, &m); !s.is_ok()) return s;
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

Status Comm::try_reduce_with(
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
        if (Status s = rel_recv(source, tag, &m); !s.is_ok()) return s;
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

Status Comm::try_allreduce(void* buffer, std::size_t count, DType dtype,
                           Op op) {
  count_collective(metrics_.allreduces, count * dtype_size(dtype));
  obs::ScopedSpan span(obs::TraceKind::kCollective, rank(), 0);
  obs::ScopedHistTimer coll_scope(metrics_.collective_ns);
  const std::size_t bytes = count * dtype_size(dtype);
  if (size() > 1) {
    const Tag tag = next_collective_tag();
    if (Status s = try_reduce_with(
            buffer, bytes, /*root=*/0, tag,
            [&](void* inout, const void* in) {
              reduce_inplace(dtype, op, inout, in, count);
            });
        !s.is_ok()) {
      return s;
    }
  }
  return try_bcast(buffer, bytes, /*root=*/0);
}

}  // namespace parade::mp
