#include "net/socket.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/log.hpp"
#include "common/timing.hpp"

namespace parade::net {
namespace {

// On-wire frame header (packed copy of MessageHeader fields).
struct WireHeader {
  std::int32_t src;
  std::int32_t dst;
  std::int32_t tag;
  std::uint32_t payload_size;
  double vtime;
};

// Every frame is [kWireMagicV2][WireHeader][WireTraceExt][payload]; the
// trace ids are 0 when the sender is untraced. Both ends of a connection
// are built from this tree, so there is no other layout: a stream whose
// frame does not open with the magic is corrupt and the peer is dropped.
inline constexpr std::uint32_t kWireMagicV2 = 0x32444150;  // "PAD2", LE

struct WireTraceExt {
  std::uint64_t trace_id;
  std::uint64_t span_id;
};

static_assert(sizeof(WireHeader) == 24, "frame header layout is wire ABI");
static_assert(sizeof(WireTraceExt) == 16, "trace ext layout is wire ABI");

/// Bytes before the payload: magic, header, trace extension.
inline constexpr std::size_t kFramePrefixBytes =
    sizeof(kWireMagicV2) + sizeof(WireHeader) + sizeof(WireTraceExt);

std::string socket_path(const std::string& dir, NodeId rank) {
  return dir + "/node-" + std::to_string(rank) + ".sock";
}

bool write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

SocketFabric::SocketFabric(NodeId rank, int size) : Channel(rank, size) {
  peers_.resize(static_cast<std::size_t>(size));
  for (auto& peer : peers_) peer = std::make_unique<Peer>();
}

Result<std::unique_ptr<SocketFabric>> SocketFabric::create(
    NodeId rank, int size, const std::string& dir, int timeout_ms) {
  auto fabric = std::unique_ptr<SocketFabric>(new SocketFabric(rank, size));
  if (Status status = fabric->establish(dir, timeout_ms); !status) {
    return status;
  }
  return fabric;
}

Status SocketFabric::establish(const std::string& dir, int timeout_ms) {
  const std::string my_path = socket_path(dir, rank_);
  ::unlink(my_path.c_str());

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return make_error(ErrorCode::kIoError, "socket() failed");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (my_path.size() >= sizeof(addr.sun_path)) {
    return make_error(ErrorCode::kInvalidArgument, "socket path too long");
  }
  std::strncpy(addr.sun_path, my_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return make_error(ErrorCode::kIoError, "bind(" + my_path + ") failed");
  }
  if (::listen(listen_fd_, size_) != 0) {
    return make_error(ErrorCode::kIoError, "listen() failed");
  }

  const std::int64_t deadline = wall_ns() + std::int64_t(timeout_ms) * 1'000'000;

  // Dial every lower rank, retrying while it may still be starting up.
  for (NodeId peer = 0; peer < rank_; ++peer) {
    const std::string peer_path = socket_path(dir, peer);
    int fd = -1;
    for (;;) {
      fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) return make_error(ErrorCode::kIoError, "socket() failed");
      sockaddr_un peer_addr{};
      peer_addr.sun_family = AF_UNIX;
      std::strncpy(peer_addr.sun_path, peer_path.c_str(),
                   sizeof(peer_addr.sun_path) - 1);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&peer_addr),
                    sizeof(peer_addr)) == 0) {
        break;
      }
      ::close(fd);
      if (wall_ns() > deadline) {
        return make_error(ErrorCode::kTimeout,
                          "timed out connecting to " + peer_path);
      }
      ::usleep(2000);
    }
    const std::int32_t my_rank = rank_;
    if (!write_all(fd, &my_rank, sizeof(my_rank))) {
      ::close(fd);
      return make_error(ErrorCode::kIoError, "handshake write failed");
    }
    peers_[static_cast<std::size_t>(peer)]->fd = fd;
  }

  // Accept every higher rank.
  for (NodeId pending = rank_ + 1; pending < size_; ++pending) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return make_error(ErrorCode::kIoError, "accept() failed");
    std::int32_t peer_rank = -1;
    if (!read_all(fd, &peer_rank, sizeof(peer_rank)) || peer_rank <= rank_ ||
        peer_rank >= size_) {
      ::close(fd);
      return make_error(ErrorCode::kIoError, "bad handshake");
    }
    peers_[static_cast<std::size_t>(peer_rank)]->fd = fd;
  }

  for (NodeId peer = 0; peer < size_; ++peer) {
    if (peer == rank_) continue;
    readers_.emplace_back([this, peer] { reader_loop(peer); });
  }
  return Status::ok();
}

void SocketFabric::reader_loop(NodeId peer) {
  const int fd = peers_[static_cast<std::size_t>(peer)]->fd;
  for (;;) {
    std::uint32_t magic = 0;
    if (!read_all(fd, &magic, sizeof(magic))) break;
    if (magic != kWireMagicV2) {
      // Never reinterpret the bytes as a header: the stream is out of sync
      // (or not ours), so nothing after this point can be framed safely.
      PLOG_ERROR("frame from node " << peer << " lacks the wire magic (got 0x"
                                    << std::hex << magic << std::dec
                                    << "); marking the peer down");
      break;
    }
    WireHeader wire{};
    WireTraceExt ext{};
    if (!read_all(fd, &wire, sizeof(wire))) break;
    if (!read_all(fd, &ext, sizeof(ext))) break;
    std::vector<std::uint8_t> payload(wire.payload_size);
    if (wire.payload_size > 0 &&
        !read_all(fd, payload.data(), payload.size())) {
      break;
    }
    MessageHeader header;
    header.src = wire.src;
    header.dst = wire.dst;
    header.tag = wire.tag;
    header.vtime = wire.vtime;
    header.trace_id = ext.trace_id;
    header.span_id = ext.span_id;
    if (!deliver_local(Message(header, std::move(payload)))) break;
  }
  // The stream is gone: receivers blocked waiting on this peer must observe
  // kUnavailable instead of hanging forever.
  inbox_.mark_peer_down(peer);
}

Status SocketFabric::send(NodeId dst, Tag tag,
                          std::vector<std::uint8_t> payload, VirtualUs vtime) {
  PARADE_CHECK_MSG(dst >= 0 && dst < size_, "send to invalid rank");
  const bool traced = obs::Registry::instance().trace_enabled();
  const obs::SpanContext ctx =
      traced ? obs::current_span_context() : obs::SpanContext{};
  if (dst == rank_) {
    MessageHeader header;
    header.src = rank_;
    header.dst = dst;
    header.tag = tag;
    header.vtime = vtime;
    header.trace_id = ctx.trace_id;
    header.span_id = ctx.span_id;
    record_send(dst, tag, payload.size(), vtime);
    return deliver_local(Message(header, std::move(payload)));
  }
  WireHeader wire{};
  wire.src = rank_;
  wire.dst = dst;
  wire.tag = tag;
  wire.payload_size = static_cast<std::uint32_t>(payload.size());
  wire.vtime = vtime;
  WireTraceExt ext{};
  ext.trace_id = ctx.trace_id;
  ext.span_id = ctx.span_id;

  Peer& peer = *peers_[static_cast<std::size_t>(dst)];
  std::lock_guard lock(peer.send_mutex);
  if (peer.fd < 0) {
    return make_error(ErrorCode::kUnavailable,
                      "peer " + std::to_string(dst) + " is down");
  }
  std::uint8_t prefix[kFramePrefixBytes];
  std::memcpy(prefix, &kWireMagicV2, sizeof(kWireMagicV2));
  std::memcpy(prefix + sizeof(kWireMagicV2), &wire, sizeof(wire));
  std::memcpy(prefix + sizeof(kWireMagicV2) + sizeof(wire), &ext, sizeof(ext));
  if (!write_all(peer.fd, prefix, sizeof(prefix)) ||
      (!payload.empty() && !write_all(peer.fd, payload.data(), payload.size()))) {
    return make_error(ErrorCode::kIoError,
                      "socket send to node " + std::to_string(dst) +
                          " failed: " + std::strerror(errno));
  }
  record_send(dst, tag, payload.size(), vtime);
  return Status::ok();
}

void SocketFabric::shutdown() {
  {
    std::lock_guard lock(state_mutex_);
    if (down_) return;
    down_ = true;
  }
  for (auto& peer : peers_) {
    std::lock_guard lock(peer->send_mutex);
    if (peer->fd >= 0) {
      ::shutdown(peer->fd, SHUT_RDWR);
    }
  }
  for (auto& reader : readers_) reader.join();
  for (auto& peer : peers_) {
    if (peer->fd >= 0) {
      ::close(peer->fd);
      peer->fd = -1;
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  Channel::shutdown();
}

SocketFabric::~SocketFabric() { shutdown(); }

}  // namespace parade::net
