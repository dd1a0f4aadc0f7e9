// DSM protocol message kinds and wire encodings. All protocol traffic uses
// tags in the DSM tag class [0, 1000); see net/message.hpp.
//
// Ownership of each tag (who consumes it):
//   communication thread: PageRequest, Diff, LockAcquire, LockRelease,
//                         PageReply (it installs pages and wakes waiters),
//                         BarrierArrive (master gathers on the comm thread so
//                         retransmitted arrivals are absorbed even while the
//                         barrier caller is blocked), Shutdown
//   barrier caller:       BarrierDepart
//   diff flusher:         DiffAck
//   lock acquirer:        LockGrant (tag is lock-indexed so concurrent
//                         acquirers on one node never steal each other's
//                         grants)
//   lock releaser:        LockReleaseAck (lock-indexed like grants)
//
// Retransmission: request/response messages carry a sender-chosen sequence
// number so the protocol survives a lossy fabric (net/faulty.hpp). Senders
// retransmit on timeout; receivers treat duplicates as re-requests (serve
// again or re-ack — every handler is idempotent) and responders echo the
// sequence number so stale responses are discarded. Barrier messages need no
// extra field: the epoch already is the sequence number.
//
// Serialization is the generic codec<T> at the bottom of this file: each
// message declares its wire layout with a single wire_fields() one-liner and
// gets encode/decode for free. Adding a message kind = struct + wire_fields.
#pragma once

#include <cstdint>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/serialize.hpp"
#include "common/types.hpp"
#include "net/fault.hpp"
#include "net/message.hpp"

namespace parade::dsm {

inline constexpr Tag kTagPageRequest = 1;
inline constexpr Tag kTagPageReply = 2;
inline constexpr Tag kTagDiff = 3;
inline constexpr Tag kTagDiffAck = 4;
inline constexpr Tag kTagBarrierArrive = 5;
inline constexpr Tag kTagBarrierDepart = 6;
inline constexpr Tag kTagLockAcquire = 7;
inline constexpr Tag kTagLockRelease = 8;
inline constexpr Tag kTagShutdown = 9;
/// Grant for lock L arrives with tag kTagLockGrantBase + L.
inline constexpr Tag kTagLockGrantBase = 100;
/// Release ack for lock L arrives with tag kTagLockReleaseAckBase + L.
inline constexpr Tag kTagLockReleaseAckBase = 400;

/// True for tags the communication thread services.
inline bool comm_thread_tag(Tag tag) {
  return tag == kTagPageRequest || tag == kTagPageReply || tag == kTagDiff ||
         tag == kTagBarrierArrive || tag == kTagLockAcquire ||
         tag == kTagLockRelease || tag == kTagShutdown;
}

// ---- payload structures ----

// `seq` fields sit last in each struct so existing aggregate initializers
// (`{page}`, `{page, data}`) keep working and default the sequence to zero;
// the wire layout below places them right after the leading id.

struct PageRequestMsg {
  PageId page = 0;
  std::uint32_t seq = 0;  ///< per-page fetch attempt id; echoed by the reply
};

struct PageReplyMsg {
  PageId page = 0;
  std::vector<std::uint8_t> data;
  std::uint32_t seq = 0;  ///< copied from the request; stale replies dropped
  /// Home frame version at serve time (TwinRegistry). The installer records
  /// it so a later write fault can decide whether the home's frame still
  /// matches this copy and may be aliased as the twin (CoW).
  std::uint32_t version = 0;
};

struct DiffMsg {
  PageId page = 0;
  std::vector<std::uint8_t> diff;
  std::uint32_t seq = 0;  ///< node-wide diff id; homes dedupe on (src, seq)
};

struct DiffAckMsg {
  PageId page = 0;
  std::uint32_t seq = 0;  ///< copied from the diff
};

/// Write notice: "node `modifier` changed `page` during the closing interval".
struct WriteNotice {
  PageId page = 0;
  NodeId modifier = 0;
};

struct BarrierArriveMsg {
  Epoch epoch = 0;
  /// Coalesced write notices for the sender's whole barrier subtree in the
  /// delta/run-length form of dsm/notice.hpp: one block per modifier, each
  /// block a run-length-encoded sorted page-interval vector. Replaces the
  /// flat per-page PageId list — a node's dense dirty range now costs two
  /// words instead of one word per page, and interior tree nodes forward one
  /// merged stream instead of every descendant's list.
  std::vector<std::uint32_t> notice_stream;
};

/// Departure entry for one write-noticed page: everyone updates the home and
/// invalidates stale copies.
struct DepartEntry {
  PageId page = 0;
  NodeId new_home = 0;
  /// The single modifier this interval, or kAnyNode when several nodes wrote.
  NodeId sole_modifier = kAnyNode;
};

struct BarrierDepartMsg {
  Epoch epoch = 0;
  VirtualUs departure_vtime = 0.0;
  std::vector<DepartEntry> entries;
};

struct LockAcquireMsg {
  std::int32_t lock_id = 0;
  std::uint32_t seq = 0;  ///< node-wide request id; echoed by the grant
};

struct LockGrantMsg {
  std::int32_t lock_id = 0;
  /// Pages modified under this lock with their most recent modifier; the
  /// acquirer invalidates stale local copies (lazy-release consistency,
  /// conservatively approximated — see DESIGN.md).
  std::vector<WriteNotice> notices;
  std::uint32_t seq = 0;  ///< copied from the acquire; stale grants dropped
};

struct LockReleaseMsg {
  std::int32_t lock_id = 0;
  std::vector<PageId> dirtied_pages;
  std::uint32_t seq = 0;  ///< node-wide request id; echoed by the ack
};

struct LockReleaseAckMsg {
  std::int32_t lock_id = 0;
  std::uint32_t seq = 0;  ///< copied from the release
};

// ---- wire layout declarations (one per message kind) ----
//
// Field order here IS the wire format. Vector fields are length-prefixed
// (uint32 count) and element structs are memcpy'd, so they must be packed;
// the static_asserts below pin the on-wire element sizes.

inline auto wire_fields(PageRequestMsg& m) { return std::tie(m.page, m.seq); }
inline auto wire_fields(PageReplyMsg& m) {
  return std::tie(m.page, m.seq, m.version, m.data);
}
inline auto wire_fields(DiffMsg& m) { return std::tie(m.page, m.seq, m.diff); }
inline auto wire_fields(DiffAckMsg& m) { return std::tie(m.page, m.seq); }
inline auto wire_fields(BarrierArriveMsg& m) {
  return std::tie(m.epoch, m.notice_stream);
}
inline auto wire_fields(BarrierDepartMsg& m) {
  return std::tie(m.epoch, m.departure_vtime, m.entries);
}
inline auto wire_fields(LockAcquireMsg& m) {
  return std::tie(m.lock_id, m.seq);
}
inline auto wire_fields(LockGrantMsg& m) {
  return std::tie(m.lock_id, m.seq, m.notices);
}
inline auto wire_fields(LockReleaseMsg& m) {
  return std::tie(m.lock_id, m.seq, m.dirtied_pages);
}
inline auto wire_fields(LockReleaseAckMsg& m) {
  return std::tie(m.lock_id, m.seq);
}

static_assert(sizeof(WriteNotice) == 8, "WriteNotice wire size changed");
static_assert(sizeof(DepartEntry) == 12, "DepartEntry wire size changed");

// The fault fabric estimates barrier epochs by watching departure traffic;
// keep its probe tag in lockstep with the protocol.
static_assert(net::kFaultEpochProbeTag == kTagBarrierDepart,
              "fault-fabric epoch probe out of sync with BarrierDepart");
// Lock-indexed tag ranges must stay inside the DSM tag class and not collide.
static_assert(kTagLockGrantBase + 256 <= kTagLockReleaseAckBase,
              "grant tags overlap release-ack tags");
static_assert(kTagLockReleaseAckBase + 256 <= net::kDsmTagLimit,
              "release-ack tags escape the DSM tag class");

// ---- zero-copy payload views ----
//
// Borrowed decodes for the two bulk-payload messages on the fetch/flush hot
// path. codec<T>::try_decode copies the payload into owned vectors; a view
// instead validates the frame and returns spans pointing into the original
// payload, so page installs and diff application read straight from the
// fabric's buffer into the sys view. Views share the exact wire layout with
// the codec (the equivalence test pins this): a frame encoded by either side
// decodes identically through both.

namespace view_detail {

template <TriviallyWirable F>
bool read_field(std::span<const std::uint8_t> payload, std::size_t& pos,
                F& field) {
  if (sizeof(F) > payload.size() - pos) return false;
  std::memcpy(&field, payload.data() + pos, sizeof(F));
  pos += sizeof(F);
  return true;
}

inline bool read_span(std::span<const std::uint8_t> payload, std::size_t& pos,
                      std::span<const std::uint8_t>& out) {
  std::uint32_t count = 0;
  if (!read_field(payload, pos, count)) return false;
  if (count > payload.size() - pos) return false;
  out = payload.subspan(pos, count);
  pos += count;
  return true;
}

}  // namespace view_detail

/// PageReplyMsg decoded by reference: `data` borrows `payload`.
struct PageReplyView {
  PageId page = 0;
  std::uint32_t seq = 0;
  std::uint32_t version = 0;
  std::span<const std::uint8_t> data;

  static Result<PageReplyView> from(std::span<const std::uint8_t> payload) {
    PageReplyView v;
    std::size_t pos = 0;
    if (!view_detail::read_field(payload, pos, v.page) ||
        !view_detail::read_field(payload, pos, v.seq) ||
        !view_detail::read_field(payload, pos, v.version) ||
        !view_detail::read_span(payload, pos, v.data)) {
      return make_error(ErrorCode::kInvalidArgument, "truncated frame");
    }
    if (pos != payload.size()) {
      return make_error(ErrorCode::kInvalidArgument,
                        "trailing bytes after decode");
    }
    return v;
  }
};

/// DiffMsg decoded by reference: `diff` borrows `payload`.
struct DiffView {
  PageId page = 0;
  std::uint32_t seq = 0;
  std::span<const std::uint8_t> diff;

  static Result<DiffView> from(std::span<const std::uint8_t> payload) {
    DiffView v;
    std::size_t pos = 0;
    if (!view_detail::read_field(payload, pos, v.page) ||
        !view_detail::read_field(payload, pos, v.seq) ||
        !view_detail::read_span(payload, pos, v.diff)) {
      return make_error(ErrorCode::kInvalidArgument, "truncated frame");
    }
    if (pos != payload.size()) {
      return make_error(ErrorCode::kInvalidArgument,
                        "trailing bytes after decode");
    }
    return v;
  }
};

// ---- generic codec ----

template <typename T>
concept WireMessage = requires(T& m) { wire_fields(m); };

namespace codec_detail {

template <TriviallyWirable F>
void put_field(WireBuffer& buffer, const F& field) {
  buffer.put(field);
}
template <TriviallyWirable E>
void put_field(WireBuffer& buffer, const std::vector<E>& field) {
  buffer.put_vector(field);
}

template <TriviallyWirable F>
void get_field(WireBuffer& buffer, F& field) {
  field = buffer.get<F>();
}
template <TriviallyWirable E>
void get_field(WireBuffer& buffer, std::vector<E>& field) {
  field = buffer.get_vector<E>();
}

}  // namespace codec_detail

/// codec<T>::encode / codec<T>::decode for any message with wire_fields().
template <WireMessage T>
struct codec {
  /// Takes the message by value so call sites can move vector payloads in:
  /// codec<DiffMsg>::encode({page, std::move(diff)}).
  static std::vector<std::uint8_t> encode(T msg) {
    WireBuffer buffer;
    std::apply(
        [&buffer](auto&... fields) {
          (codec_detail::put_field(buffer, fields), ...);
        },
        wire_fields(msg));
    return std::move(buffer).take();
  }

  /// Soft-fail decode for frames straight off the wire: truncated, trailing,
  /// or length-inflated bytes yield a Status instead of a crash, and length
  /// prefixes are validated before any allocation (see WireBuffer).
  static Result<T> try_decode(const std::vector<std::uint8_t>& bytes) {
    WireBuffer buffer{bytes};
    T msg;
    std::apply(
        [&buffer](auto&... fields) {
          (codec_detail::get_field(buffer, fields), ...);
        },
        wire_fields(msg));
    if (!buffer.ok()) {
      return make_error(ErrorCode::kInvalidArgument, "truncated frame");
    }
    if (!buffer.exhausted()) {
      return make_error(ErrorCode::kInvalidArgument,
                        "trailing bytes after decode");
    }
    return msg;
  }

  /// Abort-on-malformed decode for frames this process produced itself
  /// (a failure here is a ParADE bug, not wire corruption).
  static T decode(const std::vector<std::uint8_t>& bytes) {
    WireBuffer buffer{bytes};
    T msg;
    std::apply(
        [&buffer](auto&... fields) {
          (codec_detail::get_field(buffer, fields), ...);
        },
        wire_fields(msg));
    PARADE_CHECK_MSG(buffer.ok(), "truncated frame");
    PARADE_CHECK_MSG(buffer.exhausted(), "trailing bytes after decode");
    return msg;
  }
};

}  // namespace parade::dsm
