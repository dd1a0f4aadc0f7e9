// Wire-codec robustness: frames straight off the wire may be truncated, carry
// trailing garbage, or have corrupted length prefixes. try_decode must reject
// them with a Status — never crash, never allocate from a hostile length
// prefix — and WireBuffer must validate counts against the bytes actually
// present before reserving memory. Frames that decode but name pages, locks
// or diff runs outside a live node's tables must be dropped by its comm
// thread, not abort it.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "common/serialize.hpp"
#include "dsm/cluster.hpp"
#include "dsm/notice.hpp"
#include "dsm/protocol.hpp"

namespace parade::dsm {
namespace {

template <typename T>
void expect_rejects_truncations_and_trailing(const T& msg) {
  const auto bytes = codec<T>::encode(msg);
  ASSERT_FALSE(bytes.empty());

  // Every proper prefix must fail: fixed-width fields underrun, and a
  // length-prefixed vector either loses its count or its elements.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<long>(len));
    const auto result = codec<T>::try_decode(cut);
    EXPECT_FALSE(result.is_ok()) << "accepted truncation at " << len;
  }

  // Trailing bytes must fail too (a frame is exactly one message).
  for (std::size_t extra : {1u, 3u, 16u}) {
    auto padded = bytes;
    padded.insert(padded.end(), extra, 0xAB);
    const auto result = codec<T>::try_decode(padded);
    EXPECT_FALSE(result.is_ok()) << "accepted " << extra << " trailing bytes";
  }

  // The pristine frame still round-trips.
  EXPECT_TRUE(codec<T>::try_decode(bytes).is_ok());
}

TEST(CodecFuzz, TruncationAndTrailingRejected) {
  expect_rejects_truncations_and_trailing(PageRequestMsg{3, 9});
  expect_rejects_truncations_and_trailing(
      PageReplyMsg{3, {0x10, 0x20, 0x30, 0x40}, 9});
  expect_rejects_truncations_and_trailing(DiffMsg{5, {1, 2, 3, 4, 5}, 11});
  expect_rejects_truncations_and_trailing(DiffAckMsg{5, 11});
  expect_rejects_truncations_and_trailing(
      BarrierArriveMsg{4, notice::pack_notices({{0, {1, 2}}, {2, {1, 5}}})});
  BarrierDepartMsg depart;
  depart.epoch = 4;
  depart.departure_vtime = 2.5;
  depart.entries = {{7, 1, 2}, {9, 0, kAnyNode}};
  expect_rejects_truncations_and_trailing(depart);
  expect_rejects_truncations_and_trailing(LockAcquireMsg{2, 13});
  expect_rejects_truncations_and_trailing(LockGrantMsg{2, {{8, 1}}, 13});
  expect_rejects_truncations_and_trailing(LockReleaseMsg{2, {8, 9}, 14});
  expect_rejects_truncations_and_trailing(LockReleaseAckMsg{2, 14});
}

TEST(CodecFuzz, HostileLengthPrefixFailsWithoutAllocating) {
  // lock_id + seq + count=0xFFFFFFFF and no element bytes: must reject
  // instead of attempting a ~32 GiB WriteNotice allocation.
  WireBuffer hostile;
  hostile.put<std::int32_t>(1);
  hostile.put<std::uint32_t>(7);
  hostile.put<std::uint32_t>(0xFFFFFFFFu);
  const auto result =
      codec<LockGrantMsg>::try_decode(std::move(hostile).take());
  ASSERT_FALSE(result.is_ok());

  // Same through the raw buffer API.
  WireBuffer raw;
  raw.put<std::uint32_t>(0xFFFFFFFFu);
  WireBuffer reader{std::move(raw).take()};
  const auto values = reader.get_vector<std::uint64_t>();
  EXPECT_TRUE(values.empty());
  EXPECT_FALSE(reader.ok());
}

TEST(CodecFuzz, BitFlipsNeverCrash) {
  DiffMsg msg{12, {}, 99};
  msg.diff.resize(64);
  for (std::size_t i = 0; i < msg.diff.size(); ++i) {
    msg.diff[i] = static_cast<std::uint8_t>(i * 7);
  }
  const auto pristine = codec<DiffMsg>::encode(msg);

  // Single-bit flips across the whole frame: each either still decodes (a
  // flip inside the payload is a legal different message) or fails cleanly.
  int rejected = 0;
  for (std::size_t bit = 0; bit < pristine.size() * 8; ++bit) {
    auto mutated = pristine;
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const auto result = codec<DiffMsg>::try_decode(mutated);
    if (!result.is_ok()) ++rejected;
  }
  // Flips inside the count prefix must have produced at least one rejection.
  EXPECT_GT(rejected, 0);
}

TEST(CodecFuzz, RandomGarbageNeverCrashes) {
  std::mt19937_64 rng(20260805);
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> garbage(rng() % 96);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
    // Exercise several message shapes; outcomes are irrelevant, surviving is
    // the property.
    (void)codec<PageReplyMsg>::try_decode(garbage);
    (void)codec<BarrierDepartMsg>::try_decode(garbage);
    (void)codec<LockGrantMsg>::try_decode(garbage);
    (void)codec<DiffMsg>::try_decode(garbage);
  }
}

// ---- interval-vector write-notice streams (dsm/notice.hpp) ----
//
// The stream rides inside BarrierArriveMsg, so codec<T> already rejects
// framing damage; these cover the semantic layer: try_unpack_notices must
// soft-fail on malformed streams and never size an allocation from hostile
// counts.

TEST(NoticeFuzz, RoundTripCoalescesIntervals) {
  const std::vector<notice::NoticeBlock> blocks = {
      {0, {0, 1, 2, 3}},          // one dense run
      {2, {5}},                    // singleton
      {5, {1, 2, 7, 8, 9, 63}},    // three runs with gaps
  };
  const auto stream = notice::pack_notices(blocks);
  // Dense runs collapse: block 0 is 4 words (modifier, count, gap, len).
  ASSERT_EQ(stream.size(), 4u + 4u + 8u);
  const auto back = notice::try_unpack_notices(stream, 8, 64);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), blocks.size());
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    EXPECT_EQ((*back)[b].modifier, blocks[b].modifier);
    EXPECT_EQ((*back)[b].pages, blocks[b].pages);
  }
  EXPECT_EQ(notice::notice_page_count(*back), 11u);
  // Empty block lists encode to an empty stream and round-trip.
  EXPECT_TRUE(notice::pack_notices({}).empty());
  EXPECT_TRUE(notice::try_unpack_notices({}, 8, 64)->empty());
}

TEST(NoticeFuzz, TruncationsSoftFail) {
  // Two blocks of 6 words each: {1, 2, 0, 2, 3, 1} and {3, 2, 2, 1, 57, 4}.
  const auto stream =
      notice::pack_notices({{1, {0, 1, 5}}, {3, {2, 60, 61, 62, 63}}});
  ASSERT_EQ(stream.size(), 12u);
  // A cut at a block boundary is a smaller legal stream (framing truncation
  // is the codec layer's job); every cut inside a block must soft-fail.
  for (std::size_t len = 1; len < stream.size(); ++len) {
    const std::vector<std::uint32_t> cut(stream.begin(),
                                         stream.begin() + static_cast<long>(len));
    EXPECT_EQ(notice::try_unpack_notices(cut, 8, 64).has_value(), len == 6)
        << "at word " << len;
  }
  EXPECT_TRUE(notice::try_unpack_notices(stream, 8, 64).has_value());
}

TEST(NoticeFuzz, HostileCountsRejectedBeforeSizingAnything) {
  // run_count far beyond the words actually present.
  EXPECT_FALSE(
      notice::try_unpack_notices({0, 0xFFFFFFFFu, 0, 1}, 8, 64).has_value());
  // A run length that would expand to ~4G pages must fail on the num_pages
  // bound, not allocate.
  EXPECT_FALSE(
      notice::try_unpack_notices({0, 1, 0, 0xFFFFFFFFu}, 8, 64).has_value());
  // gap + len summing past num_pages in 64-bit math (no uint32 wraparound).
  EXPECT_FALSE(
      notice::try_unpack_notices({0, 1, 0xFFFFFFFFu, 2}, 8, 64).has_value());
}

TEST(NoticeFuzz, NonCanonicalStreamsRejected) {
  const PageId pages = 64;
  // Modifier out of range.
  EXPECT_FALSE(notice::try_unpack_notices({8, 1, 0, 1}, 8, pages).has_value());
  // Modifiers not strictly ascending (equal, then descending).
  EXPECT_FALSE(notice::try_unpack_notices({2, 1, 0, 1, 2, 1, 0, 1}, 8, pages)
                   .has_value());
  EXPECT_FALSE(notice::try_unpack_notices({2, 1, 0, 1, 1, 1, 0, 1}, 8, pages)
                   .has_value());
  // Zero-length run and empty block.
  EXPECT_FALSE(notice::try_unpack_notices({0, 1, 0, 0}, 8, pages).has_value());
  EXPECT_FALSE(notice::try_unpack_notices({0, 0}, 8, pages).has_value());
  // Second run with gap 0 (adjacent runs must have been merged).
  EXPECT_FALSE(
      notice::try_unpack_notices({0, 2, 0, 1, 0, 1}, 8, pages).has_value());
  // Page past the pool.
  EXPECT_FALSE(notice::try_unpack_notices({0, 1, 64, 1}, 8, pages).has_value());
}

TEST(NoticeFuzz, WordFlipsAndGarbageNeverCrash) {
  std::mt19937_64 rng(20260809);
  const auto pristine =
      notice::pack_notices({{0, {3, 4, 5}}, {4, {0, 63}}, {6, {31}}});
  // Single-word mutations: each either still validates (a different legal
  // stream) or soft-fails; unpacked results always respect the bounds.
  for (std::size_t w = 0; w < pristine.size(); ++w) {
    for (std::uint32_t delta : {1u, 0x80u, 0xFFFFFFFFu}) {
      auto mutated = pristine;
      mutated[w] ^= delta;
      const auto result = notice::try_unpack_notices(mutated, 8, 64);
      if (!result.has_value()) continue;
      for (const auto& block : *result) {
        EXPECT_LT(block.modifier, 8);
        for (PageId p : block.pages) EXPECT_LT(p, 64);
      }
    }
  }
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint32_t> garbage(rng() % 24);
    for (auto& word : garbage) {
      word = static_cast<std::uint32_t>(rng() % 128);
    }
    (void)notice::try_unpack_notices(garbage, 8, 64);
  }
}

TEST(CodecFuzz, WireBufferStringValidatesBeforeAllocating) {
  WireBuffer raw;
  raw.put<std::uint32_t>(0xFFFFFFF0u);
  raw.put_bytes("abc", 3);
  WireBuffer reader{std::move(raw).take()};
  const std::string text = reader.get_string();
  EXPECT_TRUE(text.empty());
  EXPECT_FALSE(reader.ok());

  // rewind clears the failure latch.
  reader.rewind();
  EXPECT_TRUE(reader.ok());
}

TEST(LiveNodeFuzz, OutOfRangeFramesAreDroppedAndBarrierCompletes) {
  DsmConfig config;
  config.pool_bytes = 4 * config.page_bytes;
  DsmCluster cluster(Topology::cluster(2), config, net::FaultPlan{});
  const auto pages = static_cast<PageId>(config.num_pages());
  const auto page_bytes = static_cast<std::uint32_t>(config.page_bytes);

  // A run that starts in the page but ends past it.
  WireBuffer overrun;
  overrun.put<std::uint32_t>(page_bytes - 4);
  overrun.put<std::uint32_t>(8);
  overrun.put_bytes("01234567", 8);
  const std::vector<std::pair<Tag, std::vector<std::uint8_t>>> frames = {
      {kTagDiff, codec<DiffMsg>::encode({pages, {}, 1})},
      {kTagDiff, codec<DiffMsg>::encode({-1, {}, 2})},
      {kTagDiff, codec<DiffMsg>::encode({0, std::move(overrun).take(), 3})},
      {kTagDiff, codec<DiffMsg>::encode({0, {1, 2, 3}, 4})},  // cut header
      {kTagPageRequest, codec<PageRequestMsg>::encode({pages, 1})},
      {kTagPageRequest, codec<PageRequestMsg>::encode({-1, 2})},
      {kTagPageReply,
       codec<PageReplyMsg>::encode(
           {pages, std::vector<std::uint8_t>(config.page_bytes), 1, 0})},
      {kTagLockAcquire, codec<LockAcquireMsg>::encode({kMaxDsmLocks, 1})},
      {kTagLockAcquire, codec<LockAcquireMsg>::encode({-1, 2})},
      {kTagLockRelease, codec<LockReleaseMsg>::encode({kMaxDsmLocks, {}, 3})},
      {kTagLockRelease, codec<LockReleaseMsg>::encode({0, {pages}, 4})},
  };
  for (const auto& [tag, payload] : frames) {
    ASSERT_TRUE(cluster.channel(1).send(0, tag, payload, 0.0).is_ok());
  }

  // The comm thread handles frames in arrival order, so once rank 1's
  // barrier arrival is through, every bad frame before it was dropped.
  cluster.run([&](NodeId rank) {
    cluster.node(rank).barrier();
    if (rank == 1) {
      cluster.node(rank).lock_acquire(0);
      cluster.node(rank).lock_release(0);
    }
  });
  // Nothing was answered: no diff ack, grant or release ack is left over.
  EXPECT_FALSE(cluster.channel(1).inbox().try_recv_match(
      [](const net::MessageHeader& h) {
        return h.tag == kTagDiffAck || h.tag >= kTagLockGrantBase;
      }));
  EXPECT_EQ(cluster.node(0).stats().snapshot().diffs_applied, 0);
  cluster.shutdown();
}

}  // namespace
}  // namespace parade::dsm
