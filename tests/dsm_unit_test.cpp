// DSM building blocks: twin/diff codec (with randomized property tests),
// page-state machine, protocol wire round-trips. The segment pool / double
// mapping itself is covered by mapping_test.cpp.
#include <gtest/gtest.h>

#include <sys/mman.h>

#include <array>
#include <cstring>
#include <random>
#include <vector>

#include "dsm/cluster.hpp"
#include "dsm/diff.hpp"
#include "dsm/mapping.hpp"
#include "dsm/notice.hpp"
#include "dsm/pagetable.hpp"
#include "dsm/protocol.hpp"

namespace parade::dsm {
namespace {

// ---------------------------------------------------------------------------
// Diff codec

TEST(Diff, EmptyWhenIdentical) {
  std::vector<std::uint8_t> page(4096, 3), twin(4096, 3);
  EXPECT_TRUE(encode_diff(page.data(), twin.data(), 4096).empty());
}

TEST(Diff, SingleWordRun) {
  std::vector<std::uint8_t> twin(4096, 0), page(4096, 0);
  page[100] = 9;  // one changed byte -> one 8-byte word run
  const auto diff = encode_diff(page.data(), twin.data(), 4096);
  EXPECT_EQ(diff.size(), 8u + 8u);  // header + one word
  std::vector<std::uint8_t> target = twin;
  ASSERT_TRUE(apply_diff(target.data(), 4096, diff.data(), diff.size()));
  EXPECT_EQ(target, page);
  EXPECT_EQ(diff_payload_bytes(diff.data(), diff.size()), 8u);
}

TEST(Diff, AdjacentWordsCoalesce) {
  std::vector<std::uint8_t> twin(4096, 0), page(4096, 0);
  for (int i = 64; i < 96; ++i) page[static_cast<std::size_t>(i)] = 1;
  const auto diff = encode_diff(page.data(), twin.data(), 4096);
  EXPECT_EQ(diff.size(), 8u + 32u);  // one run of 4 words
}

TEST(Diff, FullPage) {
  std::vector<std::uint8_t> twin(4096, 0), page(4096, 0xFF);
  const auto diff = encode_diff(page.data(), twin.data(), 4096);
  EXPECT_EQ(diff.size(), 8u + 4096u);
  std::vector<std::uint8_t> target = twin;
  ASSERT_TRUE(apply_diff(target.data(), 4096, diff.data(), diff.size()));
  EXPECT_EQ(target, page);
}

TEST(Diff, RejectsMalformed) {
  std::vector<std::uint8_t> target(4096, 0);
  const std::uint8_t truncated[4] = {1, 2, 3, 4};
  EXPECT_FALSE(apply_diff(target.data(), 4096, truncated, 4));
  // Out-of-range run.
  std::vector<std::uint8_t> bad;
  const std::uint32_t offset = 4090, length = 16;
  bad.resize(8 + 16);
  std::memcpy(bad.data(), &offset, 4);
  std::memcpy(bad.data() + 4, &length, 4);
  EXPECT_FALSE(apply_diff(target.data(), 4096, bad.data(), bad.size()));
}

class DiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(DiffProperty, RandomRoundTrip) {
  // Property: apply(twin, encode(current, twin)) == current, for random
  // twins and random change densities.
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::vector<std::uint8_t> twin(4096), page(4096);
  for (auto& b : twin) b = static_cast<std::uint8_t>(rng());
  page = twin;
  const int changes = GetParam() * 37 % 4096;
  for (int c = 0; c < changes; ++c) {
    page[rng() % 4096] = static_cast<std::uint8_t>(rng());
  }
  const auto diff = encode_diff(page.data(), twin.data(), 4096);
  std::vector<std::uint8_t> target = twin;
  ASSERT_TRUE(apply_diff(target.data(), 4096, diff.data(), diff.size()));
  EXPECT_EQ(target, page);
  // Sparse changes must not ship the whole page.
  if (changes > 0 && changes < 64) {
    EXPECT_LT(diff.size(), 4096u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffProperty, ::testing::Range(1, 25));

// ---------------------------------------------------------------------------
// Page state machine (paper Figure 5)

TEST(PageState, AllowedTransitions) {
  using PS = PageState;
  EXPECT_TRUE(transition_allowed(PS::kInvalid, PS::kTransient));
  EXPECT_TRUE(transition_allowed(PS::kTransient, PS::kBlocked));
  EXPECT_TRUE(transition_allowed(PS::kTransient, PS::kReadOnly));
  EXPECT_TRUE(transition_allowed(PS::kBlocked, PS::kReadOnly));
  EXPECT_TRUE(transition_allowed(PS::kReadOnly, PS::kDirty));
  EXPECT_TRUE(transition_allowed(PS::kReadOnly, PS::kInvalid));
  EXPECT_TRUE(transition_allowed(PS::kDirty, PS::kReadOnly));
}

class PageStatePairs
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PageStatePairs, ForbiddenTransitionsStayForbidden) {
  const auto from = static_cast<PageState>(std::get<0>(GetParam()));
  const auto to = static_cast<PageState>(std::get<1>(GetParam()));
  // Invariants that must hold for every pair:
  if (from == to) {
    EXPECT_FALSE(transition_allowed(from, to));  // self loops are not events
  }
  if (to == PageState::kTransient) {
    // Only a fault on INVALID starts a fetch.
    EXPECT_EQ(transition_allowed(from, to), from == PageState::kInvalid);
  }
  if (to == PageState::kBlocked) {
    EXPECT_EQ(transition_allowed(from, to), from == PageState::kTransient);
  }
  if (from == PageState::kInvalid && to != PageState::kTransient) {
    EXPECT_FALSE(transition_allowed(from, to));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPairs, PageStatePairs,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Range(0, 5)));

TEST(PageTable, InitialHome) {
  PageTable table(16, /*initial_home=*/0);
  EXPECT_EQ(table.num_pages(), 16u);
  for (PageId p = 0; p < 16; ++p) {
    EXPECT_EQ(table.home_of(p), 0);
    EXPECT_EQ(table.entry(p).state, PageState::kInvalid);
  }
}

// ---------------------------------------------------------------------------
// Protocol wire round-trips

TEST(Protocol, PageMessages) {
  PageReplyMsg reply{42, {1, 2, 3, 4, 5}};
  const auto decoded = codec<PageReplyMsg>::decode(codec<PageReplyMsg>::encode(reply));
  EXPECT_EQ(decoded.page, 42);
  EXPECT_EQ(decoded.data, reply.data);

  const auto request =
      codec<PageRequestMsg>::decode(codec<PageRequestMsg>::encode({7}));
  EXPECT_EQ(request.page, 7);
}

TEST(Protocol, DiffMessages) {
  DiffMsg diff{9, {0xA, 0xB}};
  const auto decoded = codec<DiffMsg>::decode(codec<DiffMsg>::encode(diff));
  EXPECT_EQ(decoded.page, 9);
  EXPECT_EQ(decoded.diff, diff.diff);
  EXPECT_EQ(codec<DiffAckMsg>::decode(codec<DiffAckMsg>::encode({9})).page, 9);
}

TEST(Protocol, BarrierMessages) {
  // Notice stream for pages {1, 2, 30} dirtied by this subtree's node 3.
  BarrierArriveMsg arrive{5, notice::pack_notices({{3, {1, 2, 30}}})};
  const auto a =
      codec<BarrierArriveMsg>::decode(codec<BarrierArriveMsg>::encode(arrive));
  EXPECT_EQ(a.epoch, 5);
  EXPECT_EQ(a.notice_stream, arrive.notice_stream);
  const auto blocks = notice::try_unpack_notices(a.notice_stream, 8, 64);
  ASSERT_TRUE(blocks.has_value());
  ASSERT_EQ(blocks->size(), 1u);
  EXPECT_EQ((*blocks)[0].modifier, 3);
  EXPECT_EQ((*blocks)[0].pages, (std::vector<PageId>{1, 2, 30}));

  BarrierDepartMsg depart;
  depart.epoch = 5;
  depart.departure_vtime = 123.5;
  depart.entries = {{1, 2, 2}, {30, 0, kAnyNode}};
  const auto d =
      codec<BarrierDepartMsg>::decode(codec<BarrierDepartMsg>::encode(depart));
  EXPECT_EQ(d.epoch, 5);
  EXPECT_DOUBLE_EQ(d.departure_vtime, 123.5);
  ASSERT_EQ(d.entries.size(), 2u);
  EXPECT_EQ(d.entries[0].page, 1);
  EXPECT_EQ(d.entries[0].new_home, 2);
  EXPECT_EQ(d.entries[0].sole_modifier, 2);
  EXPECT_EQ(d.entries[1].sole_modifier, kAnyNode);
}

TEST(Protocol, LockMessages) {
  const auto acq =
      codec<LockAcquireMsg>::decode(codec<LockAcquireMsg>::encode({3}));
  EXPECT_EQ(acq.lock_id, 3);

  LockGrantMsg grant{3, {{10, 1}, {11, 2}}};
  const auto g = codec<LockGrantMsg>::decode(codec<LockGrantMsg>::encode(grant));
  EXPECT_EQ(g.lock_id, 3);
  ASSERT_EQ(g.notices.size(), 2u);
  EXPECT_EQ(g.notices[1].page, 11);
  EXPECT_EQ(g.notices[1].modifier, 2);

  LockReleaseMsg release{3, {10, 11}};
  const auto r =
      codec<LockReleaseMsg>::decode(codec<LockReleaseMsg>::encode(release));
  EXPECT_EQ(r.dirtied_pages, release.dirtied_pages);
}

// The codec is generic over wire_fields(); a wire-format pin: vector element
// structs are memcpy'd, so their layout is the wire layout.
TEST(Protocol, CodecWireFormatStable) {
  BarrierDepartMsg depart;
  depart.epoch = 7;
  depart.departure_vtime = 1.0;
  depart.entries = {{3, 1, kAnyNode}};
  const auto bytes = codec<BarrierDepartMsg>::encode(depart);
  // epoch(8) + vtime(8) + count(4) + one 12-byte DepartEntry.
  EXPECT_EQ(bytes.size(), 8u + 8u + 4u + 12u);

  const auto grant_bytes =
      codec<LockGrantMsg>::encode(LockGrantMsg{1, {{2, 3}}, 9});
  // lock_id(4) + seq(4) + count(4) + one 8-byte WriteNotice.
  EXPECT_EQ(grant_bytes.size(), 4u + 4u + 4u + 8u);
}

TEST(Protocol, CommThreadTagPartition) {
  EXPECT_TRUE(comm_thread_tag(kTagPageRequest));
  EXPECT_TRUE(comm_thread_tag(kTagDiff));
  // Barrier arrivals are gathered by the master's comm thread so lost
  // departures can be re-answered; departures still go to the barrier caller.
  EXPECT_TRUE(comm_thread_tag(kTagBarrierArrive));
  EXPECT_FALSE(comm_thread_tag(kTagBarrierDepart));
  EXPECT_FALSE(comm_thread_tag(kTagDiffAck));
  EXPECT_FALSE(comm_thread_tag(kTagLockGrantBase + 5));
}

// ---------------------------------------------------------------------------
// TwinRegistry (zero-copy CoW twins)
//
// The cluster-level suite (dsm_zerocopy_test.cpp) checks the end-to-end
// memory against a golden pool; these tests pin the registry's own
// contract deterministically — privatization in particular only fires on
// genuinely concurrent frame mutations in a live cluster, so it is forced
// here directly.

class TwinRegistryTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kPoolBytes = 1 << 16;
  static constexpr std::size_t kPageBytes = 4096;

  void SetUp() override {
    auto home = SegmentPool::create(kPoolBytes, kPageBytes, MapMethod::kMemfd);
    auto writer =
        SegmentPool::create(kPoolBytes, kPageBytes, MapMethod::kMemfd);
    ASSERT_TRUE(home.is_ok());
    ASSERT_TRUE(writer.is_ok());
    home_ = std::move(home).value();
    writer_ = std::move(writer).value();
    twins_ = std::make_unique<TwinRegistry>(kPoolBytes / kPageBytes,
                                            kPageBytes, 2);
    twins_->register_pool(0, home_.get());
    twins_->register_pool(1, writer_.get());
    std::memset(home_->real_address(View::kSys, 0, 0), 0xAA, kPageBytes);
    std::memset(writer_->real_address(View::kSys, 0, 0), 0xAA, kPageBytes);
  }

  int pristine_byte() {
    int value = -1;
    twins_->with_twin(1, 0, [&](const std::byte* src) {
      value = std::to_integer<int>(src[0]);
    });
    return value;
  }

  std::unique_ptr<SegmentPool> home_;
  std::unique_ptr<SegmentPool> writer_;
  std::unique_ptr<TwinRegistry> twins_;
};

TEST_F(TwinRegistryTest, AttachSharesWhenVersionsMatch) {
  const std::uint32_t v = twins_->frame_version(0);
  EXPECT_TRUE(twins_->attach_twin(1, 0, 0, v));
  EXPECT_TRUE(twins_->has_twin(1, 0));
  // The pristine source is the home's live frame, not a copy.
  bool saw = twins_->with_twin(1, 0, [&](const std::byte* src) {
    EXPECT_EQ(src, home_->real_address(View::kSys, 0, 0));
  });
  EXPECT_TRUE(saw);
  twins_->release_twin(1, 0);
  EXPECT_FALSE(twins_->has_twin(1, 0));
}

TEST_F(TwinRegistryTest, AttachPrivatizesOnVersionMismatchOrSentinel) {
  const std::uint32_t v = twins_->frame_version(0);
  EXPECT_FALSE(twins_->attach_twin(1, 0, 0, v + 1));
  twins_->release_twin(1, 0);
  EXPECT_FALSE(twins_->attach_twin(1, 0, 0, TwinRegistry::kNeverFetched));
  twins_->release_twin(1, 0);
  // A node is never given an alias of its own frame.
  EXPECT_FALSE(twins_->attach_twin(1, 0, 1, v));
  twins_->release_twin(1, 0);
}

TEST_F(TwinRegistryTest, AttachCopiesEagerlyWithoutHomePool) {
  // A standalone node over the socket fabric owns a solo registry: the
  // home's pool lives in another process and is never registered, so even
  // a version-matched attach must copy the writer's own frame.
  twins_->unregister_pool(0);
  const std::uint32_t v = twins_->frame_version(0);
  EXPECT_FALSE(twins_->attach_twin(1, 0, 0, v));
  EXPECT_EQ(pristine_byte(), 0xAA);
  twins_->with_twin(1, 0, [&](const std::byte* src) {
    EXPECT_EQ(src, writer_->real_address(View::kTwin, 0, 0));
  });
  twins_->release_twin(1, 0);
}

TEST_F(TwinRegistryTest, HomeMutationPrivatizesLiveAliases) {
  EXPECT_TRUE(twins_->attach_twin(1, 0, 0, twins_->frame_version(0)));
  const std::uint32_t before = twins_->frame_version(0);

  // The home is about to merge a diff: the alias must be snapshotted first.
  EXPECT_EQ(twins_->begin_home_mutation(0), 1);
  EXPECT_GT(twins_->frame_version(0), before);
  std::memset(home_->real_address(View::kSys, 0, 0), 0xBB, kPageBytes);

  // The pristine copy still shows the pre-mutation bytes.
  EXPECT_EQ(pristine_byte(), 0xAA);
  // And it now lives in the writer's own twin frame, not the home's pool.
  twins_->with_twin(1, 0, [&](const std::byte* src) {
    EXPECT_EQ(src, writer_->real_address(View::kTwin, 0, 0));
  });
  // A second mutation has nothing left to privatize.
  EXPECT_EQ(twins_->begin_home_mutation(0), 0);
  twins_->release_twin(1, 0);
}

TEST_F(TwinRegistryTest, UnstableWindowBlocksSharing) {
  const std::uint32_t v0 = twins_->frame_version(0);
  // Home write upgrade: any live alias privatizes, and the frame is marked
  // unstable until the flush downgrade.
  EXPECT_EQ(twins_->mark_unstable(0, 0), 0);
  EXPECT_FALSE(twins_->attach_twin(1, 0, 0, twins_->frame_version(0)))
      << "attach shared against an unstable frame";
  twins_->release_twin(1, 0);

  twins_->mark_stable(0, 0);
  EXPECT_GT(twins_->frame_version(0), v0);
  // Stable again: a copy installed from a fresh serve may share.
  EXPECT_TRUE(twins_->attach_twin(1, 0, 0, twins_->frame_version(0)));
  twins_->release_twin(1, 0);
}

TEST_F(TwinRegistryTest, UnregisterPrivatizesAliasesIntoSurvivors) {
  EXPECT_TRUE(twins_->attach_twin(1, 0, 0, twins_->frame_version(0)));
  // The home's pool goes away (node shutdown): the alias must be copied out
  // before the frames unmap.
  twins_->unregister_pool(0);
  EXPECT_TRUE(twins_->has_twin(1, 0));
  EXPECT_EQ(pristine_byte(), 0xAA);
  twins_->with_twin(1, 0, [&](const std::byte* src) {
    EXPECT_EQ(src, writer_->real_address(View::kTwin, 0, 0));
  });
  twins_->release_twin(1, 0);
}

// Protection changes at a barrier go one mprotect per run of consecutive
// pages: a writer that dirtied pages {3,4,5,7} downgrades them in 2 calls at
// the flush, and a third node holding read-only copies of them (neither
// their home nor a writer) invalidates them in 2 calls at the departure.
TEST(ProtectRuns, BarrierFlushAndDepartureChangeOneRunPerCall) {
  DsmConfig config;
  config.pool_bytes = 16 * config.page_bytes;
  const std::vector<std::size_t> pages = {3, 4, 5, 7};
  DsmCluster cluster(Topology::cluster(3), config);
  std::array<DsmStatsSnapshot, 3> before{};
  std::array<DsmStatsSnapshot, 3> after{};
  cluster.run([&](NodeId rank) {
    DsmNode& node = cluster.node(rank);
    auto* pool = static_cast<volatile std::uint64_t*>(
        node.shmalloc(config.pool_bytes, config.page_bytes));
    const std::size_t words = config.page_bytes / sizeof(std::uint64_t);
    node.barrier();
    for (const std::size_t p : pages) {
      if (rank == 1) pool[p * words] = p;        // fetch, then upgrade
      if (rank == 2) (void)pool[p * words + 1];  // read-only copy
    }
    before[static_cast<std::size_t>(rank)] = node.stats().snapshot();
    node.barrier();
    after[static_cast<std::size_t>(rank)] = node.stats().snapshot();
  });
  cluster.shutdown();

  const auto delta = [&](NodeId rank, std::int64_t DsmStatsSnapshot::*field) {
    const auto r = static_cast<std::size_t>(rank);
    return after[r].*field - before[r].*field;
  };
  // Node 1 is the pages' only writer: it flushes {3,4,5} and {7}, then
  // becomes their home and keeps its copies.
  EXPECT_EQ(delta(1, &DsmStatsSnapshot::diffs_created), 4);
  EXPECT_EQ(delta(1, &DsmStatsSnapshot::protect_calls), 2);
  EXPECT_EQ(delta(1, &DsmStatsSnapshot::invalidations), 0);
  // Node 2 drops all four copies in the same two runs.
  EXPECT_EQ(delta(2, &DsmStatsSnapshot::invalidations), 4);
  EXPECT_EQ(delta(2, &DsmStatsSnapshot::protect_calls), 2);
  // Node 0, the old home, merged the diffs and keeps its copies.
  EXPECT_EQ(delta(0, &DsmStatsSnapshot::protect_calls), 0);
}

}  // namespace
}  // namespace parade::dsm
