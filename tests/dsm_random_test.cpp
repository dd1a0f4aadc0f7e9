// Randomized DSM consistency property test: a reference "golden" array is
// maintained with plain memory while the same writes are applied to the DSM
// pool by their assigned nodes; after each barrier every node must observe
// the golden contents. Write sets are word-granular and per-epoch disjoint
// across nodes (a data-race-free program), which is exactly the guarantee
// HLRC must preserve.
#include <gtest/gtest.h>

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <set>

#include "dsm/cluster.hpp"
#include "dsm/diff.hpp"
#include "dsm/mapping.hpp"

namespace parade::dsm {
namespace {

struct Scenario {
  int nodes;
  int pages;
  int epochs;
  unsigned seed;
  bool migration;
};

class RandomConsistency : public ::testing::TestWithParam<Scenario> {};

TEST_P(RandomConsistency, ConvergesEveryEpoch) {
  const Scenario s = GetParam();
  const std::size_t words =
      static_cast<std::size_t>(s.pages) * 4096 / sizeof(std::uint64_t);

  // Pre-generate the write plan so every node sees the same schedule.
  // plan[epoch] = list of (word index, value, writer node).
  struct Write {
    std::size_t word;
    std::uint64_t value;
    int writer;
  };
  std::mt19937_64 rng(s.seed);
  std::vector<std::vector<Write>> plan(static_cast<std::size_t>(s.epochs));
  std::vector<std::uint64_t> golden(words, 0);
  for (auto& epoch_writes : plan) {
    const int count = static_cast<int>(rng() % 200) + 1;
    std::set<std::size_t> used;  // per-epoch disjoint writers per word
    for (int w = 0; w < count; ++w) {
      const std::size_t word = rng() % words;
      if (!used.insert(word).second) continue;
      epoch_writes.push_back(
          Write{word, rng(), static_cast<int>(rng() % s.nodes)});
    }
  }

  DsmConfig config;
  config.pool_bytes = static_cast<std::size_t>(s.pages + 1) * 4096;
  config.home_migration = s.migration;
  DsmCluster cluster(Topology::cluster(s.nodes), config);
  cluster.run([&](NodeId rank) {
    auto* data = static_cast<std::uint64_t*>(
        cluster.node(rank).shmalloc(words * sizeof(std::uint64_t), 4096));
    cluster.node(rank).barrier();
    std::vector<std::uint64_t> local_golden(words, 0);
    for (const auto& epoch_writes : plan) {
      for (const Write& w : epoch_writes) {
        local_golden[w.word] = w.value;
        if (w.writer == rank) data[w.word] = w.value;
      }
      cluster.node(rank).barrier();
      for (std::size_t i = 0; i < words; ++i) {
        ASSERT_EQ(data[i], local_golden[i])
            << "rank " << rank << " word " << i;
      }
      cluster.node(rank).barrier();
    }
  });
  cluster.shutdown();
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, RandomConsistency,
    ::testing::Values(Scenario{2, 4, 6, 101, true},
                      Scenario{2, 4, 6, 102, false},
                      Scenario{3, 8, 5, 103, true},
                      Scenario{4, 8, 5, 104, true},
                      Scenario{4, 8, 5, 105, false},
                      Scenario{5, 16, 4, 106, true},
                      Scenario{8, 16, 3, 107, true}),
    [](const auto& info) {
      return std::to_string(info.param.nodes) + "n" +
             std::to_string(info.param.pages) + "p" +
             (info.param.migration ? "mig" : "fix") +
             std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------------
// Twin/diff round-trip property: random word-granular writes through the
// segment pool's *application* view (the path real programs take) must
// produce a diff — streamed by append_diff straight into a wire buffer, as
// the flush does — that applies back onto the home's copy exactly. The
// streamed bytes must also match the reference encode_diff vector
// byte-for-byte, pinning the wire format.

struct DiffScenario {
  unsigned seed;
  int writes;       ///< word writes per round (0 = clean-page case)
  bool full_page;   ///< dirty every word instead of sampling
};

class TwinDiffRoundTrip : public ::testing::TestWithParam<DiffScenario> {};

TEST_P(TwinDiffRoundTrip, AppliesBackExactly) {
  const DiffScenario s = GetParam();
  constexpr std::size_t kPageBytes = 4096;
  constexpr std::size_t kWords = kPageBytes / sizeof(std::uint64_t);
  constexpr int kRounds = 8;

  auto pool_r = SegmentPool::create(1 << 16, kPageBytes, MapMethod::kMemfd);
  ASSERT_TRUE(pool_r.is_ok());
  auto& pool = *pool_r.value();
  std::mt19937_64 rng(s.seed);

  for (int round = 0; round < kRounds; ++round) {
    const PageId page = static_cast<PageId>(
        rng() % static_cast<std::uint64_t>(pool.num_pages()));
    auto* sys =
        reinterpret_cast<std::uint64_t*>(pool.real_address(View::kSys, page, 0));
    auto* app =
        reinterpret_cast<std::uint64_t*>(pool.real_address(View::kApp, page, 0));

    // Seed the frame, snapshot the twin (what upgrade_to_dirty privatizes),
    // and mirror the home's pre-diff copy.
    for (std::size_t w = 0; w < kWords; ++w) sys[w] = rng();
    std::memcpy(pool.real_address(View::kTwin, page, 0), sys, kPageBytes);
    std::vector<std::uint8_t> home(kPageBytes);
    std::memcpy(home.data(), sys, kPageBytes);

    // Writes land through the app view, like the faulting program's stores.
    ASSERT_TRUE(pool
                    .protect_app(static_cast<std::size_t>(page) * kPageBytes,
                                 kPageBytes, PROT_READ | PROT_WRITE)
                    .is_ok());
    if (s.full_page) {
      for (std::size_t w = 0; w < kWords; ++w) app[w] = rng();
    } else {
      for (int i = 0; i < s.writes; ++i) {
        // Bias toward the page boundaries so first/last-word runs are hit.
        const std::uint64_t r = rng();
        const std::size_t word = (r % 4 == 0)   ? (r % 2 ? 0 : kWords - 1)
                                                : (r >> 8) % kWords;
        app[word] = rng();
      }
    }

    const auto* current = reinterpret_cast<const std::uint8_t*>(sys);
    const auto* twin = reinterpret_cast<const std::uint8_t*>(
        pool.real_address(View::kTwin, page, 0));

    WireBuffer buffer;
    const std::size_t diff_bytes =
        append_diff(buffer, current, twin, kPageBytes);
    const auto reference = encode_diff(current, twin, kPageBytes);

    // Streamed layout = u32 length prefix + exactly the reference diff bytes.
    ASSERT_EQ(diff_bytes, reference.size());
    ASSERT_EQ(buffer.size(), 4 + diff_bytes);
    EXPECT_TRUE(std::equal(reference.begin(), reference.end(),
                           buffer.bytes().begin() + 4));
    if (s.writes == 0 && !s.full_page) {
      EXPECT_EQ(diff_bytes, 0u);
    }

    ASSERT_TRUE(apply_diff(home.data(), kPageBytes,
                           buffer.bytes().data() + 4, diff_bytes));
    EXPECT_TRUE(std::memcmp(home.data(), sys, kPageBytes) == 0)
        << "seed " << s.seed << " round " << round << " page " << page;

    ASSERT_TRUE(pool
                    .protect_app(static_cast<std::size_t>(page) * kPageBytes,
                                 kPageBytes, PROT_NONE)
                    .is_ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, TwinDiffRoundTrip,
    ::testing::Values(DiffScenario{201, 0, false},     // clean page
                      DiffScenario{202, 1, false},     // single word
                      DiffScenario{203, 12, false},
                      DiffScenario{204, 64, false},
                      DiffScenario{205, 200, false},
                      DiffScenario{206, 0, true}),     // every word dirty
    [](const auto& info) {
      return "s" + std::to_string(info.param.seed) + "_" +
             (info.param.full_page ? "full"
                                   : std::to_string(info.param.writes) + "w");
    });

}  // namespace
}  // namespace parade::dsm
