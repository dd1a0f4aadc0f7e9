// Zero-copy tier: CoW twin aliasing plus span-decoded page serves and diffs
// are the DSM's only data path, so they are checked against a reference —
// the golden pool built from stamp() — rather than against a second
// pipeline. The workload leans on every path the zero-copy design touches:
// multi-writer pages (diff merges privatize shared twins), a sole-writer
// page (home migration, kept copies stamped kNeverFetched), and home-side
// writes (frame instability windows). Every node's final pool must equal
// the golden array word for word, untouched words included (0). The chaos
// case reruns the workload under seeded fault injection; with
// PARADE_CHECKED the run must finish with dsm.invariant.violations == 0 on
// every node.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dsm/cluster.hpp"
#include "net/fault.hpp"
#include "obs/registry.hpp"

namespace parade::dsm {
namespace {

constexpr int kDataPages = 6;
constexpr int kEpochs = 4;
constexpr std::size_t kPageBytes = 4096;
constexpr std::size_t kWordsPerPage = kPageBytes / sizeof(std::uint64_t);

/// The deterministic word each (epoch, writer, page) deposits.
std::uint64_t stamp(int epoch, NodeId writer, int page) {
  return 1 + static_cast<std::uint64_t>(epoch) * 1000003 +
         static_cast<std::uint64_t>(writer) * 97 +
         static_cast<std::uint64_t>(page) * 13;
}

/// Final pool contents after kEpochs: each writer's last stamp in its own
/// word of page writer % kDataPages, the last sole writer's 16 words on the
/// hot page, and 0 everywhere else.
std::vector<std::uint64_t> golden_pool(int nodes) {
  std::vector<std::uint64_t> pool((kDataPages + 1) * kWordsPerPage, 0);
  const int last = kEpochs - 1;
  for (NodeId writer = 0; writer < nodes; ++writer) {
    const int page = static_cast<int>(writer) % kDataPages;
    pool[static_cast<std::size_t>(page) * kWordsPerPage + writer] =
        stamp(last, writer, page);
  }
  const NodeId sole = static_cast<NodeId>(last % nodes);
  for (std::size_t w = 0; w < 16; ++w) {
    pool[kDataPages * kWordsPerPage + w] = stamp(last, sole, kDataPages) + w;
  }
  return pool;
}

struct ZeroCopyResult {
  /// Each node's final view of the data and hot pages, indexed by rank.
  std::vector<std::vector<std::uint64_t>> memory;
  std::int64_t violations = 0;    ///< sum of dsm.invariant.violations
  std::int64_t injected = 0;      ///< sum of net.fault.injected
  std::int64_t twins_shared = 0;  ///< sum of dsm.twins_shared
  std::int64_t migrations = 0;    ///< sum of dsm.home_migrations
};

/// SPMD workload: every node writes its own word of page rank % kDataPages
/// (multi-modifier pages — concurrent CoW twins of the same home frame, and
/// each diff merge privatizes the others), a rotating sole writer owns the
/// last page (migration; the kept copy must privatize eagerly next epoch),
/// and the home of page 0 rewrites its own word too (unstable-frame window
/// while remote fetches are in flight). After each barrier every node
/// verifies the entire pool against the golden function.
ZeroCopyResult run_workload(int nodes, std::optional<net::FaultPlan> faults) {
  DsmConfig config;
  config.pool_bytes = (kDataPages + 2) * kPageBytes;
  config.retry.timeout_ms = 50;
  config.retry.max_attempts = 400;

  const Topology topology = Topology::cluster(nodes);
  auto cluster = faults.has_value()
                     ? std::make_unique<DsmCluster>(topology, config, *faults)
                     : std::make_unique<DsmCluster>(topology, config);

  ZeroCopyResult result;
  result.memory.resize(static_cast<std::size_t>(nodes));
  cluster->run([&](NodeId rank) {
    DsmNode& node = cluster->node(rank);
    auto* data = static_cast<std::uint64_t*>(
        node.shmalloc(kDataPages * kPageBytes, kPageBytes));
    auto* hot =
        static_cast<std::uint64_t*>(node.shmalloc(kPageBytes, kPageBytes));
    node.barrier();

    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      const int my_page = static_cast<int>(rank) % kDataPages;
      data[static_cast<std::size_t>(my_page) * kWordsPerPage + rank] =
          stamp(epoch, rank, my_page);
      const NodeId sole = static_cast<NodeId>(epoch % nodes);
      if (rank == sole) {
        for (std::size_t w = 0; w < 16; ++w) {
          hot[w] = stamp(epoch, rank, kDataPages) + w;
        }
      }
      node.barrier();

      for (NodeId writer = 0; writer < nodes; ++writer) {
        const int page = static_cast<int>(writer) % kDataPages;
        ASSERT_EQ(
            data[static_cast<std::size_t>(page) * kWordsPerPage + writer],
            stamp(epoch, writer, page))
            << "rank " << rank << " epoch " << epoch << " writer " << writer;
      }
      for (std::size_t w = 0; w < 16; ++w) {
        ASSERT_EQ(hot[w], stamp(epoch, sole, kDataPages) + w)
            << "rank " << rank << " epoch " << epoch << " hot word " << w;
      }
      node.barrier();
    }

    auto& memory = result.memory[static_cast<std::size_t>(rank)];
    memory.assign(data, data + kDataPages * kWordsPerPage);
    memory.insert(memory.end(), hot, hot + kWordsPerPage);
  });

  auto& reg = obs::Registry::instance();
  for (NodeId n = 0; n < nodes; ++n) {
    result.violations += reg.counter(n, "dsm.invariant.violations").value();
    result.injected += reg.counter(n, "net.fault.injected").value();
    result.twins_shared += reg.counter(n, "dsm.twins_shared").value();
    result.migrations += reg.counter(n, "dsm.home_migrations").value();
  }
  cluster->shutdown();
  return result;
}

/// Every node's final pool equals the golden array, word for word.
void expect_golden(const ZeroCopyResult& result, int nodes) {
  const std::vector<std::uint64_t> golden = golden_pool(nodes);
  ASSERT_EQ(result.memory.size(), static_cast<std::size_t>(nodes));
  for (NodeId rank = 0; rank < nodes; ++rank) {
    EXPECT_EQ(result.memory[static_cast<std::size_t>(rank)], golden)
        << "rank " << rank << "'s final pool diverged from the golden array";
  }
}

TEST(ZeroCopy, FourNodesMatchGolden) {
  const ZeroCopyResult zc = run_workload(4, std::nullopt);
  expect_golden(zc, 4);
  EXPECT_EQ(zc.violations, 0);
  EXPECT_GT(zc.migrations, 0) << "the sole-writer page never migrated";
  // The CoW machinery must actually engage: some twins alias the home frame.
  // (Privatization, by contrast, only fires on a genuinely concurrent frame
  // mutation — every sync point releases twins first — so it is asserted
  // deterministically at the TwinRegistry level in dsm_unit_test.cpp, not
  // here.)
  EXPECT_GT(zc.twins_shared, 0) << "no twin ever shared the home frame";
}

TEST(ZeroCopy, EightNodesMatchGolden) {
  const ZeroCopyResult zc = run_workload(8, std::nullopt);
  expect_golden(zc, 8);
  EXPECT_EQ(zc.violations, 0);
  EXPECT_GT(zc.twins_shared, 0);
}

// Chaos tier (ctest -L tier2-chaos, built with PARADE_CHECKED=ON in CI):
// the data path under seeded message drops, duplicates, delays and reorders.
// Retransmitted serves carry frame versions from different moments; the
// version gate must keep every stale alias out, converging to the golden
// pool with zero invariant violations.
TEST(ZeroCopyChaos, CheckedZeroCopyRunSurvivesFaults) {
  const ZeroCopyResult chaotic = run_workload(4, net::default_chaos_plan(7));
  expect_golden(chaotic, 4);
  EXPECT_GT(chaotic.injected, 0) << "the fault plan never fired";
  EXPECT_EQ(chaotic.violations, 0)
      << "rules re-validation fired during the chaos run";
}

}  // namespace
}  // namespace parade::dsm
