// Seeded chaos tier: the randomized DSM workload (disjoint word writes +
// lock-protected counter increments + barriers) runs once fault-free and once
// under a deterministic FaultPlan; the final pool contents must be identical
// byte-for-byte, with nonzero injected-fault and retry counters proving the
// faults actually happened and the retry machinery absorbed them.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dsm/cluster.hpp"
#include "net/fault.hpp"
#include "obs/registry.hpp"

namespace parade::dsm {
namespace {

constexpr int kNodes = 3;
constexpr int kDataPages = 4;
constexpr int kEpochs = 3;
constexpr int kIncrementsPerEpoch = 4;
constexpr std::size_t kPageBytes = 4096;

struct RunResult {
  std::vector<std::uint64_t> memory;  ///< final data words + counter word
  std::int64_t injected = 0;          ///< sum of net.fault.injected
  std::int64_t dropped = 0;           ///< drops + partition drops
  std::int64_t dsm_retries = 0;       ///< sum of dsm.retry.count
};

struct Write {
  std::size_t word;
  std::uint64_t value;
  int writer;
};

// The write plan is a pure function of its own seed so the faulty and
// fault-free runs execute the identical program.
std::vector<std::vector<Write>> make_plan(std::size_t words) {
  std::mt19937_64 rng(42);
  std::vector<std::vector<Write>> plan(kEpochs);
  for (auto& epoch_writes : plan) {
    const int count = static_cast<int>(rng() % 120) + 40;
    std::set<std::size_t> used;  // per-epoch disjoint words: race-free program
    for (int w = 0; w < count; ++w) {
      const std::size_t word = rng() % words;
      if (!used.insert(word).second) continue;
      epoch_writes.push_back(
          Write{word, rng(), static_cast<int>(rng() % kNodes)});
    }
  }
  return plan;
}

RunResult run_workload(std::optional<std::uint64_t> fault_seed) {
  const std::size_t words =
      kDataPages * kPageBytes / sizeof(std::uint64_t);
  const auto plan = make_plan(words);

  DsmConfig config;
  config.pool_bytes = (kDataPages + 2) * kPageBytes;
  // Chaos-friendly retry knobs: short timeouts so dropped messages recover
  // quickly, a deep attempt budget so partitions can ride out their window.
  config.retry.timeout_ms = 50;
  config.retry.max_attempts = 400;

  const Topology topology = Topology::cluster(kNodes);
  auto cluster = fault_seed.has_value()
                     ? std::make_unique<DsmCluster>(
                           topology, config,
                           net::default_chaos_plan(*fault_seed))
                     : std::make_unique<DsmCluster>(topology, config);

  RunResult result;
  cluster->run([&](NodeId rank) {
    DsmNode& node = cluster->node(rank);
    auto* data = static_cast<std::uint64_t*>(
        node.shmalloc(words * sizeof(std::uint64_t), kPageBytes));
    auto* counter = static_cast<std::uint64_t*>(
        node.shmalloc(sizeof(std::uint64_t), kPageBytes));
    node.barrier();

    std::vector<std::uint64_t> golden(words, 0);
    for (const auto& epoch_writes : plan) {
      for (const Write& w : epoch_writes) {
        golden[w.word] = w.value;
        if (w.writer == rank) data[w.word] = w.value;
      }
      // Conventional-SDSM critical sections riding the same interval.
      for (int i = 0; i < kIncrementsPerEpoch; ++i) {
        node.lock_acquire(1);
        *counter = *counter + 1;
        node.lock_release(1);
      }
      node.barrier();
      for (std::size_t i = 0; i < words; ++i) {
        ASSERT_EQ(data[i], golden[i]) << "rank " << rank << " word " << i;
      }
      node.barrier();
    }

    if (rank == 0) {
      result.memory.assign(data, data + words);
      result.memory.push_back(*counter);
    }
  });

  auto& reg = obs::Registry::instance();
  for (NodeId n = 0; n < kNodes; ++n) {
    result.injected += reg.counter(n, "net.fault.injected").value();
    result.dropped += reg.counter(n, "net.fault.dropped").value() +
                      reg.counter(n, "net.fault.partition_dropped").value();
    result.dsm_retries += reg.counter(n, "dsm.retry.count").value();
  }
  cluster->shutdown();
  return result;
}

class ChaosAtSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosAtSeed, FinalMemoryMatchesFaultFreeRun) {
  const RunResult baseline = run_workload(std::nullopt);
  ASSERT_FALSE(baseline.memory.empty());
  // Fault-free runs must be exact: no injector in the stack, no spurious
  // retransmissions (the retry counters are the proof).
  EXPECT_EQ(baseline.injected, 0);
  EXPECT_EQ(baseline.dsm_retries, 0);
  const std::uint64_t expected_count =
      static_cast<std::uint64_t>(kNodes) * kEpochs * kIncrementsPerEpoch;
  EXPECT_EQ(baseline.memory.back(), expected_count);

  const RunResult chaotic = run_workload(GetParam());
  ASSERT_EQ(chaotic.memory.size(), baseline.memory.size());
  EXPECT_EQ(chaotic.memory, baseline.memory)
      << "chaos run diverged from the fault-free run";
  EXPECT_GT(chaotic.injected, 0) << "the fault plan never fired";
  if (chaotic.dropped > 0) {
    EXPECT_GT(chaotic.dsm_retries, 0)
        << "messages were dropped but nothing retried";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosAtSeed,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                           10u, 11u, 12u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// A message-count-keyed partition window between node 0 and node 1 that heals
// mid-run: the retry loops must carry the protocol across the outage (each
// retransmission advances the link counter toward the heal point).
TEST(Chaos, HealingPartitionRecovers) {
  const RunResult baseline = run_workload(std::nullopt);

  const std::size_t words = kDataPages * kPageBytes / sizeof(std::uint64_t);
  const auto plan = make_plan(words);
  DsmConfig config;
  config.pool_bytes = (kDataPages + 2) * kPageBytes;
  config.retry.timeout_ms = 50;
  config.retry.max_attempts = 400;

  net::FaultPlan faults;
  faults.seed = 99;
  faults.partitions.push_back(net::PartitionEvent{0, 1, 30, 90, false});

  DsmCluster cluster(Topology::cluster(kNodes), config, faults);
  std::vector<std::uint64_t> memory;
  cluster.run([&](NodeId rank) {
    DsmNode& node = cluster.node(rank);
    auto* data = static_cast<std::uint64_t*>(
        node.shmalloc(words * sizeof(std::uint64_t), kPageBytes));
    auto* counter = static_cast<std::uint64_t*>(
        node.shmalloc(sizeof(std::uint64_t), kPageBytes));
    node.barrier();
    std::vector<std::uint64_t> golden(words, 0);
    for (const auto& epoch_writes : plan) {
      for (const Write& w : epoch_writes) {
        golden[w.word] = w.value;
        if (w.writer == rank) data[w.word] = w.value;
      }
      for (int i = 0; i < kIncrementsPerEpoch; ++i) {
        node.lock_acquire(1);
        *counter = *counter + 1;
        node.lock_release(1);
      }
      node.barrier();
      for (std::size_t i = 0; i < words; ++i) {
        ASSERT_EQ(data[i], golden[i]) << "rank " << rank << " word " << i;
      }
      node.barrier();
    }
    if (rank == 0) {
      memory.assign(data, data + words);
      memory.push_back(*counter);
    }
  });

  auto& reg = obs::Registry::instance();
  std::int64_t partition_dropped = 0;
  std::int64_t retries = 0;
  for (NodeId n = 0; n < kNodes; ++n) {
    partition_dropped += reg.counter(n, "net.fault.partition_dropped").value();
    retries += reg.counter(n, "dsm.retry.count").value();
  }
  cluster.shutdown();

  EXPECT_EQ(memory, baseline.memory);
  EXPECT_GT(partition_dropped, 0) << "the partition window never engaged";
  EXPECT_GT(retries, 0);
}

// A partition that never heals ends every DSM exchange the same way: the
// one retry loop spends its budget, dumps a dsm.partition flight record, and
// the process dies naming the exchange. Lock 0 is homed on node 0, so rank
// 1's acquire is a pure inbox exchange (no SIGSEGV path).
TEST(ChaosDeathTest, UnhealedPartitionDumpsFlightRecordThenDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // A fixed name: the threadsafe-style child re-runs this body in a fresh
  // process and must arrive at the same path. Under the launcher's
  // per-process naming, rank 1 dumps to <stem>.rank1.json.
  const std::filesystem::path dir = ::testing::TempDir();
  const std::filesystem::path flight = dir / "parade-dsm-partition.rank1.json";
  std::filesystem::remove(flight);

  const auto acquire_across_partition = [&] {
    ::setenv("PARADE_FLIGHT_PATH", (dir / "parade-dsm-partition.json").c_str(),
             1);
    ::setenv("PARADE_RANK", "1", 1);
    DsmConfig config;
    config.pool_bytes = 4 * kPageBytes;
    config.retry = net::RetryPolicy{.timeout_ms = 20, .max_attempts = 3};
    net::FaultPlan faults;
    faults.seed = 5;
    faults.partitions.push_back(
        net::PartitionEvent{0, 1, 0, std::nullopt, false});
    DsmCluster cluster(Topology::cluster(2), config, faults);
    cluster.node(1).lock_acquire(0);
  };
  EXPECT_DEATH(acquire_across_partition(), "lock grant");

  std::ifstream in(flight);
  ASSERT_TRUE(in.good()) << "no flight record at " << flight;
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_NE(body.str().find("flight:dsm.partition"), std::string::npos);
  std::filesystem::remove(flight);
}

}  // namespace
}  // namespace parade::dsm
