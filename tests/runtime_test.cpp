// OpenMP runtime layer: fork-join, worksharing schedules (property: every
// iteration executed exactly once across the cluster), hybrid sync
// constructs, conventional-SDSM constructs, and the omp_* shims. The
// RuntimeChaos cases (ctest runtime_chaos_test, label tier2-chaos) run
// runtime programs under the PARADE_FAULT_* environment.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "runtime/api.hpp"
#include "runtime/cluster.hpp"
#include "runtime/omp_shim.hpp"

namespace parade {
namespace {

RuntimeConfig config_of(int nodes, int threads) {
  RuntimeConfig config;
  config.nodes = nodes;
  config.threads_per_node = threads;
  config.dsm.pool_bytes = 4 << 20;
  return config;
}

struct ClusterShape {
  int nodes;
  int threads;
};

class RuntimeAtShape : public ::testing::TestWithParam<ClusterShape> {};

TEST_P(RuntimeAtShape, IdentityFunctions) {
  const auto [nodes, threads] = GetParam();
  VirtualCluster cluster(config_of(nodes, threads));
  std::mutex mutex;
  std::set<int> seen_global_ids;
  cluster.exec([&] {
    EXPECT_EQ(num_nodes(), nodes);
    EXPECT_EQ(threads_per_node(), threads);
    EXPECT_EQ(num_threads(), nodes * threads);
    EXPECT_EQ(local_thread_id(), 0);  // serial section: main thread
    parallel([&] {
      std::lock_guard lock(mutex);
      seen_global_ids.insert(thread_id());
    });
  });
  cluster.shutdown();
  EXPECT_EQ(seen_global_ids.size(),
            static_cast<std::size_t>(nodes * threads));
  EXPECT_EQ(*seen_global_ids.begin(), 0);
  EXPECT_EQ(*seen_global_ids.rbegin(), nodes * threads - 1);
}

TEST_P(RuntimeAtShape, StaticScheduleCoversExactlyOnce) {
  const auto [nodes, threads] = GetParam();
  constexpr long kN = 1003;  // deliberately not divisible
  VirtualCluster cluster(config_of(nodes, threads));
  std::mutex mutex;
  std::map<long, int> hits;
  cluster.exec([&] {
    parallel([&] {
      parallel_for(0, kN, [&](long lo, long hi) {
        std::lock_guard lock(mutex);
        for (long i = lo; i < hi; ++i) hits[i] += 1;
      });
    });
  });
  cluster.shutdown();
  // One logical loop across the whole cluster: every iteration exactly once.
  ASSERT_EQ(hits.size(), static_cast<std::size_t>(kN));
  for (const auto& [iter, count] : hits) {
    ASSERT_EQ(count, 1) << "iteration " << iter;
  }
}

TEST_P(RuntimeAtShape, ScheduleKindsCoverIterationSpace) {
  const auto [nodes, threads] = GetParam();
  constexpr long kN = 501;
  for (const Schedule schedule :
       {Schedule{ScheduleKind::kStatic, 0}, Schedule{ScheduleKind::kStaticChunk, 7},
        Schedule{ScheduleKind::kDynamic, 5}, Schedule{ScheduleKind::kGuided, 0}}) {
    VirtualCluster cluster(config_of(nodes, threads));
    std::mutex mutex;
    std::vector<int> hits(kN, 0);
    cluster.exec([&] {
      parallel([&] {
        parallel_for(3, 3 + kN, schedule, [&](long lo, long hi) {
          std::lock_guard lock(mutex);
          for (long i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i - 3)] += 1;
        });
      });
    });
    cluster.shutdown();
    for (long i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)], 1)
          << "schedule kind " << static_cast<int>(schedule.kind) << " iter "
          << i;
    }
  }
}

TEST_P(RuntimeAtShape, TeamReduceOps) {
  const auto [nodes, threads] = GetParam();
  const int total = nodes * threads;
  VirtualCluster cluster(config_of(nodes, threads));
  cluster.exec([&] {
    parallel([&] {
      const double sum = team_reduce(static_cast<double>(thread_id() + 1),
                                     mp::Op::kSum);
      EXPECT_DOUBLE_EQ(sum, total * (total + 1) / 2.0);
      const std::int64_t mx =
          team_reduce(static_cast<std::int64_t>(thread_id()), mp::Op::kMax);
      EXPECT_EQ(mx, total - 1);
      const std::int64_t mn =
          team_reduce(static_cast<std::int64_t>(thread_id()), mp::Op::kMin);
      EXPECT_EQ(mn, 0);
    });
  });
  cluster.shutdown();
}

TEST_P(RuntimeAtShape, RepeatedReductionsStaySynchronized) {
  const auto [nodes, threads] = GetParam();
  VirtualCluster cluster(config_of(nodes, threads));
  cluster.exec([&] {
    double acc_replica = 0.0;
    parallel([&] {
      for (int round = 0; round < 10; ++round) {
        team_update(&acc_replica, 1.0, mp::Op::kSum);
      }
    });
    EXPECT_DOUBLE_EQ(acc_replica, 10.0 * nodes * threads);
  });
  cluster.shutdown();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RuntimeAtShape,
    ::testing::Values(ClusterShape{1, 1}, ClusterShape{1, 3},
                      ClusterShape{2, 1}, ClusterShape{2, 2},
                      ClusterShape{3, 2}, ClusterShape{4, 2}),
    [](const auto& info) {
      return std::to_string(info.param.nodes) + "n" +
             std::to_string(info.param.threads) + "t";
    });

TEST(Runtime, NestedParallelSerializes) {
  VirtualCluster cluster(config_of(2, 2));
  std::atomic<int> inner_runs{0};
  cluster.exec([&] {
    parallel([&] {
      parallel([&] { inner_runs.fetch_add(1); });  // must run inline
    });
  });
  cluster.shutdown();
  EXPECT_EQ(inner_runs.load(), 4);  // once per outer team thread
}

TEST(Runtime, SinglePerEncounterInstance) {
  VirtualCluster cluster(config_of(2, 2));
  std::atomic<int> runs{0};
  cluster.exec([&] {
    double v = 0.0;
    parallel([&] {
      for (int i = 0; i < 5; ++i) {
        single_small(&v, sizeof(v), [&] {
          runs.fetch_add(1);
          v = i * 2.0;
        });
        EXPECT_DOUBLE_EQ(v, i * 2.0);
        // Reading v races with the *next* single's executor otherwise (true
        // under OpenMP semantics as well).
        barrier();
      }
    });
  });
  cluster.shutdown();
  EXPECT_EQ(runs.load(), 5);  // once per dynamic encounter, globally
}

TEST(Runtime, SingleAcrossConsecutiveRegions) {
  VirtualCluster cluster(config_of(2, 2));
  std::atomic<int> runs{0};
  cluster.exec([&] {
    double v = 0.0;
    for (int region = 0; region < 3; ++region) {
      parallel([&] {
        single_small(&v, sizeof(v), [&] {
          runs.fetch_add(1);
          v = 42.0;
        });
      });
    }
  });
  cluster.shutdown();
  EXPECT_EQ(runs.load(), 3);
}

TEST(Runtime, CriticalConventionalCountsCorrectly) {
  VirtualCluster cluster(config_of(2, 2));
  cluster.exec([&] {
    auto* counter = shmalloc_array<std::int64_t>(1);
    if (node_id() == 0) *counter = 0;
    barrier();
    parallel([&] {
      for (int i = 0; i < 5; ++i) {
        critical_conventional(1, [&] { *counter = *counter + 1; });
      }
    });
    EXPECT_EQ(*counter, 5 * num_threads());
  });
  cluster.shutdown();
}

// A store by one thread into a page that another thread of its node is
// flushing (at a conventional critical section's release) must reach the
// home. Thread 0 of each node bumps a lock-protected counter on page P;
// thread 1 stores the round number into its own word on P right after
// thread 0 signals the end of its critical section, after a varying delay,
// so the store lands at varying points of the release's flush. The flush
// downgrades P before it diffs it, so the store is either in the diff or
// faults and re-dirties P for the barrier's flush; it is never lost.
TEST(Runtime, StoreDuringReleaseFlushReachesHome) {
  constexpr int kRounds = 200;
  constexpr int kMaxDelayUs = 24;
  VirtualCluster cluster(config_of(2, 2));
  std::atomic<int> lost{0};
  std::atomic<int> first_lost_round{0};
  cluster.exec([&] {
    // [0] the counter, [1 + node] that node's thread-1 word: all on P.
    auto* cells = shmalloc_array<std::int64_t>(1 + num_nodes());
    std::atomic<int> released{0};  // this node's last signalled round
    barrier();
    parallel([&] {
      std::mt19937 rng(static_cast<unsigned>(17 + thread_id()));
      for (int round = 1; round <= kRounds; ++round) {
        if (local_thread_id() == 0) {
          critical_conventional(0, [&] {
            cells[0] = cells[0] + 1;
            released.store(round, std::memory_order_release);
          });
        } else {
          while (released.load(std::memory_order_acquire) < round) {
            std::this_thread::yield();
          }
          const auto until =
              std::chrono::steady_clock::now() +
              std::chrono::microseconds(rng() % (kMaxDelayUs + 1));
          while (std::chrono::steady_clock::now() < until) {
          }
          *static_cast<volatile std::int64_t*>(&cells[1 + node_id()]) = round;
        }
        barrier();
        if (local_thread_id() == 0) {
          for (int n = 0; n < num_nodes(); ++n) {
            if (cells[1 + n] != round && lost.fetch_add(1) == 0) {
              first_lost_round.store(round);
            }
          }
        }
        barrier();
      }
    });
    EXPECT_EQ(cells[0], static_cast<std::int64_t>(kRounds) * num_nodes());
  });
  cluster.shutdown();
  EXPECT_EQ(lost.load(), 0) << "first lost store in round "
                            << first_lost_round.load();
}

TEST(Runtime, SingleConventionalExecutesOncePerGeneration) {
  VirtualCluster cluster(config_of(2, 2));
  std::atomic<int> runs{0};
  cluster.exec([&] {
    auto* flag = shmalloc_array<std::int64_t>(1);
    if (node_id() == 0) *flag = 0;
    barrier();
    parallel([&] {
      for (int gen = 1; gen <= 4; ++gen) {
        single_conventional(2, flag, gen, [&] { runs.fetch_add(1); });
      }
    });
  });
  cluster.shutdown();
  EXPECT_EQ(runs.load(), 4);
}

TEST(Runtime, MasterOnlyOnGlobalMaster) {
  VirtualCluster cluster(config_of(2, 2));
  std::atomic<int> master_runs{0};
  cluster.exec([&] {
    parallel([&] {
      if (is_master()) master_runs.fetch_add(1);
    });
  });
  cluster.shutdown();
  EXPECT_EQ(master_runs.load(), 1);
}

TEST(Runtime, VirtualTimeMonotoneThroughBarriers) {
  VirtualCluster cluster(config_of(2, 2));
  cluster.exec([&] {
    const VirtualUs t0 = vtime_now();
    barrier();
    const VirtualUs t1 = vtime_now();
    EXPECT_GE(t1, t0);
    parallel([&] {
      const VirtualUs a = vtime_now();
      barrier();
      const VirtualUs b = vtime_now();
      EXPECT_GE(b, a);
    });
  });
  cluster.shutdown();
}

TEST(Runtime, OmpShims) {
  VirtualCluster cluster(config_of(2, 3));
  cluster.exec([&] {
    EXPECT_EQ(ompshim::omp_get_num_threads(), 6);
    EXPECT_EQ(ompshim::omp_in_parallel(), 0);
    parallel([&] {
      EXPECT_EQ(ompshim::omp_in_parallel(), 1);
      EXPECT_GE(ompshim::omp_get_thread_num(), 0);
      EXPECT_LT(ompshim::omp_get_thread_num(), 6);
    });
    EXPECT_GE(ompshim::omp_get_wtime(), 0.0);
  });
  cluster.shutdown();
}

TEST(Runtime, StaticSliceIsPartition) {
  VirtualCluster cluster(config_of(3, 2));
  std::mutex mutex;
  std::vector<std::pair<long, long>> slices;
  cluster.exec([&] {
    parallel([&] {
      long lo, hi;
      static_slice(10, 110, &lo, &hi);
      std::lock_guard lock(mutex);
      slices.emplace_back(lo, hi);
    });
  });
  cluster.shutdown();
  std::sort(slices.begin(), slices.end());
  ASSERT_EQ(slices.size(), 6u);
  EXPECT_EQ(slices.front().first, 10);
  EXPECT_EQ(slices.back().second, 110);
  for (std::size_t i = 1; i < slices.size(); ++i) {
    EXPECT_EQ(slices[i].first, slices[i - 1].second);  // contiguous
  }
}

TEST(Runtime, ProcessModeConfigFromEnv) {
  setenv("PARADE_NODES", "5", 1);
  setenv("PARADE_THREADS", "3", 1);
  setenv("PARADE_SYNC_MODE", "conventional", 1);
  setenv("PARADE_HOME_MIGRATION", "0", 1);
  const RuntimeConfig config = runtime_config_from_env();
  EXPECT_EQ(config.nodes, 5);
  EXPECT_EQ(config.threads_per_node, 3);
  EXPECT_EQ(config.dsm.sync_mode, dsm::SyncMode::kConventional);
  EXPECT_FALSE(config.dsm.home_migration);
  unsetenv("PARADE_NODES");
  unsetenv("PARADE_THREADS");
  unsetenv("PARADE_SYNC_MODE");
  unsetenv("PARADE_HOME_MIGRATION");
}

struct FaultEnvResult {
  std::vector<std::vector<std::uint64_t>> memory;  ///< per node: a then b
  std::int64_t injected = 0;    ///< sum of net.fault.injected
  std::int64_t violations = 0;  ///< sum of dsm.invariant.violations
};

/// A DSM-only runtime program on a 2x2 VirtualCluster built while
/// PARADE_FAULT_SEED is `fault_seed` (unset when null): each round every
/// thread rewrites its static slice of `a`, then folds the opposite node's
/// slice of `a` into `b`, so each round fetches remote pages and sends diffs
/// home. Parallel loops and runtime barriers only, no MP traffic. Afterwards
/// every node reads the whole pool.
FaultEnvResult run_fault_env_program(const char* fault_seed) {
  constexpr long kWords = 8 * 4096 / sizeof(std::uint64_t);
  constexpr int kRounds = 6;
  constexpr int kNodes = 2;
  RuntimeConfig config = config_of(kNodes, 2);
  config.dsm.retry.timeout_ms = 50;
  config.dsm.retry.max_attempts = 400;
  if (fault_seed != nullptr) setenv("PARADE_FAULT_SEED", fault_seed, 1);
  VirtualCluster cluster(config);
  unsetenv("PARADE_FAULT_SEED");

  FaultEnvResult result;
  result.memory.resize(kNodes);
  cluster.exec([&] {
    auto* a = shmalloc_array<std::uint64_t>(kWords);
    auto* b = shmalloc_array<std::uint64_t>(kWords);
    for (int round = 0; round < kRounds; ++round) {
      parallel_for(0, kWords, [&](long lo, long hi) {
        for (long i = lo; i < hi; ++i) {
          a[i] = a[i] * 3 + static_cast<std::uint64_t>(i + round);
        }
      });
      parallel_for(0, kWords, [&](long lo, long hi) {
        for (long i = lo; i < hi; ++i) b[i] += a[(i + kWords / 2) % kWords];
      });
    }
    auto& memory = result.memory[static_cast<std::size_t>(node_id())];
    memory.assign(a, a + kWords);
    memory.insert(memory.end(), b, b + kWords);
  });
  auto& reg = obs::Registry::instance();
  for (NodeId n = 0; n < kNodes; ++n) {
    result.injected += reg.counter(n, "net.fault.injected").value();
    result.violations += reg.counter(n, "dsm.invariant.violations").value();
  }
  cluster.shutdown();
  return result;
}

// VirtualCluster reads the fault plan from the environment through
// DsmCluster: seed 7's default chaos mix must fire, and the program must
// still end with the fault-free pool on every node, with no invariant
// violation (checked online in a -DPARADE_CHECKED=ON build).
TEST(RuntimeChaos, VirtualClusterHonoursFaultEnv) {
  const FaultEnvResult clean = run_fault_env_program(nullptr);
  ASSERT_EQ(clean.injected, 0);
  const FaultEnvResult chaotic = run_fault_env_program("7");
  EXPECT_GT(chaotic.injected, 0) << "the fault plan never fired";
  EXPECT_EQ(chaotic.violations, 0);
  for (std::size_t n = 0; n < chaotic.memory.size(); ++n) {
    EXPECT_EQ(clean.memory[n], clean.memory[0]) << "node " << n;
    EXPECT_EQ(chaotic.memory[n], clean.memory[0]) << "node " << n;
  }
}

struct MpChaosResult {
  std::vector<std::vector<std::int64_t>> values;  ///< per node, in order
  std::int64_t duplicated = 0;  ///< sum of net.fault.duplicated
  std::int64_t reordered = 0;   ///< sum of net.fault.reordered
  std::int64_t violations = 0;  ///< sum of dsm.invariant.violations
};

/// MP traffic on a 2x2 VirtualCluster built while PARADE_FAULT_SEED and
/// PARADE_FAULT_PLAN are `fault_seed` and `fault_plan` (unset when null):
/// each round runs team_update, team_reduce and single_small in a parallel
/// region, then a user send/recv ring that reuses one tag every round, so a
/// duplicate or held-back frame would hand a round another round's value.
MpChaosResult run_mp_program(const char* fault_seed, const char* fault_plan) {
  constexpr int kRounds = 12;
  constexpr int kNodes = 2;
  constexpr Tag kRingTag = 9;
  RuntimeConfig config = config_of(kNodes, 2);
  config.dsm.retry.timeout_ms = 50;
  config.dsm.retry.max_attempts = 400;
  if (fault_seed != nullptr) setenv("PARADE_FAULT_SEED", fault_seed, 1);
  if (fault_plan != nullptr) setenv("PARADE_FAULT_PLAN", fault_plan, 1);
  VirtualCluster cluster(config);
  unsetenv("PARADE_FAULT_SEED");
  unsetenv("PARADE_FAULT_PLAN");

  MpChaosResult result;
  result.values.resize(kNodes);
  cluster.exec([&] {
    auto& out = result.values[static_cast<std::size_t>(node_id())];
    for (int round = 0; round < kRounds; ++round) {
      std::int64_t total = 0;
      std::int64_t highest = 0;
      std::int64_t token = -1;
      parallel([&] {
        team_update<std::int64_t>(&total, thread_id() + round, mp::Op::kSum);
        const std::int64_t high =
            team_reduce<std::int64_t>(10 * thread_id() + round, mp::Op::kMax);
        if (local_thread_id() == 0) highest = high;
        single_small(&token, sizeof(token), [&] { token = 100 + round; });
      });
      mp::Comm& comm = this_node().comm();
      const NodeId next = (node_id() + 1) % num_nodes();
      const NodeId prev = (node_id() + num_nodes() - 1) % num_nodes();
      const std::int64_t mine = 1000 * round + node_id();
      std::int64_t got = -1;
      EXPECT_TRUE(comm.send(next, kRingTag, &mine, sizeof(mine)).is_ok());
      EXPECT_TRUE(comm.recv(prev, kRingTag, &got, sizeof(got)).is_ok());
      out.insert(out.end(), {total, highest, token, got});
    }
  });
  auto& reg = obs::Registry::instance();
  for (NodeId n = 0; n < kNodes; ++n) {
    result.duplicated += reg.counter(n, "net.fault.duplicated").value();
    result.reordered += reg.counter(n, "net.fault.reordered").value();
    result.violations += reg.counter(n, "dsm.invariant.violations").value();
  }
  cluster.shutdown();
  return result;
}

// The runtime's collectives and user point-to-point run over the acked,
// deduplicating wire engine: duplicated, held-back and delayed frames must
// leave every value equal to the fault-free run's.
TEST(RuntimeChaos, MpSurvivesDupReorderDelay) {
  const MpChaosResult clean = run_mp_program(nullptr, nullptr);
  const MpChaosResult chaotic = run_mp_program(
      "7", "dup=0.05,reorder=0.05,delay=0.1,delay_us=200");
  EXPECT_GT(chaotic.duplicated, 0) << "no frame was duplicated";
  EXPECT_GT(chaotic.reordered, 0) << "no frame was held back";
  EXPECT_EQ(chaotic.violations, 0);
  ASSERT_EQ(clean.values.size(), chaotic.values.size());
  for (std::size_t n = 0; n < clean.values.size(); ++n) {
    EXPECT_EQ(chaotic.values[n], clean.values[n]) << "node " << n;
  }
  // Spot-check the fault-free values themselves (round 0, node 0).
  ASSERT_GE(clean.values[0].size(), 4u);
  EXPECT_EQ(clean.values[0][0], 0 + 1 + 2 + 3);  // team_update
  EXPECT_EQ(clean.values[0][1], 30);             // team_reduce
  EXPECT_EQ(clean.values[0][2], 100);            // single_small
  EXPECT_EQ(clean.values[0][3], 1);              // ring: node 1's token
}

}  // namespace
}  // namespace parade
