// MP wire engine under deterministic fault injection: every Comm operation
// must deliver exactly-once in-order results across drops / duplicates /
// reorders, ride out a partition that heals, and degrade to a clean
// kUnavailable Status — never a hang — when the partition does not heal.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "mp/comm.hpp"
#include "net/fault.hpp"
#include "net/faulty.hpp"
#include "obs/registry.hpp"

namespace parade::mp {
namespace {

net::RetryPolicy chaos_retry() {
  net::RetryPolicy retry;
  retry.timeout_ms = 30;
  retry.max_attempts = 200;
  return retry;
}

/// Runs `body(rank, comm)` on one thread per rank over a FaultyFabric.
void run_ranks(int n, const net::FaultPlan& plan, net::RetryPolicy retry,
               const std::function<void(NodeId, Comm&)>& body) {
  auto& reg = obs::Registry::instance();
  for (NodeId r = 0; r < n; ++r) reg.reset_node(r);

  net::FaultyFabric fabric(n, plan);
  std::vector<std::unique_ptr<Comm>> comms;
  for (NodeId r = 0; r < n; ++r) {
    comms.push_back(std::make_unique<Comm>(
        Topology::flat(r, n), fabric.channel(r), vtime::NetworkModel{}, retry));
  }
  std::vector<std::thread> threads;
  for (NodeId r = 0; r < n; ++r) {
    threads.emplace_back([&, r] {
      body(r, *comms[r]);
      // Linger: keep answering retransmissions from ranks whose final acks
      // were faulted away (see Comm::quiesce).
      comms[r]->quiesce();
    });
  }
  for (auto& t : threads) t.join();
  fabric.shutdown();
}

std::int64_t total_mp_retries(int n) {
  auto& reg = obs::Registry::instance();
  std::int64_t total = 0;
  for (NodeId r = 0; r < n; ++r) {
    total += reg.counter(r, "mp.retry.count").value();
  }
  return total;
}

TEST(MpFault, P2pDeliversInOrderAcrossDropsAndDups) {
  net::FaultPlan plan;
  plan.seed = 7;
  plan.drop_p = 0.08;
  plan.dup_p = 0.10;
  plan.reorder_p = 0.05;
  constexpr int kMessages = 24;

  run_ranks(2, plan, chaos_retry(), [&](NodeId rank, Comm& comm) {
    if (rank == 0) {
      for (std::uint32_t i = 0; i < kMessages; ++i) {
        ASSERT_TRUE(comm.send(1, /*tag=*/7, &i, sizeof(i)).is_ok());
      }
    } else {
      for (std::uint32_t i = 0; i < kMessages; ++i) {
        std::uint32_t got = ~0u;
        RecvStatus status;
        ASSERT_TRUE(
            comm.recv(0, /*tag=*/7, &got, sizeof(got), &status).is_ok());
        EXPECT_EQ(got, i) << "duplicate or reordered delivery leaked through";
        EXPECT_EQ(status.source, 0);
        EXPECT_EQ(status.bytes, sizeof(got));
      }
    }
  });
  EXPECT_GT(total_mp_retries(2), 0) << "drops never triggered a retransmit";
}

TEST(MpFault, CollectivesSurviveChaos) {
  net::FaultPlan plan;
  plan.seed = 11;
  plan.drop_p = 0.05;
  plan.dup_p = 0.08;
  plan.reorder_p = 0.05;
  constexpr int kNodes = 3;
  constexpr int kRounds = 6;

  run_ranks(kNodes, plan, chaos_retry(), [&](NodeId rank, Comm& comm) {
    for (int round = 0; round < kRounds; ++round) {
      std::int64_t value = rank == 0 ? 1000 + round : -1;
      ASSERT_TRUE(comm.bcast(&value, sizeof(value), /*root=*/0).is_ok());
      EXPECT_EQ(value, 1000 + round);

      std::int64_t sum = rank + 1;
      ASSERT_TRUE(comm.allreduce(&sum, 1, DType::kInt64, Op::kSum).is_ok());
      EXPECT_EQ(sum, kNodes * (kNodes + 1) / 2);

      std::int64_t to_root = (rank + 1) * (round + 1);
      ASSERT_TRUE(comm.reduce(&to_root, 1, DType::kInt64, Op::kSum,
                              /*root=*/round % kNodes)
                      .is_ok());
      if (rank == round % kNodes) {
        EXPECT_EQ(to_root, (round + 1) * kNodes * (kNodes + 1) / 2);
      }

      std::int64_t high = 10 * rank + round;
      ASSERT_TRUE(comm.allreduce_user(
                          &high, sizeof(high),
                          [](void* inout, const void* in, std::size_t) {
                            auto* a = static_cast<std::int64_t*>(inout);
                            *a = std::max(
                                *a, *static_cast<const std::int64_t*>(in));
                          })
                      .is_ok());
      EXPECT_EQ(high, 10 * (kNodes - 1) + round);

      const std::int64_t mine = 100 * round + rank;
      std::vector<std::int64_t> all(kNodes, -1);
      ASSERT_TRUE(comm.gather(&mine, sizeof(mine),
                              rank == 0 ? all.data() : nullptr, /*root=*/0)
                      .is_ok());
      if (rank == 0) {
        for (NodeId r = 0; r < kNodes; ++r) EXPECT_EQ(all[r], 100 * round + r);
      }
      std::vector<std::int64_t> everywhere(kNodes, -1);
      ASSERT_TRUE(
          comm.allgather(&mine, sizeof(mine), everywhere.data()).is_ok());
      for (NodeId r = 0; r < kNodes; ++r) {
        EXPECT_EQ(everywhere[r], 100 * round + r);
      }

      ASSERT_TRUE(comm.barrier().is_ok());
    }
  });
  EXPECT_GT(total_mp_retries(kNodes), 0);
}

TEST(MpFault, PartitionThenHealRecovers) {
  net::FaultPlan plan;
  plan.seed = 13;
  // Link-count-keyed outage: messages 4..40 on each 0<->1 link vanish; the
  // retransmissions themselves advance the counter past the heal point.
  plan.partitions.push_back(net::PartitionEvent{0, 1, 4, 40, false});
  constexpr int kMessages = 8;

  run_ranks(2, plan, chaos_retry(), [&](NodeId rank, Comm& comm) {
    if (rank == 0) {
      for (std::uint32_t i = 0; i < kMessages; ++i) {
        ASSERT_TRUE(comm.send(1, /*tag=*/3, &i, sizeof(i)).is_ok());
      }
    } else {
      for (std::uint32_t i = 0; i < kMessages; ++i) {
        std::uint32_t got = ~0u;
        ASSERT_TRUE(comm.recv(0, /*tag=*/3, &got, sizeof(got)).is_ok());
        EXPECT_EQ(got, i);
      }
    }
  });
  EXPECT_GT(total_mp_retries(2), 0) << "partition never engaged";
}

TEST(MpFault, BcastAcrossHealingPartition) {
  net::FaultPlan plan;
  plan.seed = 17;
  plan.dup_p = 0.10;
  plan.partitions.push_back(net::PartitionEvent{0, 1, 2, 30, false});
  constexpr int kNodes = 3;

  run_ranks(kNodes, plan, chaos_retry(), [&](NodeId rank, Comm& comm) {
    for (int round = 0; round < 4; ++round) {
      std::int64_t value = rank == 0 ? 77 + round : -1;
      ASSERT_TRUE(comm.bcast(&value, sizeof(value), /*root=*/0).is_ok());
      EXPECT_EQ(value, 77 + round);
    }
  });
}

TEST(MpFault, UnhealedPartitionReturnsStatusInsteadOfHanging) {
  net::FaultPlan plan;
  plan.seed = 19;
  plan.partitions.push_back(
      net::PartitionEvent{0, 1, 0, std::nullopt, false});  // never heals

  net::RetryPolicy retry;
  retry.timeout_ms = 20;
  // Fail fast: the point is the Status, not retry depth.
  retry.max_attempts = 5;

  run_ranks(2, plan, retry, [&](NodeId rank, Comm& comm) {
    if (rank == 0) {
      const std::uint32_t v = 42;
      const Status s = comm.send(1, /*tag=*/5, &v, sizeof(v));
      ASSERT_FALSE(s.is_ok());
      EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
    } else {
      std::uint32_t got = 0;
      const Status s = comm.recv(0, /*tag=*/5, &got, sizeof(got));
      ASSERT_FALSE(s.is_ok());
      EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
    }
    // A collective across the dead link must degrade the same way.
    const Status barrier_status = comm.barrier();
    ASSERT_FALSE(barrier_status.is_ok());
    EXPECT_EQ(barrier_status.code(), ErrorCode::kUnavailable);
  });
}

TEST(MpFault, InertPlanIsPassThrough) {
  // With no faults configured the reliable path must neither retry nor
  // perturb payloads.
  net::FaultPlan inert;  // inactive
  run_ranks(2, inert, chaos_retry(), [&](NodeId rank, Comm& comm) {
    if (rank == 0) {
      const std::uint64_t v = 0xdeadbeefcafef00dull;
      ASSERT_TRUE(comm.send(1, /*tag=*/1, &v, sizeof(v)).is_ok());
    } else {
      std::uint64_t got = 0;
      ASSERT_TRUE(comm.recv(0, /*tag=*/1, &got, sizeof(got)).is_ok());
      EXPECT_EQ(got, 0xdeadbeefcafef00dull);
    }
    ASSERT_TRUE(comm.barrier().is_ok());
  });
  EXPECT_EQ(total_mp_retries(2), 0);
}

}  // namespace
}  // namespace parade::mp
