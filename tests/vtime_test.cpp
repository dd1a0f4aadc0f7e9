#include <gtest/gtest.h>

#include "vtime/clock.hpp"
#include "vtime/cost_model.hpp"

namespace parade::vtime {
namespace {

TEST(CostModel, TransferScalesWithBytes) {
  const NetworkModel m = clan_via();
  EXPECT_DOUBLE_EQ(m.transfer_us(0), m.latency_us);
  EXPECT_GT(m.transfer_us(4096), m.transfer_us(64));
  EXPECT_DOUBLE_EQ(m.round_trip_us(8, 8),
                   2 * m.latency_us + 16 * m.us_per_byte);
}

TEST(CostModel, PresetsAreOrdered) {
  // Fast Ethernet is strictly slower than cLAN VIA; ideal is free.
  EXPECT_GT(fast_ethernet().latency_us, clan_via().latency_us);
  EXPECT_GT(fast_ethernet().us_per_byte, clan_via().us_per_byte);
  EXPECT_DOUBLE_EQ(ideal().transfer_us(1 << 20), 0.0);
}

TEST(CostModel, NameLookup) {
  EXPECT_DOUBLE_EQ(model_from_name("fastether").latency_us,
                   fast_ethernet().latency_us);
  EXPECT_DOUBLE_EQ(model_from_name("ideal").latency_us, 0.0);
  EXPECT_DOUBLE_EQ(model_from_name("anything-else").latency_us,
                   clan_via().latency_us);
}

TEST(MachineModel, PaperConfigurations) {
  const MachineModel c1 = machine_for(NodeConfig::k1Thread1Cpu);
  EXPECT_EQ(c1.compute_threads, 1);
  EXPECT_EQ(c1.cpus_per_node, 1);
  EXPECT_FALSE(c1.comm_thread_dedicated());

  const MachineModel c2 = machine_for(NodeConfig::k1Thread2Cpu);
  EXPECT_TRUE(c2.comm_thread_dedicated());

  const MachineModel c3 = machine_for(NodeConfig::k2Thread2Cpu);
  EXPECT_EQ(c3.compute_threads, 2);
  EXPECT_FALSE(c3.comm_thread_dedicated());
}

TEST(ThreadClock, AddAndMerge) {
  ThreadClock clock;
  clock.add(10.0);
  EXPECT_DOUBLE_EQ(clock.now(), 10.0);
  clock.merge(5.0);  // older timestamp: no effect
  EXPECT_DOUBLE_EQ(clock.now(), 10.0);
  clock.merge(25.0);
  EXPECT_DOUBLE_EQ(clock.now(), 25.0);
  clock.reset(3.0);
  EXPECT_DOUBLE_EQ(clock.now(), 3.0);
}

TEST(ThreadClock, SyncCpuAdvances) {
  ThreadClock clock(/*cpu_scale=*/1.0);
  // Burn some CPU.
  volatile double sink = 0;
  for (int i = 0; i < 2000000; ++i) sink = sink + i * 0.5;
  clock.sync_cpu();
  EXPECT_GT(clock.now(), 0.0);
}

TEST(ThreadClock, ScaleMultipliesCpuTime) {
  ThreadClock slow(50.0);
  ThreadClock fast(1.0);
  volatile double sink = 0;
  fast.sync_cpu();
  slow.sync_cpu();
  for (int i = 0; i < 3000000; ++i) sink = sink + i;
  // Lap both over (approximately) the same work.
  fast.sync_cpu();
  const double fast_t = fast.now();
  slow.sync_cpu();
  const double slow_t = slow.now();
  EXPECT_GT(slow_t, fast_t * 5.0);  // very loose: scales differ by 50x
}

TEST(ThreadClock, DiscardCpuDropsWork) {
  ThreadClock clock(1.0);
  volatile double sink = 0;
  for (int i = 0; i < 2000000; ++i) sink = sink + i;
  clock.discard_cpu();
  const double before = clock.now();
  clock.sync_cpu();  // almost no CPU since discard
  EXPECT_LT(clock.now() - before, 1000.0);  // < 1ms of CPU
}

TEST(CommLedger, PhaseDrain) {
  CommLedger ledger;
  ledger.charge(5.0);
  ledger.charge(7.0);
  EXPECT_DOUBLE_EQ(ledger.total(), 12.0);
  EXPECT_DOUBLE_EQ(ledger.drain_phase(), 12.0);
  EXPECT_DOUBLE_EQ(ledger.drain_phase(), 0.0);  // cleared
  ledger.charge(1.0);
  EXPECT_DOUBLE_EQ(ledger.drain_phase(), 1.0);
  EXPECT_DOUBLE_EQ(ledger.total(), 13.0);  // total keeps accumulating
}

TEST(ThreadClockBinding, BindUnbind) {
  EXPECT_EQ(thread_clock(), nullptr);
  ThreadClock clock;
  bind_thread_clock(&clock);
  EXPECT_EQ(thread_clock(), &clock);
  bind_thread_clock(nullptr);
  EXPECT_EQ(thread_clock(), nullptr);
}

}  // namespace
}  // namespace parade::vtime
