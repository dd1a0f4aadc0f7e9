// Static protocol priors end to end: the hints-sidecar loader (schema
// validation, symbol filtering), the PARADE_HINTS file path, page-table
// seeding at start() (prior_seeded_pages counter, per-page queries), and the
// barrier-time behaviour change — a non-migration-friendly prior pins a
// page's home where the default policy would migrate it to the sole writer.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "dsm/cluster.hpp"
#include "dsm/priors.hpp"
#include "net/fault.hpp"
#include "obs/registry.hpp"

namespace parade::dsm {
namespace {

const char* kSidecar =
    "{\"version\":2,\"page_bytes\":4096,\"threshold_bytes\":256,"
    "\"symbols\":["
    "{\"name\":\"grid\",\"bytes\":8192,\"dsm\":true,\"offset_known\":true,"
    "\"pool_offset\":0,\"prefer_update\":false,\"migration_friendly\":false,"
    "\"expected_page_touches\":2},"
    "{\"name\":\"acc\",\"bytes\":8,\"dsm\":true,\"offset_known\":true,"
    "\"pool_offset\":8192,\"prefer_update\":true,\"migration_friendly\":true,"
    "\"expected_page_touches\":1},"
    "{\"name\":\"replicated\",\"bytes\":8,\"dsm\":false,"
    "\"offset_known\":false,\"pool_offset\":0,\"prefer_update\":true,"
    "\"migration_friendly\":true,\"expected_page_touches\":1}"
    "]}";

TEST(PriorsParse, FiltersToDsmSymbolsWithKnownOffsets) {
  auto priors = parse_page_priors(kSidecar);
  ASSERT_TRUE(priors.is_ok()) << priors.status().to_string();
  ASSERT_EQ(priors.value().size(), 2u);  // "replicated" carries no range
  const PagePrior& grid = priors.value()[0];
  EXPECT_EQ(grid.offset, 0u);
  EXPECT_EQ(grid.bytes, 8192u);
  EXPECT_FALSE(grid.migration_friendly);
  EXPECT_FALSE(grid.prefer_update);
  EXPECT_EQ(grid.expected_touches, 2u);
  const PagePrior& acc = priors.value()[1];
  EXPECT_EQ(acc.offset, 8192u);
  EXPECT_TRUE(acc.prefer_update);
  EXPECT_TRUE(acc.migration_friendly);
}

TEST(PriorsParse, RejectsMalformedAndWrongVersion) {
  EXPECT_FALSE(parse_page_priors("{not json").is_ok());
  EXPECT_FALSE(parse_page_priors("{\"version\":3,\"symbols\":[]}").is_ok());
  // Only v2 is read: the translator never writes v1.
  EXPECT_FALSE(parse_page_priors("{\"version\":1,\"symbols\":[]}").is_ok());
  EXPECT_FALSE(parse_page_priors("[1,2,3]").is_ok());
  // Empty symbol list is a valid empty result, not an error.
  auto empty = parse_page_priors("{\"version\":2,\"symbols\":[]}");
  ASSERT_TRUE(empty.is_ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(PriorsParse, LoadsFromFileIntoConfig) {
  const std::string path = ::testing::TempDir() + "parade_priors_test.json";
  {
    std::ofstream out(path);
    out << kSidecar;
  }
  DsmConfig config;
  ASSERT_TRUE(load_page_priors(path, &config).is_ok());
  EXPECT_EQ(config.page_priors.size(), 2u);
  std::remove(path.c_str());

  DsmConfig untouched;
  EXPECT_FALSE(load_page_priors("/nonexistent/hints.json", &untouched).is_ok());
  EXPECT_TRUE(untouched.page_priors.empty());
}

TEST(PriorsSeed, PagesMarkedAndCounted) {
  DsmConfig config;
  config.pool_bytes = 4 << 20;
  // Pages 0-1 pinned, page 2 update-biased, the rest untouched.
  config.page_priors.push_back(
      PagePrior{0, 2 * 4096, false, /*migration_friendly=*/false, 2});
  config.page_priors.push_back(
      PagePrior{2 * 4096, 8, /*prefer_update=*/true, true, 1});
  DsmCluster cluster(Topology::cluster(2), config);
  cluster.run([&](NodeId rank) {
    DsmNode& node = cluster.node(rank);
    EXPECT_FALSE(node.prior_allows_migration(0));
    EXPECT_FALSE(node.prior_allows_migration(1));
    EXPECT_TRUE(node.prior_allows_migration(2));
    EXPECT_FALSE(node.prior_prefers_update(0));
    EXPECT_TRUE(node.prior_prefers_update(2));
    EXPECT_TRUE(node.prior_allows_migration(3));
    EXPECT_EQ(node.stats().snapshot().prior_seeded_pages, 3);
    cluster.node(rank).barrier();
  });
  cluster.shutdown();
}

TEST(PriorsSeed, NoPriorsChangesNothing) {
  DsmConfig config;
  config.pool_bytes = 4 << 20;
  DsmCluster cluster(Topology::cluster(2), config);
  cluster.run([&](NodeId rank) {
    DsmNode& node = cluster.node(rank);
    EXPECT_TRUE(node.prior_allows_migration(0));
    EXPECT_FALSE(node.prior_prefers_update(0));
    EXPECT_EQ(node.stats().snapshot().prior_seeded_pages, 0);
    cluster.node(rank).barrier();
  });
  cluster.shutdown();
}

TEST(PriorsMigration, PinnedPageKeepsHomeSoleWriterWouldTake) {
  // Baseline (no prior): node 1 is the sole modifier, so the §5.2.2 rule
  // migrates the page's home to node 1 at the barrier.
  {
    DsmConfig config;
    config.pool_bytes = 4 << 20;
    DsmCluster cluster(Topology::cluster(2), config);
    cluster.run([&](NodeId rank) {
      auto* data = static_cast<int*>(cluster.node(rank).shmalloc(4096, 4096));
      const PageId page =
          static_cast<PageId>(cluster.node(rank).offset_of(data) / 4096);
      cluster.node(rank).barrier();
      if (rank == 1) *data = 7;
      cluster.node(rank).barrier();
      EXPECT_EQ(cluster.node(rank).home_of(page), 1);
      EXPECT_EQ(*data, 7);
      cluster.node(rank).barrier();
    });
    cluster.shutdown();
  }
  // Same traffic with a non-migration-friendly prior covering the page: the
  // home stays pinned at node 0 and no migration is counted.
  {
    DsmConfig config;
    config.pool_bytes = 4 << 20;
    config.page_priors.push_back(
        PagePrior{0, 4096, false, /*migration_friendly=*/false, 1});
    DsmCluster cluster(Topology::cluster(2), config);
    cluster.run([&](NodeId rank) {
      auto* data = static_cast<int*>(cluster.node(rank).shmalloc(4096, 4096));
      const PageId page =
          static_cast<PageId>(cluster.node(rank).offset_of(data) / 4096);
      cluster.node(rank).barrier();
      if (rank == 1) *data = 7;
      cluster.node(rank).barrier();
      EXPECT_EQ(cluster.node(rank).home_of(page), 0);
      EXPECT_EQ(*data, 7);  // pinned home still merges the diff correctly
      cluster.node(rank).barrier();
    });
    const auto master_stats = cluster.node(0).stats().snapshot();
    EXPECT_EQ(master_stats.home_migrations, 0);
    cluster.shutdown();
  }
}

TEST(PriorsMigration, UncoveredPagesStillMigrate) {
  DsmConfig config;
  config.pool_bytes = 4 << 20;
  // Prior covers page 0 only; the second allocation's page is uncovered.
  config.page_priors.push_back(
      PagePrior{0, 4096, false, /*migration_friendly=*/false, 1});
  DsmCluster cluster(Topology::cluster(2), config);
  cluster.run([&](NodeId rank) {
    auto* pinned = static_cast<int*>(cluster.node(rank).shmalloc(4096, 4096));
    auto* free_page =
        static_cast<int*>(cluster.node(rank).shmalloc(4096, 4096));
    const PageId pinned_page =
        static_cast<PageId>(cluster.node(rank).offset_of(pinned) / 4096);
    const PageId movable_page =
        static_cast<PageId>(cluster.node(rank).offset_of(free_page) / 4096);
    cluster.node(rank).barrier();
    if (rank == 1) {
      *pinned = 1;
      *free_page = 2;
    }
    cluster.node(rank).barrier();
    EXPECT_EQ(cluster.node(rank).home_of(pinned_page), 0);
    EXPECT_EQ(cluster.node(rank).home_of(movable_page), 1);
    cluster.node(rank).barrier();
  });
  cluster.shutdown();
}

TEST(PriorsParse, V2PhasesYieldEpochRangedPriors) {
  const char* sidecar =
      "{\"version\":2,\"page_bytes\":4096,\"threshold_bytes\":256,"
      "\"epoch_base\":1,"
      "\"symbols\":[{\"name\":\"grid\",\"bytes\":4096,\"dsm\":true,"
      "\"offset_known\":true,\"pool_offset\":0,\"prefer_update\":false,"
      "\"migration_friendly\":false,\"expected_page_touches\":1}],"
      "\"phases\":["
      "{\"index\":0,\"ranges\":[{\"symbol\":\"grid\",\"offset\":0,"
      "\"bytes\":4096,\"pattern\":\"producer_consumer\","
      "\"prefer_update\":false,\"migration_friendly\":true}]},"
      "{\"index\":1,\"ranges\":[{\"symbol\":\"grid\",\"offset\":0,"
      "\"bytes\":4096,\"pattern\":\"ping_pong\",\"prefer_update\":false,"
      "\"migration_friendly\":false}]}"
      "]}";
  auto priors = parse_page_priors(sidecar);
  ASSERT_TRUE(priors.is_ok()) << priors.status().to_string();
  ASSERT_EQ(priors.value().size(), 3u);
  // The per-symbol record stays a whole-program prior.
  EXPECT_EQ(priors.value()[0].phase, -1);
  EXPECT_FALSE(priors.value()[0].migration_friendly);
  // Phase records fold index with epoch_base: phase p -> epoch p + base.
  EXPECT_EQ(priors.value()[1].phase, 1);
  EXPECT_TRUE(priors.value()[1].migration_friendly);
  EXPECT_EQ(priors.value()[2].phase, 2);
  EXPECT_FALSE(priors.value()[2].migration_friendly);
}

/// Shared scenario for the phased-projection tests: page 0 carries a
/// whole-program home pin that a phase prior at epoch 2 relaxes. Node 1 is
/// the sole writer in epochs 1 and 2; §5.2.2 migration must stay vetoed for
/// the first write and fire for the second, and every node must observe the
/// re-projection through prior_seeded_pages. Returns the summed
/// dsm.invariant.violations across the cluster.
std::int64_t run_phased_scenario(std::optional<std::uint64_t> fault_seed) {
  DsmConfig config;
  config.pool_bytes = 4 << 20;
  if (fault_seed.has_value()) {
    config.retry.timeout_ms = 50;
    config.retry.max_attempts = 400;
  }
  PagePrior pinned{0, 4096, false, /*migration_friendly=*/false, 1};
  PagePrior relaxed{0, 4096, false, /*migration_friendly=*/true, 1};
  relaxed.phase = 2;
  config.page_priors.push_back(pinned);
  config.page_priors.push_back(relaxed);
  const int nodes = 2;
  auto cluster =
      fault_seed.has_value()
          ? std::make_unique<DsmCluster>(Topology::cluster(nodes), config,
                                         net::default_chaos_plan(*fault_seed))
          : std::make_unique<DsmCluster>(Topology::cluster(nodes), config);
  cluster->run([&](NodeId rank) {
    DsmNode& node = cluster->node(rank);
    auto* data = static_cast<int*>(node.shmalloc(4096, 4096));
    const PageId page = static_cast<PageId>(node.offset_of(data) / 4096);
    // Epoch 0: only the whole-program pin is projected.
    EXPECT_FALSE(node.prior_allows_migration(page));
    node.barrier();  // -> epoch 1 (no phase-1 priors: pin stays)
    EXPECT_FALSE(node.prior_allows_migration(page));
    if (rank == 1) *data = 7;
    node.barrier();  // closes epoch 1 under the pin -> epoch 2
    EXPECT_EQ(node.home_of(page), 0);  // sole writer vetoed
    // Only the writer re-reads here: other ranks checking the value would
    // race with the epoch-2 write below.
    if (rank == 1) {
      EXPECT_EQ(*data, 7);
    }
    // Epoch 2: the phase prior overrides (relaxes) the whole-program pin.
    EXPECT_TRUE(node.prior_allows_migration(page));
    if (rank == 1) *data = 8;
    node.barrier();  // closes epoch 2 relaxed -> epoch 3
    EXPECT_EQ(node.home_of(page), 1);  // §5.2.2 migration fired this time
    EXPECT_EQ(*data, 8);
    // Sticky tail: epochs past the last phased prior keep its projection,
    // and the unchanged phase is not re-counted.
    EXPECT_TRUE(node.prior_allows_migration(page));
    // One projection each at epochs 0, 1 and 2; epoch 3 reuses phase 2.
    EXPECT_EQ(node.stats().snapshot().prior_seeded_pages, 3);
    node.barrier();
  });
  std::int64_t violations = 0;
  auto& reg = obs::Registry::instance();
  for (NodeId n = 0; n < nodes; ++n) {
    violations += reg.counter(n, "dsm.invariant.violations").value();
  }
  cluster->shutdown();
  return violations;
}

TEST(PriorsPhased, ReprojectionGatesMigrationPerEpoch) {
  EXPECT_EQ(run_phased_scenario(std::nullopt), 0);
}

// Chaos variant (tier2-chaos): the same epoch-ranged projection decisions
// must survive a faulty fabric with zero invariant violations.
TEST(PriorsPhasedChaos, ReprojectionSurvivesFaultInjection) {
  EXPECT_EQ(run_phased_scenario(0xC0FFEEu), 0);
}

TEST(PriorsEmbedded, RegistrationRoundTrip) {
  EXPECT_EQ(embedded_hints_json(), nullptr);
  static const char kBlob[] = "{\"version\":2,\"symbols\":[]}";
  set_embedded_hints_json(kBlob);
  EXPECT_STREQ(embedded_hints_json(), kBlob);
  set_embedded_hints_json(nullptr);
  EXPECT_EQ(embedded_hints_json(), nullptr);
}

}  // namespace
}  // namespace parade::dsm
