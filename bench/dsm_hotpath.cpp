// DSM hot-path bench: the zero-copy segment pool's remote-fetch path (CoW
// twins, direct serve encode, span-decoded installs and diffs), gated on
// exact protocol counts rather than on wall-clock ratios.
//
//   dsm_hotpath [--pages=32] [--page-kb=64] [--epochs=48] [--locks=4]
//               [--reps=3] [--out=PATH] [--baseline=PATH]
//
// A 2-node cluster ping-pongs ownership: the home dirties every page, the
// remote node refetches and rewrites them all (fetch + twin + diff per page
// per epoch) and cycles a few managed locks.
//
// The gate is deterministic. Every rep must show, on the remote node
// (rank 1): page_fetches == pages x epochs, twins_shared == page_fetches
// (every write fault aliased the home's frame instead of copying it),
// twins_created == 0, protect_calls as below, and zero retries and
// dsm.invariant.violations on both nodes. With --baseline those counts must
// also equal the committed ones exactly, for the same
// pages/page-kb/epochs/locks shape.
//
// protect_calls counts rank 1's application-view mprotect calls. Each epoch
// makes one per page install (READ_ONLY) and one per write upgrade (DIRTY),
// one for the flush that downgrades the whole dirty run, and one for the
// departure that invalidates the whole run the home rewrote (none in epoch
// 0, which starts with no copies): 2 x pages x epochs + 2 x epochs - 1.
// The lock cycles dirty nothing, so their grants invalidate nothing.
//
// Fetch and lock-grant latency (the real `dsm.fetch_ns` /
// `dsm.lock_grant_ns` histograms on rank 1, from the median rep by fetch
// mean) are reported for information only: wall-clock nanoseconds are
// machine-local and never gated.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/figure_common.hpp"
#include "dsm/cluster.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"

namespace parade::dsm {
namespace {

/// The run's --pages/--page-kb/--epochs/--locks; a baseline applies only
/// to the shape it was recorded with.
struct Shape {
  int pages = 0;
  long page_kb = 0;
  int epochs = 0;
  int locks = 0;
};

/// The gated counts. Fetch/twin counts are rank 1's; retries and
/// violations are summed over both nodes.
struct HotpathCounts {
  std::int64_t page_fetches = 0;
  std::int64_t twins_shared = 0;
  std::int64_t twins_created = 0;
  std::int64_t protect_calls = 0;
  std::int64_t retries = 0;
  std::int64_t invariant_violations = 0;
};

struct HotpathRow {
  HotpathCounts counts;
  double fetch_p50_ns = 0.0;
  double fetch_p95_ns = 0.0;
  double fetch_mean_ns = 0.0;
  double lock_grant_p50_ns = 0.0;
};

/// One measured cluster run. Resets the per-node registry slices first so
/// consecutive reps in the same process do not pollute each other's
/// counters and histograms.
HotpathRow run_once(const Shape& shape, int epochs) {
  auto& reg = obs::Registry::instance();
  for (NodeId n = 0; n < 2; ++n) reg.reset_node(n);

  const auto page_bytes = static_cast<std::size_t>(shape.page_kb) * 1024;
  const std::size_t words_per_page = page_bytes / sizeof(std::uint64_t);
  const int pages = shape.pages;
  DsmConfig config;
  config.pool_bytes = static_cast<std::size_t>(pages + 2) * page_bytes;
  config.page_bytes = page_bytes;
  // Keep every page homed at node 0 so each epoch's refetch crosses the
  // fabric; migration would collapse the traffic after one round.
  config.home_migration = false;

  DsmCluster cluster(Topology::cluster(2), config);
  cluster.run([&](NodeId rank) {
    DsmNode& node = cluster.node(rank);
    auto* data = static_cast<std::uint64_t*>(node.shmalloc(
        static_cast<std::size_t>(pages) * page_bytes, page_bytes));
    node.barrier();

    for (int epoch = 0; epoch < epochs; ++epoch) {
      if (rank == 0) {
        // Home dirties every page: the next write notices invalidate the
        // remote copies, forcing full refetches below.
        for (int p = 0; p < pages; ++p) {
          data[static_cast<std::size_t>(p) * words_per_page] =
              static_cast<std::uint64_t>(epoch * pages + p + 1);
        }
      }
      node.barrier();
      if (rank == 1) {
        // The measured hot path: fault (fetch+install), then write (twin
        // attach) so the flush exercises the diff path too.
        std::uint64_t sum = 0;
        for (int p = 0; p < pages; ++p) {
          sum += data[static_cast<std::size_t>(p) * words_per_page];
          data[static_cast<std::size_t>(p) * words_per_page + 1] = sum;
        }
        for (int l = 0; l < shape.locks; ++l) {
          node.lock_acquire(l);
          node.lock_release(l);
        }
      }
      node.barrier();
    }
  });

  HotpathRow row;
  const auto& fetch = reg.hist(1, "dsm.fetch_ns");
  row.fetch_p50_ns = static_cast<double>(fetch.percentile_ns(0.50));
  row.fetch_p95_ns = static_cast<double>(fetch.percentile_ns(0.95));
  row.fetch_mean_ns =
      fetch.count() > 0
          ? static_cast<double>(fetch.total_ns()) /
                static_cast<double>(fetch.count())
          : 0.0;
  // Request-to-grant latency is recorded at the acquirer (rank 1).
  row.lock_grant_p50_ns = static_cast<double>(
      reg.hist(1, "dsm.lock_grant_ns").percentile_ns(0.50));
  const DsmStatsSnapshot remote = cluster.node(1).stats().snapshot();
  row.counts.page_fetches = remote.page_fetches;
  row.counts.twins_shared = remote.twins_shared;
  row.counts.twins_created = remote.twins_created;
  row.counts.protect_calls = remote.protect_calls;
  for (NodeId n = 0; n < 2; ++n) {
    row.counts.retries += cluster.node(n).stats().snapshot().retries;
    row.counts.invariant_violations +=
        reg.counter(n, "dsm.invariant.violations").value();
  }
  cluster.shutdown();
  return row;
}

/// The zero-copy signature every rep must show; prints each failed identity.
int check_signature(const HotpathCounts& c, const Shape& shape, int rep) {
  const std::int64_t expected_fetches =
      static_cast<std::int64_t>(shape.pages) * shape.epochs;
  const std::int64_t expected_protects =
      2 * expected_fetches + 2 * static_cast<std::int64_t>(shape.epochs) - 1;
  const struct {
    const char* what;
    bool ok;
  } checks[] = {
      {"page_fetches == pages x epochs", c.page_fetches == expected_fetches},
      {"twins_shared == page_fetches", c.twins_shared == c.page_fetches},
      {"twins_created == 0", c.twins_created == 0},
      {"protect_calls == 2 x pages x epochs + 2 x epochs - 1",
       c.protect_calls == expected_protects},
      {"retries == 0", c.retries == 0},
      {"dsm.invariant.violations == 0", c.invariant_violations == 0},
  };
  int failures = 0;
  for (const auto& check : checks) {
    if (check.ok) continue;
    std::fprintf(stderr, "dsm_hotpath: rep %d violates %s\n", rep,
                 check.what);
    ++failures;
  }
  return failures;
}

bool write_json(const std::string& path, const Shape& shape,
                const HotpathRow& row) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("bench");
  w.value("dsm_hotpath");
  w.key("pages");
  w.value(static_cast<std::int64_t>(shape.pages));
  w.key("page_kb");
  w.value(static_cast<std::int64_t>(shape.page_kb));
  w.key("epochs");
  w.value(static_cast<std::int64_t>(shape.epochs));
  w.key("locks");
  w.value(static_cast<std::int64_t>(shape.locks));
  w.key("counts");
  w.begin_object();
  w.key("page_fetches");
  w.value(row.counts.page_fetches);
  w.key("twins_shared");
  w.value(row.counts.twins_shared);
  w.key("twins_created");
  w.value(row.counts.twins_created);
  w.key("protect_calls");
  w.value(row.counts.protect_calls);
  w.key("retries");
  w.value(row.counts.retries);
  w.key("invariant_violations");
  w.value(row.counts.invariant_violations);
  w.end_object();
  // Information only (machine-local wall clock, never gated).
  w.key("latency_ns");
  w.begin_object();
  w.key("fetch_p50");
  w.value(row.fetch_p50_ns);
  w.key("fetch_mean");
  w.value(row.fetch_mean_ns);
  w.key("fetch_p95");
  w.value(row.fetch_p95_ns);
  w.key("lock_grant_p50");
  w.value(row.lock_grant_p50_ns);
  w.end_object();
  w.end_object();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << w.str() << "\n";
  return static_cast<bool>(out);
}

/// Exact gate on the committed counts: the baseline must describe the same
/// shape, and every count must match it.
int check_baseline(const std::string& path, const Shape& shape,
                   const HotpathCounts& fresh) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "dsm_hotpath: cannot open baseline %s\n",
                 path.c_str());
    return 1;
  }
  std::stringstream text;
  text << in.rdbuf();
  auto parsed = obs::parse_json(text.str());
  if (!parsed.is_ok() || !parsed.value().is_object() ||
      !parsed.value().has("counts")) {
    std::fprintf(stderr, "dsm_hotpath: baseline %s is not a hotpath table\n",
                 path.c_str());
    return 1;
  }
  const obs::JsonValue& base = parsed.value();
  const auto number = [](const obs::JsonValue& obj, const char* key) {
    return obj.has(key) ? obj.at(key).as_int() : std::int64_t{-1};
  };
  if (number(base, "pages") != shape.pages ||
      number(base, "page_kb") != shape.page_kb ||
      number(base, "epochs") != shape.epochs ||
      number(base, "locks") != shape.locks) {
    std::fprintf(stderr,
                 "dsm_hotpath: baseline %s was recorded for a different "
                 "--pages/--page-kb/--epochs/--locks shape\n",
                 path.c_str());
    return 1;
  }
  const obs::JsonValue& counts = base.at("counts");
  const struct {
    const char* key;
    std::int64_t fresh;
  } gates[] = {
      {"page_fetches", fresh.page_fetches},
      {"twins_shared", fresh.twins_shared},
      {"twins_created", fresh.twins_created},
      {"protect_calls", fresh.protect_calls},
      {"retries", fresh.retries},
      {"invariant_violations", fresh.invariant_violations},
  };
  int mismatches = 0;
  for (const auto& gate : gates) {
    const std::int64_t committed = number(counts, gate.key);
    const bool ok = gate.fresh == committed;
    std::printf("gate %-22s %8lld vs baseline %8lld %s\n", gate.key,
                static_cast<long long>(gate.fresh),
                static_cast<long long>(committed), ok ? "ok" : "MISMATCH");
    if (!ok) ++mismatches;
  }
  return mismatches;
}

}  // namespace
}  // namespace parade::dsm

int main(int argc, char** argv) {
  using namespace parade;
  using namespace parade::dsm;
  Shape shape;
  shape.pages = static_cast<int>(bench::arg_long(argc, argv, "pages", 32));
  // Big pages by default: the copies the zero-copy path avoids scale with
  // the page size, so the informational latencies show them clearly.
  shape.page_kb = bench::arg_long(argc, argv, "page-kb", 64);
  shape.epochs = static_cast<int>(bench::arg_long(argc, argv, "epochs", 48));
  shape.locks = static_cast<int>(bench::arg_long(argc, argv, "locks", 4));
  const int reps = static_cast<int>(bench::arg_long(argc, argv, "reps", 3));
  const std::string out_path = bench::arg_string(argc, argv, "out", "");
  const std::string baseline = bench::arg_string(argc, argv, "baseline", "");
  if (shape.pages < 1 || shape.page_kb < 4 || shape.page_kb % 4 != 0 ||
      shape.epochs < 1 || shape.locks < 0 || shape.locks > 256 || reps < 1) {
    std::fprintf(stderr,
                 "usage: dsm_hotpath [--pages=32] [--page-kb=64] "
                 "[--epochs=48] [--locks=4] [--reps=3] [--out=PATH] "
                 "[--baseline=PATH]\n");
    return 2;
  }

  // Warm-up pass absorbs first-run effects (page-cache, lazy allocations).
  (void)run_once(shape, 2);

  int failures = 0;
  std::vector<HotpathRow> runs;
  for (int r = 0; r < reps; ++r) {
    runs.push_back(run_once(shape, shape.epochs));
    failures += check_signature(runs.back().counts, shape, r);
  }
  // Report the median rep by fetch mean.
  std::sort(runs.begin(), runs.end(),
            [](const HotpathRow& a, const HotpathRow& b) {
              return a.fetch_mean_ns < b.fetch_mean_ns;
            });
  const HotpathRow& row = runs[runs.size() / 2];

  std::printf(
      "DSM hot path, 2 nodes, %d x %ldKB pages, %d epochs (wall clock)\n"
      "  rank 1: %lld fetches, %lld shared twins, %lld copied twins, "
      "%lld protect calls; %lld retries, %lld invariant violations\n"
      "  info: fetch p50 %.0f ns  mean %.0f ns  p95 %.0f ns  "
      "grant p50 %.0f ns\n",
      shape.pages, shape.page_kb, shape.epochs,
      static_cast<long long>(row.counts.page_fetches),
      static_cast<long long>(row.counts.twins_shared),
      static_cast<long long>(row.counts.twins_created),
      static_cast<long long>(row.counts.protect_calls),
      static_cast<long long>(row.counts.retries),
      static_cast<long long>(row.counts.invariant_violations),
      row.fetch_p50_ns, row.fetch_mean_ns, row.fetch_p95_ns,
      row.lock_grant_p50_ns);

  if (!out_path.empty() && !write_json(out_path, shape, row)) {
    std::fprintf(stderr, "dsm_hotpath: cannot write %s\n", out_path.c_str());
    return 1;
  }
  if (!baseline.empty()) {
    failures += check_baseline(baseline, shape, row.counts);
  }
  return failures == 0 ? 0 : 1;
}
