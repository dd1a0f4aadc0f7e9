// Protocol-hint synthesis tests (docs/ANALYZER.md "Protocol hints"): affine
// footprints from literal loop bounds, the update-vs-invalidate prior rule,
// SPMD pool offsets mirroring codegen's allocation order, the hint-driven
// promotion that replaces the raw threshold comparison in collective-vs-DSM
// lowering (including the revert when the symbol is pinned to the DSM pool),
// the embedded sidecar in generated programs, and the parade_omcc
// --hints=json CLI surface.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <string>

#include "obs/json.hpp"
#include "translator/analyze.hpp"
#include "translator/translate.hpp"

namespace parade::translator {
namespace {

Analysis analyze_ok(const std::string& source, AnalyzeOptions options = {}) {
  return analyze_source(source, options).value_or_die();
}

// The corpus program for the lowering flip: an 8-byte double guarded by a
// critical, read twice more per write elsewhere in the region. Under
// --threshold=4 the raw comparison rejects the collective (8 > 4); the hint
// prior (8 <= 4*threshold, reads >= 2*writes) promotes it back.
const char* kFlipProgram =
    "double acc;\n"
    "double probe;\n"
    "int main(void) {\n"
    "  int i;\n"
    "  #pragma omp parallel for\n"
    "  for (i = 0; i < 8; i++) {\n"
    "    #pragma omp critical\n"
    "    {\n"
    "      acc = acc + 2.0;\n"
    "    }\n"
    "    probe = acc + acc;\n"
    "  }\n"
    "  return 0;\n"
    "}\n";

TEST(Hints, AffineArrayFootprintFromLiteralBounds) {
  const Analysis a = analyze_ok(
      "double grid[64][64];\n"
      "int main(void) {\n"
      "  int i, j;\n"
      "  #pragma omp parallel for\n"
      "  for (i = 0; i < 16; i++) {\n"
      "    for (j = 0; j < 8; j++) {\n"
      "      grid[i][j] = 1.0;\n"
      "    }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  const SymbolHint* h = a.hints.find("grid");
  ASSERT_NE(h, nullptr);
  // 16 * 8 iterations touch one 8-byte element each; the affine footprint is
  // far below the declared 64*64*8 bytes.
  EXPECT_EQ(h->footprint_bytes, 16u * 8u * 8u);
  EXPECT_EQ(h->byte_size, 64u * 64u * 8u);
  EXPECT_EQ(h->writer_constructs, 1);
  EXPECT_TRUE(h->migration_friendly);
  EXPECT_EQ(h->expected_page_touches, (16u * 8u * 8u + 4095u) / 4096u);
}

TEST(Hints, SymbolicBoundResolvedFromFileScopeLiteral) {
  const Analysis a = analyze_ok(
      "static long n = 100;\n"
      "double v[4096];\n"
      "int main(void) {\n"
      "  long i;\n"
      "  #pragma omp parallel for\n"
      "  for (i = 0; i < n; i++) {\n"
      "    v[i] = 1.0;\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  const SymbolHint* h = a.hints.find("v");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->footprint_bytes, 100u * 8u);
}

TEST(Hints, UpdatePriorNeedsReadDominanceAndSmallSize) {
  AnalyzeOptions options;
  options.mp_threshold_bytes = 4;
  const Analysis a = analyze_ok(kFlipProgram, options);
  const SymbolHint* acc = a.hints.find("acc");
  ASSERT_NE(acc, nullptr);
  EXPECT_GE(acc->reads, 2 * acc->writes);
  EXPECT_TRUE(acc->prefer_update);

  // Write-only symbol: no reads to amortize eager updates.
  const SymbolHint* probe = a.hints.find("probe");
  ASSERT_NE(probe, nullptr);
  EXPECT_FALSE(probe->prefer_update);
}

TEST(Hints, PromotionFlipsThresholdFallbackToCollective) {
  AnalyzeOptions options;
  options.mp_threshold_bytes = 4;
  const Analysis with_hints = analyze_ok(kFlipProgram, options);
  bool found = false;
  for (const auto& [line, dec] : with_hints.sync_sites) {
    (void)line;
    if (dec.var != "acc") continue;
    found = true;
    EXPECT_TRUE(dec.collective) << dec.reason;
    EXPECT_NE(dec.reason.find("promoted"), std::string::npos) << dec.reason;
  }
  EXPECT_TRUE(found);

  options.protocol_hints = false;
  const Analysis without = analyze_ok(kFlipProgram, options);
  for (const auto& [line, dec] : without.sync_sites) {
    (void)line;
    if (dec.var != "acc") continue;
    EXPECT_FALSE(dec.collective);
    EXPECT_TRUE(dec.threshold_fallback);
  }
}

TEST(Hints, PromotionChangesEmittedLowering) {
  TranslateOptions options;
  options.mp_threshold_bytes = 4;
  options.emit_main_wrapper = false;
  const std::string promoted =
      translate_source(kFlipProgram, options).value_or_die();
  EXPECT_NE(promoted.find("team_allreduce_bytes"), std::string::npos);
  EXPECT_EQ(promoted.find("dsm_lock"), std::string::npos);

  options.protocol_hints = false;
  const std::string fallback =
      translate_source(kFlipProgram, options).value_or_die();
  EXPECT_EQ(fallback.find("team_allreduce_bytes"), std::string::npos);
  EXPECT_NE(fallback.find("dsm_lock"), std::string::npos);
}

TEST(Hints, PromotionRevertedWhenSymbolIsPinnedToDsm) {
  // The same guarded update, but an unmanaged parallel write elsewhere pins
  // `acc` to the DSM pool — a collective would no longer cover every writer,
  // so the promotion must back out.
  AnalyzeOptions options;
  options.mp_threshold_bytes = 4;
  const Analysis a = analyze_ok(
      "double acc;\n"
      "double probe;\n"
      "int main(void) {\n"
      "  int i;\n"
      "  #pragma omp parallel for\n"
      "  for (i = 0; i < 8; i++) {\n"
      "    #pragma omp critical\n"
      "    {\n"
      "      acc = acc + 2.0;\n"
      "    }\n"
      "    probe = acc + acc;\n"
      "    acc = probe;\n"
      "  }\n"
      "  return 0;\n"
      "}\n",
      options);
  ASSERT_EQ(a.globals.count("acc"), 1u);
  EXPECT_EQ(a.globals.at("acc").placement, Placement::kDsmScalar);
  for (const auto& [line, dec] : a.sync_sites) {
    (void)line;
    if (dec.var == "acc") {
      EXPECT_FALSE(dec.collective) << dec.reason;
    }
  }
}

TEST(Hints, DefaultThresholdCorpusLoweringUnchanged) {
  // At the paper's 256-byte threshold an 8-byte reduction-shaped critical is
  // collective with or without hints: promotion only widens, never narrows.
  const char* program =
      "double total;\n"
      "int main(void) {\n"
      "  int i;\n"
      "  #pragma omp parallel for\n"
      "  for (i = 0; i < 8; i++) {\n"
      "    #pragma omp critical\n"
      "    { total = total + 1.5; }\n"
      "  }\n"
      "  return 0;\n"
      "}\n";
  AnalyzeOptions with;
  AnalyzeOptions without;
  without.protocol_hints = false;
  const Analysis a = analyze_ok(program, with);
  const Analysis b = analyze_ok(program, without);
  ASSERT_EQ(a.sync_sites.size(), b.sync_sites.size());
  for (const auto& [line, dec] : a.sync_sites) {
    ASSERT_EQ(b.sync_sites.count(line), 1u);
    EXPECT_EQ(dec.collective, b.sync_sites.at(line).collective);
  }
}

TEST(Hints, PoolOffsetsFollowDeclarationOrderAligned) {
  const Analysis a = analyze_ok(
      "double u[100];\n"
      "double f[100];\n"
      "int main(void) {\n"
      "  int i;\n"
      "  #pragma omp parallel for\n"
      "  for (i = 0; i < 100; i++) {\n"
      "    u[i] = f[i];\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  const SymbolHint* u = a.hints.find("u");
  const SymbolHint* f = a.hints.find("f");
  ASSERT_NE(u, nullptr);
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(u->dsm);
  EXPECT_TRUE(f->dsm);
  ASSERT_TRUE(u->offset_known);
  ASSERT_TRUE(f->offset_known);
  // `u` is declared first: offset 0; `f` follows at the next 64-byte slot.
  EXPECT_EQ(u->pool_offset, 0u);
  EXPECT_EQ(f->pool_offset, (100u * 8u + 63u) & ~std::size_t{63});
}

TEST(Hints, SidecarJsonRoundTrips) {
  const Analysis a = analyze_ok(
      "double u[100];\n"
      "int main(void) {\n"
      "  int i;\n"
      "  #pragma omp parallel for\n"
      "  for (i = 0; i < 100; i++) { u[i] = 1.0; }\n"
      "  return 0;\n"
      "}\n");
  auto doc = obs::parse_json(a.hints.to_json());
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  ASSERT_TRUE(doc.value().is_object());
  EXPECT_EQ(doc.value().at("version").as_int(), 2);
  EXPECT_EQ(doc.value().at("page_bytes").as_int(), 4096);
  ASSERT_TRUE(doc.value().at("symbols").is_array());
  bool found_u = false;
  for (const auto& symbol : doc.value().at("symbols").array) {
    if (symbol.at("name").string != "u") continue;
    found_u = true;
    EXPECT_TRUE(symbol.at("dsm").boolean);
    EXPECT_TRUE(symbol.at("offset_known").boolean);
  }
  EXPECT_TRUE(found_u);
}

TEST(Hints, SidecarV2CarriesPhasedRanges) {
  // Two worksharing phases over one array: the v2 sidecar must expose the
  // interference pass's phase records with sharing patterns and the
  // epoch_base the runtime folds phase indices with.
  const Analysis a = analyze_ok(
      "double u[1024];\n"
      "double v[1024];\n"
      "int main(void) {\n"
      "  int i;\n"
      "  int j;\n"
      "  #pragma omp parallel for\n"
      "  for (i = 0; i < 1024; i++) { u[i] = 1.0; }\n"
      "  #pragma omp parallel for\n"
      "  for (j = 0; j < 1024; j++) { v[j] = u[j] * 2.0; }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(a.hints.epoch_base, 1);
  EXPECT_GT(a.hints.phase_count, 1);
  ASSERT_FALSE(a.hints.phases.empty());
  auto doc = obs::parse_json(a.hints.to_json());
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  EXPECT_EQ(doc.value().at("epoch_base").as_int(), 1);
  EXPECT_GT(doc.value().at("phase_count").as_int(), 1);
  ASSERT_TRUE(doc.value().at("phases").is_array());
  bool saw_producer = false;
  bool saw_read_mostly = false;
  for (const auto& phase : doc.value().at("phases").array) {
    ASSERT_TRUE(phase.has("index"));
    ASSERT_TRUE(phase.at("ranges").is_array());
    for (const auto& range : phase.at("ranges").array) {
      if (range.at("symbol").string != "u") continue;
      const std::string& pattern = range.at("pattern").string;
      if (pattern == "producer_consumer") saw_producer = true;
      if (pattern == "read_mostly") saw_read_mostly = true;
      EXPECT_GT(range.at("bytes").as_int(), 0);
    }
  }
  EXPECT_TRUE(saw_producer);
  EXPECT_TRUE(saw_read_mostly);
}

TEST(Hints, GeneratedProgramEmbedsSidecar) {
  TranslateOptions options;
  const std::string with =
      translate_source(kFlipProgram, options).value_or_die();
  EXPECT_NE(with.find("__parade_hints_json"), std::string::npos);
  EXPECT_NE(with.find("parade::xlat::launch(__parade_hints_json"),
            std::string::npos);

  options.protocol_hints = false;
  const std::string without =
      translate_source(kFlipProgram, options).value_or_die();
  EXPECT_EQ(without.find("__parade_hints_json"), std::string::npos);
}

// ---------------------------------------------------------------------------
// parade_omcc --hints=json CLI

std::string run_omcc(const std::string& args, int* exit_code) {
  const std::string command =
      std::string(PARADE_BINARY_DIR) + "/src/translator/parade_omcc " + args;
  std::string output;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  char buf[512];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) output += buf;
  const int status = pclose(pipe);
  *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return output;
}

TEST(OmccCli, HintsJsonEmitsParsableSidecar) {
  int exit_code = -1;
  const std::string output = run_omcc(
      std::string(PARADE_SOURCE_DIR) +
          "/tests/translator_inputs/helmholtz.c --hints=json",
      &exit_code);
  EXPECT_EQ(exit_code, 0) << output;
  auto doc = obs::parse_json(output);
  ASSERT_TRUE(doc.is_ok()) << output;
  EXPECT_EQ(doc.value().at("version").as_int(), 2);
  bool found_dsm_symbol = false;
  for (const auto& symbol : doc.value().at("symbols").array) {
    if (symbol.at("dsm").boolean) found_dsm_symbol = true;
  }
  EXPECT_TRUE(found_dsm_symbol) << output;
}

TEST(OmccCli, HintsJsonAndAnalyzeAreMutuallyExclusive) {
  int exit_code = -1;
  run_omcc("--analyze --hints=json nope.c", &exit_code);
  EXPECT_EQ(exit_code, 2);
}

}  // namespace
}  // namespace parade::translator
