// Whole-program interference analysis tests (docs/ANALYZER.md
// "Region-sequence graph"): phase/step decomposition of the program into
// barrier-delimited intervals, the May-Happen-in-Parallel rules, the
// per-phase sharing-pattern classification (read-mostly / producer-consumer
// / migratory / ping-pong), the phase-aware hint lowering with its
// single-phase degeneracy property, the three cross-region diagnostics in
// both golden directions, and the static message-cost report shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "translator/analyze.hpp"
#include "translator/hints.hpp"
#include "translator/interfere.hpp"
#include "translator/parser.hpp"
#include "translator/token.hpp"

namespace parade::translator {
namespace {

struct Analyzed {
  TranslationUnit unit;
  Analysis analysis;
};

Analyzed analyze_program(const std::string& source,
                         AnalyzeOptions options = {}) {
  auto tokens = lex(source);
  EXPECT_TRUE(tokens.is_ok()) << tokens.status().to_string();
  auto unit = parse(tokens.value());
  EXPECT_TRUE(unit.is_ok()) << unit.status().to_string();
  Analyzed out{std::move(unit).value(), {}};
  out.analysis = analyze(out.unit, options);
  return out;
}

const Diagnostic* find_diag(const Analysis& analysis, const char* code) {
  for (const Diagnostic& d : analysis.diagnostics) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

const PhaseRange* find_range(const ProtocolHints& hints, int phase,
                             const std::string& symbol) {
  for (const PhaseHint& ph : hints.phases) {
    if (ph.index != phase) continue;
    for (const PhaseRange& r : ph.ranges) {
      if (r.symbol == symbol) return &r;
    }
  }
  return nullptr;
}

// Two worksharing phases: u is produced in the first and consumed in the
// second; v is written once and never read again.
const char* kTwoPhaseProgram =
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
    "}\n";

// ---------------------------------------------------------------------------
// Region-sequence graph shape

TEST(RegionSeq, PhasesSplitAtBarriersAndEpochBaseTracksSharedInit) {
  const Analyzed p = analyze_program(kTwoPhaseProgram);
  const RegionSequence seq = build_region_sequence(p.unit, p.analysis);

  // DSM arrays exist, so codegen emits the shared-init barrier: the first
  // phase the translator sees runs during DSM epoch 1.
  EXPECT_EQ(seq.epoch_base, 1);
  EXPECT_TRUE(seq.phases_static);
  EXPECT_GE(seq.phase_count, 2);

  // The write to u and the read of u sit in different phases (a combined
  // `parallel for` ends with barriers), in program order.
  int u_write_phase = -1;
  int u_read_phase = -1;
  for (const SeqAccess& a : seq.accesses) {
    if (a.symbol != "u") continue;
    if (a.write) u_write_phase = a.phase;
    if (!a.write) u_read_phase = a.phase;
  }
  ASSERT_GE(u_write_phase, 0);
  ASSERT_GE(u_read_phase, 0);
  EXPECT_LT(u_write_phase, u_read_phase);

  // Both worksharing bodies are parallel, partitioned by the loop variable.
  for (const SeqAccess& a : seq.accesses) {
    if (a.symbol == "u" && a.write) {
      EXPECT_TRUE(a.parallel);
      EXPECT_TRUE(a.partitioned);
    }
  }
}

TEST(RegionSeq, BarrierInsideSerialLoopWithholdsPhaseHints) {
  const Analyzed p = analyze_program(
      "double u[1024];\n"
      "int main(void) {\n"
      "  int i;\n"
      "  int t;\n"
      "  for (t = 0; t < 10; t++) {\n"
      "    #pragma omp parallel for\n"
      "    for (i = 0; i < 1024; i++) { u[i] = u[i] + 1.0; }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  const RegionSequence seq = build_region_sequence(p.unit, p.analysis);
  // The phase counter advances inside a serial loop, so the phase timeline
  // is not statically enumerable: hints are withheld entirely.
  EXPECT_FALSE(seq.phases_static);
  EXPECT_TRUE(p.analysis.hints.phases.empty());
}

// ---------------------------------------------------------------------------
// May-Happen-in-Parallel rules

SeqAccess access(int phase, int step, bool parallel,
                 std::vector<std::string> locks = {}, int serial_guard = -1,
                 bool master = false) {
  SeqAccess a;
  a.symbol = "x";
  a.write = true;
  a.phase = phase;
  a.step = step;
  a.parallel = parallel;
  a.serial_guard = serial_guard;
  a.master_guard = master;
  a.locks = std::move(locks);
  return a;
}

TEST(Mhp, SameStepUnguardedParallelAccessesOverlap) {
  EXPECT_TRUE(may_happen_in_parallel(access(0, 0, true), access(0, 0, true)));
}

TEST(Mhp, BarriersAndSerialContextOrderAccesses) {
  // Different steps: a barrier (or node-local order point) sits between.
  EXPECT_FALSE(may_happen_in_parallel(access(0, 0, true), access(1, 1, true)));
  // Serial code never overlaps anything.
  EXPECT_FALSE(may_happen_in_parallel(access(0, 0, false), access(0, 0, true)));
}

TEST(Mhp, CommonLockSerializesDisjointLocksDoNot) {
  EXPECT_FALSE(may_happen_in_parallel(access(0, 0, true, {"alpha"}),
                                      access(0, 0, true, {"alpha"})));
  EXPECT_TRUE(may_happen_in_parallel(access(0, 0, true, {"alpha"}),
                                     access(0, 0, true, {"beta"})));
}

TEST(Mhp, MasterAndSameSingleInstanceSerialize) {
  // Master is global thread 0 everywhere: two master bodies never overlap.
  EXPECT_FALSE(may_happen_in_parallel(access(0, 0, true, {}, 3, true),
                                      access(0, 0, true, {}, 7, true)));
  // The same single instance executes once; different instances may overlap
  // when one of them is nowait.
  EXPECT_FALSE(may_happen_in_parallel(access(0, 0, true, {}, 5),
                                      access(0, 0, true, {}, 5)));
  EXPECT_TRUE(may_happen_in_parallel(access(0, 0, true, {}, 5),
                                     access(0, 0, true, {}, 6)));
}

// ---------------------------------------------------------------------------
// Sharing-pattern classification, lowered into the phases sidecar

TEST(Classify, ProducerConsumerAndReadMostlyAcrossPhases) {
  const Analyzed p = analyze_program(kTwoPhaseProgram);
  const ProtocolHints& hints = p.analysis.hints;
  ASSERT_FALSE(hints.phases.empty());
  EXPECT_EQ(hints.epoch_base, 1);

  const RegionSequence seq = build_region_sequence(p.unit, p.analysis);
  int u_write_phase = -1;
  int u_read_phase = -1;
  for (const SeqAccess& a : seq.accesses) {
    if (a.symbol != "u") continue;
    (a.write ? u_write_phase : u_read_phase) = a.phase;
  }
  const PhaseRange* produced = find_range(hints, u_write_phase, "u");
  ASSERT_NE(produced, nullptr);
  EXPECT_EQ(produced->pattern, SharingPattern::kProducerConsumer);
  const PhaseRange* consumed = find_range(hints, u_read_phase, "u");
  ASSERT_NE(consumed, nullptr);
  EXPECT_EQ(consumed->pattern, SharingPattern::kReadMostly);
}

TEST(Classify, LockConvoyedUnpartitionedWritesArePingPong) {
  // Every thread funnels read-modify-write traffic over the whole array
  // through rotating critical sections: no data race, but the pages bounce
  // node-to-node each acquisition.
  const Analyzed p = analyze_program(
      "double acc[512];\n"
      "int main(void) {\n"
      "  int i;\n"
      "  int j;\n"
      "  #pragma omp parallel for\n"
      "  for (i = 0; i < 64; i++) {\n"
      "    #pragma omp critical\n"
      "    { for (j = 0; j < 512; j++) { acc[j] = acc[j] + 1.0; } }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  bool found = false;
  for (const PhaseHint& ph : p.analysis.hints.phases) {
    for (const PhaseRange& r : ph.ranges) {
      if (r.symbol != "acc" || r.pattern != SharingPattern::kPingPong) {
        continue;
      }
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Classify, SoleWriterAcrossMultiplePhasesIsMigratory) {
  // The master thread alone rewrites the array in two separate phases: the
  // ideal home follows the writer, no phase ever ping-pongs.
  const Analyzed p = analyze_program(
      "double state[1024];\n"
      "int main(void) {\n"
      "  int i;\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    #pragma omp master\n"
      "    { for (i = 0; i < 1024; i++) { state[i] = 1.0; } }\n"
      "    #pragma omp barrier\n"
      "    #pragma omp master\n"
      "    { for (i = 0; i < 1024; i++) { state[i] = state[i] * 2.0; } }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  std::size_t migratory = 0;
  for (const PhaseHint& ph : p.analysis.hints.phases) {
    for (const PhaseRange& r : ph.ranges) {
      if (r.symbol == "state" && r.pattern == SharingPattern::kMigratory) {
        ++migratory;
      }
    }
  }
  EXPECT_GE(migratory, 2u);
}

// ---------------------------------------------------------------------------
// Degeneracy property: a single-phase program's phase hints equal the
// whole-program symbol hints (flags are computed by the same formulas over
// the same counts when all accesses share one phase).

TEST(Degeneracy, SinglePhaseHintsMatchWholeProgramHints) {
  const char* const programs[] = {
      // Read-dominated small array: prefer_update stays set.
      "double small[16];\n"
      "double out[1024];\n"
      "int main(void) {\n"
      "  int i;\n"
      "  #pragma omp parallel for\n"
      "  for (i = 0; i < 1024; i++) { out[i] = small[0] + small[1]; }\n"
      "  return 0;\n"
      "}\n",
      // Partitioned producer, no consumer.
      "double u[4096];\n"
      "int main(void) {\n"
      "  int i;\n"
      "  #pragma omp parallel for\n"
      "  for (i = 0; i < 4096; i++) { u[i] = 1.0; }\n"
      "  return 0;\n"
      "}\n",
  };
  for (const char* source : programs) {
    const Analyzed p = analyze_program(source);
    const ProtocolHints& hints = p.analysis.hints;
    // All accesses sit in the first phase: exactly one phase record.
    ASSERT_EQ(hints.phases.size(), 1u) << source;
    for (const PhaseRange& r : hints.phases[0].ranges) {
      const SymbolHint* h = hints.find(r.symbol);
      ASSERT_NE(h, nullptr) << r.symbol;
      EXPECT_EQ(r.prefer_update, h->prefer_update) << r.symbol;
      EXPECT_EQ(r.migration_friendly, h->migration_friendly) << r.symbol;
      EXPECT_EQ(r.offset, h->pool_offset) << r.symbol;
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-region diagnostics, golden in both directions

TEST(CrossRegion, NonComposingCriticalNamesAreFlagged) {
  const Analyzed p = analyze_program(
      "double buf[1024];\n"
      "int main(void) {\n"
      "  int i;\n"
      "  int j;\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    #pragma omp critical (alpha)\n"
      "    { for (i = 0; i < 1024; i++) { buf[i] = buf[i] + 1.0; } }\n"
      "    #pragma omp critical (beta)\n"
      "    { for (j = 0; j < 1024; j++) { buf[j] = buf[j] * 2.0; } }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  const Diagnostic* d = find_diag(p.analysis, kDiagRaceCrossRegion);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->var, "buf");
  EXPECT_EQ(d->line, 10);
  EXPECT_GT(d->column, 0);
}

TEST(CrossRegion, SharedCriticalNameComposesAndIsClean) {
  const Analyzed p = analyze_program(
      "double buf[1024];\n"
      "int main(void) {\n"
      "  int i;\n"
      "  int j;\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    #pragma omp critical (alpha)\n"
      "    { for (i = 0; i < 1024; i++) { buf[i] = buf[i] + 1.0; } }\n"
      "    #pragma omp critical (alpha)\n"
      "    { for (j = 0; j < 1024; j++) { buf[j] = buf[j] * 2.0; } }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(find_diag(p.analysis, kDiagRaceCrossRegion), nullptr);
}

TEST(CrossRegion, NowaitWriteReadByLaterConstructInSamePhase) {
  const Analyzed p = analyze_program(
      "double u[2048];\n"
      "double v[2048];\n"
      "int main(void) {\n"
      "  int i;\n"
      "  int j;\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    #pragma omp for nowait\n"
      "    for (i = 0; i < 2048; i++) { u[i] = 1.0; }\n"
      "    #pragma omp for\n"
      "    for (j = 0; j < 2048; j++) { v[j] = u[j]; }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  const Diagnostic* d = find_diag(p.analysis, kDiagNowaitCrossRegionRead);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->var, "u");
  EXPECT_EQ(d->line, 11);
}

TEST(CrossRegion, ImpliedBarrierPublishesTheWrite) {
  const Analyzed p = analyze_program(
      "double u[2048];\n"
      "double v[2048];\n"
      "int main(void) {\n"
      "  int i;\n"
      "  int j;\n"
      "  #pragma omp parallel\n"
      "  {\n"
      "    #pragma omp for\n"
      "    for (i = 0; i < 2048; i++) { u[i] = 1.0; }\n"
      "    #pragma omp for\n"
      "    for (j = 0; j < 2048; j++) { v[j] = u[j]; }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(find_diag(p.analysis, kDiagNowaitCrossRegionRead), nullptr);
}

TEST(CrossRegion, AllPingPongPhasesDemotePreferUpdate) {
  const Analyzed p = analyze_program(
      "double pair[32];\n"
      "int main(void) {\n"
      "  int i;\n"
      "  #pragma omp parallel for\n"
      "  for (i = 0; i < 1024; i++) {\n"
      "    pair[0] = pair[1] + pair[2];\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  const Diagnostic* d = find_diag(p.analysis, kDiagHintPingpongDemotion);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kNote);
  EXPECT_EQ(d->var, "pair");
  const SymbolHint* h = p.analysis.hints.find("pair");
  ASSERT_NE(h, nullptr);
  EXPECT_FALSE(h->prefer_update);
  for (const PhaseHint& ph : p.analysis.hints.phases) {
    for (const PhaseRange& r : ph.ranges) {
      if (r.symbol == "pair") {
        EXPECT_FALSE(r.prefer_update);
      }
    }
  }
}

TEST(CrossRegion, PartitionedProducerIsNotDemoted) {
  const Analyzed p = analyze_program(kTwoPhaseProgram);
  EXPECT_EQ(find_diag(p.analysis, kDiagHintPingpongDemotion), nullptr);
}

// ---------------------------------------------------------------------------
// Static message-cost report

TEST(CostModel, ReportPricesConstructsAndSerializes) {
  const Analyzed p = analyze_program(kTwoPhaseProgram);
  const CostReport report =
      estimate_message_costs(p.unit, {}, p.analysis, /*nodes=*/4);
  EXPECT_EQ(report.nodes, 4);
  ASSERT_FALSE(report.constructs.empty());
  // The producer phase must predict diff traffic; some construct fetches u
  // remotely in the consumer phase.
  EXPECT_GT(report.total_diffs_created(), 0.0);
  EXPECT_GT(report.total_page_fetches(), 0.0);
  // Entries are sorted by line for deterministic output.
  EXPECT_TRUE(std::is_sorted(report.constructs.begin(),
                             report.constructs.end(),
                             [](const ConstructCost& a, const ConstructCost& b) {
                               return a.line < b.line;
                             }));

  const std::string json = report.to_json("two_phase.c");
  auto doc = obs::parse_json(json);
  ASSERT_TRUE(doc.is_ok()) << json;
  EXPECT_EQ(doc.value().at("nodes").as_int(), 4);
  ASSERT_TRUE(doc.value().at("totals").is_object());
  EXPECT_TRUE(doc.value().at("totals").has("dsm.page_fetches"));
  EXPECT_TRUE(doc.value().at("totals").has("dsm.diffs_created"));
  EXPECT_TRUE(doc.value().at("totals").has("dsm.lock_acquires"));

  const std::string text = report.to_text("two_phase.c");
  EXPECT_NE(text.find("static message-cost estimate"), std::string::npos);
}

TEST(CostModel, LockBoundConstructsChargeAcquires) {
  const Analyzed p = analyze_program(
      "double acc[512];\n"
      "int main(void) {\n"
      "  int i;\n"
      "  int j;\n"
      "  #pragma omp parallel for\n"
      "  for (i = 0; i < 64; i++) {\n"
      "    #pragma omp critical\n"
      "    { for (j = 0; j < 512; j++) { acc[j] = acc[j] + 1.0; } }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  const CostReport report =
      estimate_message_costs(p.unit, {}, p.analysis, /*nodes=*/2);
  EXPECT_GT(report.total_lock_acquires(), 0.0);
}

}  // namespace
}  // namespace parade::translator
