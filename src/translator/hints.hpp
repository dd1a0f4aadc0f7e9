// Static protocol hints: the translation-time half of the adaptive hybrid
// protocol (docs/ANALYZER.md "Protocol hints").
//
// The affine footprint analysis estimates, per file-scope symbol, how much
// of it each parallel construct touches and at what read/write ratio. Hint
// synthesis lowers those footprints into a per-symbol update-vs-invalidate
// prior that refines codegen's raw mp_threshold_bytes comparison: a
// threshold-fallback critical/atomic whose symbol prefers the update path is
// promoted to update-by-collective. The hints end at codegen; the runtime
// reads none of them (the DSM moves homes by its own barrier-time rule).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace parade::translator {

struct SymbolHint {
  std::string name;
  std::size_t byte_size = 0;       // declared size (0 = unknown)
  std::size_t reads = 0;           // accesses inside parallel constructs
  std::size_t writes = 0;
  std::size_t footprint_bytes = 0; // largest per-construct affine footprint
  int writer_constructs = 0;       // distinct parallel constructs writing it
  bool prefer_update = false;      // update-by-collective over invalidate
};

/// Cross-phase sharing classification of one symbol's page footprint
/// (interference pass, docs/ANALYZER.md classification table).
enum class SharingPattern {
  kReadMostly,        // no writers in the phase
  kProducerConsumer,  // one writing phase feeding later reading phases
  kMigratory,         // sole writer per phase; writer may move across phases
  kPingPong           // concurrent writers inside one phase
};

const char* to_string(SharingPattern pattern);

/// The sharing pattern of one DSM-placed symbol in one program phase.
struct PhaseRange {
  std::string symbol;
  SharingPattern pattern = SharingPattern::kReadMostly;
};

/// All classified symbols of one phase (phases are numbered from 0 in
/// program order).
struct PhaseHint {
  int index = 0;
  std::vector<PhaseRange> ranges;
};

struct ProtocolHints {
  std::size_t page_bytes = 4096;
  std::size_t threshold_bytes = 256;
  std::vector<SymbolHint> symbols;

  /// Per-phase sharing classification (interference pass; empty when the
  /// phase timeline is not static or the pass was disabled).
  std::vector<PhaseHint> phases;
  int phase_count = 0;  // barrier-delimited phases seen in the program

  const SymbolHint* find(const std::string& name) const;
  /// The `parade_omcc --hints=json` report (schema in docs/ANALYZER.md).
  std::string to_json() const;
};

}  // namespace parade::translator
