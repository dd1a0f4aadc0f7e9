// Loader for the translator's protocol-hint sidecar (the JSON emitted by
// `parade_omcc --hints=json` and embedded in generated programs): per-symbol
// update-vs-invalidate priors, static page-touch estimates and SPMD pool
// offsets, lowered into DsmConfig::page_priors so DsmNode::start() can seed
// the page table before the first fault. See docs/ANALYZER.md.
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "dsm/config.hpp"

namespace parade::dsm {

/// Parses a hints document (schema v2, the only one the translator writes)
/// into page priors. Symbols that are not DSM-placed (`"dsm": false`) or
/// whose pool offset the translator could not compute statically
/// (`"offset_known": false`) are skipped — they carry no actionable range.
/// The `phases` array additionally yields epoch-ranged priors
/// (PagePrior::phase >= 0): the interference pass's per-phase sharing
/// classification, re-projected by the node at every barrier epoch.
/// Malformed JSON or a missing/unknown schema version is an error; an empty
/// symbol list is a valid empty result.
Result<std::vector<PagePrior>> parse_page_priors(const std::string& hints_json);

/// Reads the sidecar file at `path` and replaces `config->page_priors` with
/// its priors.
Status load_page_priors(const std::string& path, DsmConfig* config);

/// Registers the hints blob a generated program embeds (xlat::launch passes
/// it through here before the runtime builds its config). Returns nullptr
/// when no program registered one. The pointer must stay valid for the
/// process lifetime — generated code passes a static string literal.
void set_embedded_hints_json(const char* json);
const char* embedded_hints_json();

}  // namespace parade::dsm
