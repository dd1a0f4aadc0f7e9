#include "dsm/priors.hpp"

#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.hpp"

namespace parade::dsm {

namespace {

const char* g_embedded_hints = nullptr;

bool bool_field(const obs::JsonValue& symbol, const std::string& name) {
  return symbol.has(name) &&
         symbol.at(name).kind == obs::JsonValue::Kind::kBool &&
         symbol.at(name).boolean;
}

std::size_t int_field(const obs::JsonValue& symbol, const std::string& name,
                      std::size_t fallback) {
  if (!symbol.has(name) ||
      symbol.at(name).kind != obs::JsonValue::Kind::kNumber) {
    return fallback;
  }
  const std::int64_t v = symbol.at(name).as_int();
  return v < 0 ? fallback : static_cast<std::size_t>(v);
}

}  // namespace

Result<std::vector<PagePrior>> parse_page_priors(
    const std::string& hints_json) {
  auto parsed = obs::parse_json(hints_json);
  if (!parsed.is_ok()) return parsed.status();
  const obs::JsonValue& doc = parsed.value();
  if (!doc.is_object() || !doc.has("version")) {
    return make_error(ErrorCode::kInvalidArgument,
                      "hints document is not a protocol-hint sidecar");
  }
  const std::int64_t version = doc.at("version").as_int();
  if (version != 2) {
    return make_error(ErrorCode::kInvalidArgument,
                      "unsupported protocol-hint sidecar version " +
                          std::to_string(version) +
                          " (this runtime reads v2)");
  }
  std::vector<PagePrior> priors;
  if (doc.has("symbols") && doc.at("symbols").is_array()) {
    for (const obs::JsonValue& symbol : doc.at("symbols").array) {
      if (!symbol.is_object()) continue;
      // Replicated symbols and symbols without a statically known pool
      // offset carry no range the page table could be seeded with.
      if (!bool_field(symbol, "dsm") || !bool_field(symbol, "offset_known")) {
        continue;
      }
      PagePrior prior;
      prior.offset = int_field(symbol, "pool_offset", 0);
      prior.bytes = int_field(symbol, "bytes", 0);
      prior.prefer_update = bool_field(symbol, "prefer_update");
      prior.migration_friendly = bool_field(symbol, "migration_friendly");
      prior.expected_touches = int_field(symbol, "expected_page_touches", 1);
      if (prior.bytes == 0) continue;
      priors.push_back(prior);
    }
  }
  // Epoch-ranged priors. Each phase record projects its ranges onto one DSM
  // epoch: translator phase p runs during epoch p + epoch_base (the base
  // accounts for the generated program's shared-init barrier).
  if (doc.has("phases") && doc.at("phases").is_array()) {
    const int epoch_base =
        static_cast<int>(int_field(doc, "epoch_base", 0));
    for (const obs::JsonValue& phase : doc.at("phases").array) {
      if (!phase.is_object() || !phase.has("index") ||
          !phase.has("ranges") || !phase.at("ranges").is_array()) {
        continue;
      }
      const int epoch =
          static_cast<int>(phase.at("index").as_int()) + epoch_base;
      for (const obs::JsonValue& range : phase.at("ranges").array) {
        if (!range.is_object()) continue;
        PagePrior prior;
        prior.offset = int_field(range, "offset", 0);
        prior.bytes = int_field(range, "bytes", 0);
        prior.prefer_update = bool_field(range, "prefer_update");
        prior.migration_friendly = bool_field(range, "migration_friendly");
        prior.phase = epoch;
        if (prior.bytes == 0 || epoch < 0) continue;
        priors.push_back(prior);
      }
    }
  }
  return priors;
}

Status load_page_priors(const std::string& path, DsmConfig* config) {
  std::ifstream in(path);
  if (!in) {
    return make_error(ErrorCode::kIoError, "cannot open hints file " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto priors = parse_page_priors(text.str());
  if (!priors.is_ok()) return priors.status();
  config->page_priors = std::move(priors).value();
  return Status::ok();
}

void set_embedded_hints_json(const char* json) { g_embedded_hints = json; }

const char* embedded_hints_json() { return g_embedded_hints; }

}  // namespace parade::dsm
