#include "net/fault.hpp"

#include <cstdlib>

#include "common/env.hpp"
#include "obs/registry.hpp"

namespace parade::net {
namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    if (end == std::string::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

Status bad_spec(const std::string& entry, const char* why) {
  return make_error(ErrorCode::kInvalidArgument,
                    "fault plan entry '" + entry + "': " + why);
}

/// Parses "a-b@start:heal" (heal empty → never). Probabilities and windows
/// are validated; anything unparseable is an error, not silently ignored.
Result<PartitionEvent> parse_partition(const std::string& entry,
                                       const std::string& value,
                                       bool by_epoch) {
  PartitionEvent event;
  event.by_epoch = by_epoch;
  const auto at = value.find('@');
  const std::string pair = at == std::string::npos ? value : value.substr(0, at);
  const auto dash = pair.find('-');
  if (dash == std::string::npos) return bad_spec(entry, "expected a-b pair");
  char* end = nullptr;
  event.a = static_cast<NodeId>(std::strtol(pair.c_str(), &end, 10));
  event.b = static_cast<NodeId>(
      std::strtol(pair.c_str() + dash + 1, &end, 10));
  if (event.a < 0 || event.b < 0 || event.a == event.b) {
    return bad_spec(entry, "invalid node pair");
  }
  if (at != std::string::npos) {
    const std::string window = value.substr(at + 1);
    const auto colon = window.find(':');
    const std::string start_s =
        colon == std::string::npos ? window : window.substr(0, colon);
    if (!start_s.empty()) {
      event.start = std::strtoull(start_s.c_str(), &end, 10);
    }
    if (colon != std::string::npos) {
      const std::string heal_s = window.substr(colon + 1);
      if (!heal_s.empty()) {
        event.heal = std::strtoull(heal_s.c_str(), &end, 10);
        if (*event.heal <= event.start) {
          return bad_spec(entry, "heal must follow start");
        }
      }
    } else {
      return bad_spec(entry, "expected @start:heal window");
    }
  }
  return event;
}

Result<double> parse_prob(const std::string& entry, const std::string& value) {
  char* end = nullptr;
  const double p = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || p < 0.0 || p > 1.0) {
    return bad_spec(entry, "expected probability in [0, 1]");
  }
  return p;
}

}  // namespace

Result<FaultPlan> FaultPlan::parse(const std::string& spec,
                                   std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  for (const std::string& entry : split(spec, ',')) {
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    if (eq == std::string::npos) return bad_spec(entry, "expected key=value");
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    if (key == "drop" || key == "dup" || key == "reorder" || key == "delay") {
      auto p = parse_prob(entry, value);
      if (!p.is_ok()) return p.status();
      if (key == "drop") plan.drop_p = p.value();
      else if (key == "dup") plan.dup_p = p.value();
      else if (key == "reorder") plan.reorder_p = p.value();
      else plan.delay_p = p.value();
    } else if (key == "delay_us") {
      char* end = nullptr;
      plan.delay_max_us = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || plan.delay_max_us < 0.0) {
        return bad_spec(entry, "expected non-negative microseconds");
      }
    } else if (key == "seed") {
      plan.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "part" || key == "epart") {
      auto event = parse_partition(entry, value, key == "epart");
      if (!event.is_ok()) return event.status();
      plan.partitions.push_back(event.value());
    } else {
      return bad_spec(entry, "unknown key");
    }
  }
  return plan;
}

FaultPlan default_chaos_plan(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.drop_p = 0.02;
  plan.dup_p = 0.02;
  plan.reorder_p = 0.05;
  plan.delay_p = 0.10;
  plan.delay_max_us = 200.0;
  return plan;
}

std::optional<FaultPlan> FaultPlan::from_env() {
  const auto seed = env::get_int("PARADE_FAULT_SEED");
  const auto spec = env::get_string("PARADE_FAULT_PLAN");
  if (!seed && !spec) return std::nullopt;
  const std::uint64_t seed_value =
      seed ? static_cast<std::uint64_t>(*seed) : 0;
  if (!spec) return default_chaos_plan(seed_value);
  auto plan = FaultPlan::parse(*spec, seed_value);
  // A malformed env plan must not silently run fault-free.
  PARADE_CHECK_MSG(plan.is_ok(), plan.status().to_string());
  return std::move(plan).value();
}

RetryPolicy RetryPolicy::from_env() {
  RetryPolicy policy;
  policy.timeout_ms = static_cast<int>(
      env::get_int_or("PARADE_RETRY_TIMEOUT_MS", policy.timeout_ms));
  policy.max_attempts = static_cast<int>(
      env::get_int_or("PARADE_RETRY_MAX", policy.max_attempts));
  return policy;
}

Status RetryPolicy::exhausted(const char* reason) {
  // Unhealed partition or dead channel: dump the trace ring before reporting,
  // so the message chain leading up to the silence is preserved.
  obs::Registry::instance().flight_record(reason);
  return make_error(ErrorCode::kUnavailable,
                    std::string(reason) +
                        ": no answer within the retry budget");
}

}  // namespace parade::net
