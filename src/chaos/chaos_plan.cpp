#include "chaos/chaos_plan.h"

#include "support/json.h"
#include "support/json_parse.h"
#include "support/rng.h"

namespace sgxmig::chaos {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kMeCrash:
      return "me-crash";
    case FaultKind::kMeRestart:
      return "me-restart";
    case FaultKind::kEndpointFlap:
      return "endpoint-flap";
    case FaultKind::kTamper:
      return "tamper";
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kReplyLoss:
      return "reply-loss";
    case FaultKind::kChunkCorrupt:
      return "chunk-corrupt";
  }
  return "unknown";
}

Result<FaultKind> fault_kind_from_name(std::string_view name) {
  for (const FaultKind kind :
       {FaultKind::kMeCrash, FaultKind::kMeRestart, FaultKind::kEndpointFlap,
        FaultKind::kTamper, FaultKind::kDrop, FaultKind::kReplyLoss,
        FaultKind::kChunkCorrupt}) {
    if (name == fault_kind_name(kind)) return kind;
  }
  return Status::kInvalidParameter;
}

std::string ChaosPlan::to_json() const {
  JsonWriter w;
  w.begin_object().key("seed").integer(seed).key("events").begin_array();
  for (const FaultEvent& e : events) {
    w.begin_object();
    w.key("kind").string(fault_kind_name(e.kind));
    w.key("target").string(e.target);
    w.key("at_wave").integer(e.at_wave);
    w.key("at_round").integer(e.at_round);
    w.key("at_seconds").number(to_seconds(e.at), 6);
    w.key("duration_seconds").number(to_seconds(e.duration), 6);
    w.key("msg_type").integer(e.msg_type);
    w.key("probability").number(e.probability, 6);
    w.key("max_firings").integer(e.max_firings);
    w.end_object();
  }
  w.end_array().end_object();
  return std::move(w).str();
}

Result<ChaosPlan> ChaosPlan::from_json(std::string_view text) {
  auto parsed = parse_json(text);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& doc = parsed.value();
  if (!doc.is_object()) return Status::kInvalidParameter;
  const JsonValue* seed_value = doc.find("seed");
  const JsonValue* events_value = doc.find("events");
  if (seed_value == nullptr || !seed_value->is_number() ||
      events_value == nullptr || !events_value->is_array()) {
    return Status::kInvalidParameter;
  }

  ChaosPlan plan;
  plan.seed = static_cast<uint64_t>(seed_value->as_number());
  for (const JsonValue& item : events_value->items()) {
    if (!item.is_object()) return Status::kInvalidParameter;
    const JsonValue* kind_value = item.find("kind");
    if (kind_value == nullptr || !kind_value->is_string()) {
      return Status::kInvalidParameter;
    }
    auto kind = fault_kind_from_name(kind_value->as_string());
    if (!kind.ok()) return kind.status();

    FaultEvent event;
    event.kind = kind.value();
    const auto number_field = [&item](std::string_view key) -> double {
      const JsonValue* v = item.find(key);
      return v != nullptr && v->is_number() ? v->as_number() : 0.0;
    };
    if (const JsonValue* v = item.find("target");
        v != nullptr && v->is_string()) {
      event.target = v->as_string();
    }
    event.at_wave = static_cast<uint32_t>(number_field("at_wave"));
    event.at_round = static_cast<uint32_t>(number_field("at_round"));
    event.at = seconds(number_field("at_seconds"));
    event.duration = seconds(number_field("duration_seconds"));
    event.msg_type = static_cast<uint8_t>(number_field("msg_type"));
    event.probability = number_field("probability");
    event.max_firings = static_cast<uint32_t>(number_field("max_firings"));
    plan.events.push_back(std::move(event));
  }
  return plan;
}

StormProfile mixed_profile() { return StormProfile{}; }

StormProfile wire_heavy_profile() {
  StormProfile profile;
  profile.name = "wire-heavy";
  profile.me_crash_restart_pairs = 0;
  profile.endpoint_flaps = 3;
  profile.tamper_probability = 0.15;
  profile.drop_probability = 0.10;
  profile.reply_loss_probability = 0.12;
  profile.chunk_corrupt_probability = 0.10;
  profile.wire_rule_max_firings = 40;
  return profile;
}

StormProfile crash_heavy_profile() {
  StormProfile profile;
  profile.name = "crash-heavy";
  profile.me_crash_restart_pairs = 2;
  profile.crash_wave_span = 6;
  profile.revive_after_waves = 2;
  profile.endpoint_flaps = 1;
  profile.tamper_probability = 0.03;
  profile.drop_probability = 0.02;
  profile.reply_loss_probability = 0.03;
  profile.chunk_corrupt_probability = 0.0;
  profile.wire_rule_max_firings = 8;
  return profile;
}

ChaosPlan generate_storm(uint64_t seed, const StormProfile& profile,
                         const std::string& source_machine,
                         const std::vector<std::string>& destinations) {
  Rng rng(seed);
  ChaosPlan plan;
  plan.seed = seed;

  // ME crash/restart pairs on the drain source.  Crashes of one storm
  // fire at distinct waves only by chance — overlapping pairs are legal
  // (a crash of an already-dead ME is a no-op the executor skips).
  for (uint32_t i = 0; i < profile.me_crash_restart_pairs; ++i) {
    const uint32_t crash_wave =
        1 + static_cast<uint32_t>(
                rng.uniform(profile.crash_wave_span > 0
                                ? profile.crash_wave_span
                                : 1));
    FaultEvent crash;
    crash.kind = FaultKind::kMeCrash;
    crash.target = source_machine;
    crash.at_wave = crash_wave;
    plan.events.push_back(crash);

    FaultEvent restart;
    restart.kind = FaultKind::kMeRestart;
    restart.target = source_machine;
    restart.at_wave = crash_wave + profile.revive_after_waves;
    plan.events.push_back(restart);
  }

  // Destination-endpoint flaps, early in the drain.
  for (uint32_t i = 0; i < profile.endpoint_flaps && !destinations.empty();
       ++i) {
    const std::string& machine =
        destinations[rng.uniform(destinations.size())];
    FaultEvent flap;
    flap.kind = FaultKind::kEndpointFlap;
    flap.target = machine + "/me";
    flap.at = seconds(rng.uniform_double() * profile.flap_window_seconds);
    flap.duration = seconds(
        profile.flap_min_seconds +
        rng.uniform_double() *
            (profile.flap_max_seconds - profile.flap_min_seconds));
    plan.events.push_back(flap);
  }

  // Probabilistic wire-fault rules (msg_type 0 = the kind's default
  // match set; target "" = any /me endpoint).
  const auto wire_rule = [&plan, &profile](FaultKind kind,
                                           double probability) {
    if (probability <= 0.0) return;
    FaultEvent rule;
    rule.kind = kind;
    rule.probability = probability;
    rule.max_firings = profile.wire_rule_max_firings;
    plan.events.push_back(rule);
  };
  wire_rule(FaultKind::kTamper, profile.tamper_probability);
  wire_rule(FaultKind::kDrop, profile.drop_probability);
  wire_rule(FaultKind::kReplyLoss, profile.reply_loss_probability);
  wire_rule(FaultKind::kChunkCorrupt, profile.chunk_corrupt_probability);
  return plan;
}

}  // namespace sgxmig::chaos
