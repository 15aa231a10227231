#include "chaos/chaos_plan.h"

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

ChaosPlan crash_at_completion(const std::vector<std::string>& targets,
                              uint32_t completion,
                              uint32_t revive_after_waves) {
  ChaosPlan plan;
  for (const FaultKind kind : {FaultKind::kMeCrash, FaultKind::kMeRestart}) {
    for (const std::string& target : targets) {
      FaultEvent event;
      event.kind = kind;
      event.target = target;
      event.at_completion = completion;
      if (kind == FaultKind::kMeRestart) event.at_wave = revive_after_waves;
      plan.events.push_back(event);
    }
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
