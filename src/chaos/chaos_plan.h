// Declarative chaos plans (ISSUE 9 tentpole, paper §III-B/§V-D threat
// model): a ChaosPlan is a typed schedule of fault events — ME
// crash/restart at wave N, endpoint down-up flaps with durations,
// per-message-type tamper/drop rules with probabilities, response-loss
// ("processed but reply lost") injections, and pre-copy chunk corruption.
// Plans are DATA: the ChaosExecutor (chaos_executor.h) compiles them onto
// the orchestrator's wave/round hooks and the network's tamper/flap
// primitives, and the seeded storm generator samples randomized plans
// from a fault-mix profile with the repo's deterministic RNG — the seed
// is embedded in the plan (and every report built from it) so any failing
// storm replays exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/sim_clock.h"

namespace sgxmig::chaos {

enum class FaultKind : uint8_t {
  /// Kill the Migration Enclave on machine `target` (EPC contents die;
  /// the durable transfer queue survives on disk).  Fires on the wave (or
  /// pre-copy round) hook.
  kMeCrash = 0,
  /// Restart the ME on machine `target` from its installed factory.
  kMeRestart = 1,
  /// Endpoint `target` unreachable during [at, at + duration) — the
  /// network's scheduled flap primitive, composable with tamper rules.
  kEndpointFlap = 2,
  /// Flip a byte inside matching sealed records in flight (channel MAC
  /// failure — the retryable tamper class; corrupted attestation
  /// HANDSHAKES are fatal by design and never targeted by default).
  kTamper = 3,
  /// Drop matching requests on the wire (transport failure, retryable
  /// for every message type).
  kDrop = 4,
  /// Drop matching REPLIES after the handler ran — the "processed but
  /// reply lost" failure mode the durable queue must survive (§V-D).
  kReplyLoss = 5,
  /// Corrupt pre-copy chunk records specifically (round re-ship path).
  kChunkCorrupt = 6,
};

/// Stable name of a fault kind ("me-crash", "endpoint-flap", ...), used
/// in chaos stats keys and trace instant args.
const char* fault_kind_name(FaultKind kind);

/// One scheduled or probabilistic fault.  Which fields are meaningful
/// depends on the kind:
///   kMeCrash / kMeRestart: target (machine address) + at_wave, or
///     at_round for pre-copy-round-triggered firing, or at_completion:
///     a crash fires at the fleet's at_completion-th completed move (while
///     other admitted moves still hold queue entries), a restart on the
///     at_wave-th wave after it;
///   kEndpointFlap:         target (endpoint) + at (offset from the
///     executor's arm instant) + duration;
///   kTamper/kDrop/kReplyLoss/kChunkCorrupt: target ("" = any /me
///     endpoint), msg_type (MeMsgType value; 0 = the kind's default
///     match set), probability, max_firings (0 = unlimited).
struct FaultEvent {
  FaultKind kind = FaultKind::kDrop;
  std::string target;
  uint32_t at_wave = 0;
  uint32_t at_round = 0;  // 0 = wave-triggered (crash/restart kinds)
  uint32_t at_completion = 0;  // 0 = not completion-triggered
  Duration at{};
  Duration duration{};
  uint8_t msg_type = 0;
  double probability = 1.0;
  uint32_t max_firings = 0;

  bool operator==(const FaultEvent&) const = default;
};

/// A full storm: the generator seed plus the event schedule.  The seed
/// replays it: generate_storm draws the same plan from the same seed.
struct ChaosPlan {
  uint64_t seed = 0;
  std::vector<FaultEvent> events;

  bool operator==(const ChaosPlan&) const = default;
};

/// The source-ME crash drill of the orchestrated drains: the MEs on
/// `targets` crash at the fleet's `completion`-th completed move and
/// restart, in `targets` order, on the `revive_after_waves`-th wave after
/// it.
ChaosPlan crash_at_completion(const std::vector<std::string>& targets,
                              uint32_t completion,
                              uint32_t revive_after_waves);

/// Fault-mix profile the storm generator samples from.  All windows are
/// virtual time; flap windows stay early in the drain so every injected
/// fault has drain traffic after it (the recovery oracle's horizon).
struct StormProfile {
  std::string name = "mixed";
  /// ME crash+restart pairs on the SOURCE machine (the drain's hot spot).
  uint32_t me_crash_restart_pairs = 1;
  /// Crash waves are drawn from [1, crash_wave_span].
  uint32_t crash_wave_span = 4;
  /// The paired restart fires this many waves after its crash.
  uint32_t revive_after_waves = 3;
  /// Destination-endpoint flaps drawn across the destinations.
  uint32_t endpoint_flaps = 2;
  /// Flap start instants are drawn from [0, flap_window_seconds).
  double flap_window_seconds = 1.5;
  double flap_min_seconds = 0.05;
  double flap_max_seconds = 0.35;
  // Per-message firing probabilities of the wire-fault rules (0 = rule
  // not generated).
  double tamper_probability = 0.08;
  double drop_probability = 0.05;
  double reply_loss_probability = 0.06;
  double chunk_corrupt_probability = 0.05;
  /// Firing budget per generated wire rule (FaultEvent::max_firings): a
  /// storm FRONT that passes, not permanent weather.  Unbounded rules
  /// (0) can legitimately starve convergence — retries are hit at the
  /// same rate as first attempts forever — which is a different
  /// experiment than the convergence gate runs.
  uint32_t wire_rule_max_firings = 20;
};

/// Canned profiles for benches/CI: a balanced mix, a wire-fault-heavy
/// storm (no crashes), and a crash-heavy storm (little wire noise).
StormProfile mixed_profile();
StormProfile wire_heavy_profile();
StormProfile crash_heavy_profile();

/// Samples a randomized ChaosPlan from `profile` with a PRIVATE
/// deterministic Rng(seed): same seed + profile + topology => the same
/// plan, independent of any other RNG use in the world.
ChaosPlan generate_storm(uint64_t seed, const StormProfile& profile,
                         const std::string& source_machine,
                         const std::vector<std::string>& destinations);

}  // namespace sgxmig::chaos
