// ChaosExecutor — compiles a declarative ChaosPlan onto the existing
// fault primitives and keeps per-kind injection accounting:
//
//   kMeCrash / kMeRestart  -> Orchestrator WaveHook / RoundHook
//                             (Machine::kill/restart_management_enclave)
//   kEndpointFlap          -> net::Network::schedule_endpoint_flap
//   kTamper / kDrop /        -> net::Network tamper hook
//   kChunkCorrupt
//   kReplyLoss             -> net::Network response-tamper hook
//
// While armed, every fault that actually fires emits a "chaos.fault"
// trace instant (and every scheduled heal a "chaos.heal") so the
// recovery oracle (chaos::check_fault_recovery) can verify each injected
// fault is followed by a traced recovery path, and
// scripts/trace_check.py --chaos can match the fault count.  All
// probability draws come from a PRIVATE Rng derived from the plan seed
// and happen whether or not tracing is enabled, so traced and untraced
// storms of the same seed are bit-identical in virtual time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chaos/chaos_plan.h"
#include "orchestrator/orchestrator.h"
#include "platform/world.h"
#include "support/rng.h"

namespace sgxmig::chaos {

class ChaosExecutor {
 public:
  ChaosExecutor(platform::World& world, ChaosPlan plan);
  ~ChaosExecutor();

  ChaosExecutor(const ChaosExecutor&) = delete;
  ChaosExecutor& operator=(const ChaosExecutor&) = delete;

  /// Installs the plan: wave/round hooks on `orch` (owned while armed),
  /// tamper + response hooks on the world's network, and the scheduled
  /// flap windows (their fault/heal instants are recorded immediately,
  /// timestamped at the window edges).  Re-arming first disarms.
  void arm(orchestrator::Orchestrator& orch);

  /// Uninstalls every hook and clears the scheduled flap windows.  Safe
  /// to call repeatedly; the destructor calls it.
  void disarm();

  const ChaosPlan& plan() const { return plan_; }

  /// Raw per-key injection counts ("injected.<kind>" plus per-message
  /// "msg.<me-msg-name>" coverage for wire faults).
  const std::map<std::string, uint64_t>& injected() const {
    return injected_;
  }
  uint64_t injected_total() const;

  /// Chaos block for OrchestratorReport::chaos_stats: the plan seed,
  /// "injected.total", and every raw count.  The harness merges its own
  /// oracle verdicts (e.g. "forks") on top.
  std::map<std::string, uint64_t> report_stats() const;

 private:
  void on_wave(uint32_t wave);
  void on_round(uint64_t enclave_id, uint32_t round);
  /// Tamper-hook body: applies the first matching armed wire rule.
  bool on_request(const std::string& to, Bytes& request);
  bool on_response(const std::string& to, Bytes& response);
  void fire_crash(const FaultEvent& event);
  void fire_restart(const FaultEvent& event);
  void count(const FaultEvent& event);
  void record_fault(const std::string& lane, FaultKind kind,
                    const std::string& detail);
  void record_heal(const std::string& lane, FaultKind kind,
                   const std::string& detail);

  platform::World& world_;
  ChaosPlan plan_;
  Rng rng_;
  orchestrator::Orchestrator* armed_orch_ = nullptr;
  bool hooks_installed_ = false;
  /// Per-event firing counts (max_firings enforcement; crash/restart and
  /// round-triggered events fire at most once).
  std::vector<uint32_t> firings_;
  std::map<std::string, uint64_t> injected_;
};

}  // namespace sgxmig::chaos
