#include "chaos/chaos_executor.h"

#include <algorithm>

#include "migration/protocol.h"
#include "obs/observability.h"

namespace sgxmig::chaos {

namespace {

using migration::MeMsgType;
using migration::MeRequest;

std::string lane_of(const std::string& endpoint) {
  const size_t slash = endpoint.find('/');
  return slash == std::string::npos ? endpoint : endpoint.substr(0, slash);
}

bool is_wire_request_kind(FaultKind kind) {
  return kind == FaultKind::kTamper || kind == FaultKind::kDrop ||
         kind == FaultKind::kChunkCorrupt;
}

bool target_matches(const std::string& target, const std::string& to) {
  if (target.empty()) return true;
  if (target.find('/') != std::string::npos) return to == target;
  return to == target + "/me";
}

bool type_matches(const FaultEvent& event, MeMsgType type) {
  if (event.msg_type != 0) {
    return type == static_cast<MeMsgType>(event.msg_type);
  }
  switch (event.kind) {
    case FaultKind::kTamper:
      // Default tamper set: sealed records, whose corruption fails the
      // channel MAC and is RETRYABLE.  Attestation handshake messages
      // are excluded — corrupting those is classified fatal by design.
      return type == MeMsgType::kLaRecord || type == MeMsgType::kTransfer ||
             type == MeMsgType::kDone || type == MeMsgType::kPrecopyChunk;
    case FaultKind::kChunkCorrupt:
      return type == MeMsgType::kPrecopyChunk;
    default:
      // Drops are plain transport failures — retryable for every type.
      return true;
  }
}

}  // namespace

ChaosExecutor::ChaosExecutor(platform::World& world, ChaosPlan plan)
    : world_(world),
      plan_(std::move(plan)),
      // Private stream, decorrelated from the generator's Rng(seed).
      rng_(plan_.seed ^ 0x9e3779b97f4a7c15ULL),
      firings_(plan_.events.size(), 0),
      waves_after_completion_(plan_.events.size(), 0) {}

ChaosExecutor::~ChaosExecutor() { disarm(); }

void ChaosExecutor::arm(orchestrator::Orchestrator& orch) {
  disarm();
  armed_orch_ = &orch;
  orch.set_wave_hook([this](uint32_t wave) { on_wave(wave); });
  orch.set_round_hook(
      [this](uint64_t enclave_id, uint32_t round) {
        on_round(enclave_id, round);
      });
  world_.network().set_tamper_hook(
      [this](const std::string& to, Bytes& request) {
        return on_request(to, request);
      });
  world_.network().set_response_tamper_hook(
      [this](const std::string& to, Bytes& response) {
        return on_response(to, response);
      });
  hooks_installed_ = true;
  completion_hooked_ =
      std::any_of(plan_.events.begin(), plan_.events.end(),
                  [](const FaultEvent& e) { return e.at_completion != 0; });
  if (completion_hooked_) {
    orch.fleet().set_completion_callback(
        [this](const orchestrator::EnclaveRecord&) { on_completion(); });
  }

  // Flap windows are declared RELATIVE to arm time (the drain start), so
  // a plan generated before world setup still lands inside the drain.
  const Duration base = world_.clock().now();
  obs::Observability& obs = world_.observability();
  obs::TraceRecorder* rec = obs.enabled() ? &obs.trace : nullptr;
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& event = plan_.events[i];
    if (event.kind != FaultKind::kEndpointFlap) continue;
    world_.network().schedule_endpoint_flap(event.target, base + event.at,
                                            event.duration);
    ++firings_[i];
    count(event);
    injected_["healed.endpoint-flap"] += 1;
    if (rec != nullptr) {
      rec->instant_at(base + event.at, "chaos.fault", lane_of(event.target),
                      0,
                      {{"kind", fault_kind_name(event.kind)},
                       {"detail", event.target}});
      rec->instant_at(base + event.at + event.duration, "chaos.heal",
                      lane_of(event.target), 0,
                      {{"kind", fault_kind_name(event.kind)},
                       {"detail", event.target}});
    }
  }
}

void ChaosExecutor::disarm() {
  if (armed_orch_ != nullptr) {
    armed_orch_->set_wave_hook(nullptr);
    armed_orch_->set_round_hook(nullptr);
    if (completion_hooked_) {
      armed_orch_->fleet().set_completion_callback(nullptr);
    }
    completion_hooked_ = false;
    armed_orch_ = nullptr;
  }
  if (hooks_installed_) {
    world_.network().clear_tamper_hook();
    world_.network().clear_response_tamper_hook();
    for (const FaultEvent& event : plan_.events) {
      if (event.kind == FaultKind::kEndpointFlap) {
        world_.network().clear_endpoint_flaps(event.target);
      }
    }
    hooks_installed_ = false;
  }
}

uint64_t ChaosExecutor::injected_total() const {
  uint64_t total = 0;
  for (const auto& [key, value] : injected_) {
    if (key.rfind("injected.", 0) == 0) total += value;
  }
  return total;
}

std::map<std::string, uint64_t> ChaosExecutor::report_stats() const {
  std::map<std::string, uint64_t> stats = injected_;
  stats["seed"] = plan_.seed;
  stats["injected.total"] = injected_total();
  return stats;
}

void ChaosExecutor::on_wave(uint32_t wave) {
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& event = plan_.events[i];
    if (firings_[i] != 0 || event.at_round != 0) continue;
    if (event.at_completion != 0) {
      // A completion-triggered restart counts the waves after its
      // completion.
      if (event.kind != FaultKind::kMeRestart ||
          completions_ < event.at_completion ||
          ++waves_after_completion_[i] < event.at_wave) {
        continue;
      }
      firings_[i] = 1;
      fire_restart(event);
      continue;
    }
    if (event.at_wave != wave) continue;
    if (event.kind == FaultKind::kMeCrash) {
      firings_[i] = 1;
      fire_crash(event);
    } else if (event.kind == FaultKind::kMeRestart) {
      firings_[i] = 1;
      fire_restart(event);
    }
  }
}

void ChaosExecutor::on_round(uint64_t enclave_id, uint32_t round) {
  (void)enclave_id;
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& event = plan_.events[i];
    if (event.at_round == 0 || event.at_round != round) continue;
    if (firings_[i] != 0) continue;
    if (event.kind == FaultKind::kMeCrash) {
      firings_[i] = 1;
      fire_crash(event);
    } else if (event.kind == FaultKind::kMeRestart) {
      firings_[i] = 1;
      fire_restart(event);
    }
  }
}

void ChaosExecutor::on_completion() {
  ++completions_;
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& event = plan_.events[i];
    if (event.kind != FaultKind::kMeCrash || firings_[i] != 0 ||
        event.at_completion != completions_) {
      continue;
    }
    firings_[i] = 1;
    fire_crash(event);
  }
}

void ChaosExecutor::fire_crash(const FaultEvent& event) {
  platform::Machine* machine = world_.machine(event.target);
  // Crashing an already-dead ME is a no-op (overlapping storm pairs).
  if (machine == nullptr || !machine->has_management_enclave()) return;
  machine->kill_management_enclave();
  count(event);
  record_fault(event.target, event.kind,
               event.at_completion != 0 ? "completion" : "wave");
}

void ChaosExecutor::fire_restart(const FaultEvent& event) {
  platform::Machine* machine = world_.machine(event.target);
  if (machine == nullptr || machine->has_management_enclave()) return;
  if (!machine->restart_management_enclave()) return;
  injected_["healed.me-restart"] += 1;
  record_heal(event.target, event.kind, "wave");
}

bool ChaosExecutor::on_request(const std::string& to, Bytes& request) {
  if (to.find("/me") == std::string::npos) return true;
  auto parsed = decode_record<MeRequest>(request);
  if (!parsed.ok()) return true;
  const MeMsgType type = parsed.value().type;
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& event = plan_.events[i];
    if (!is_wire_request_kind(event.kind)) continue;
    if (!target_matches(event.target, to)) continue;
    if (!type_matches(event, type)) continue;
    if (event.max_firings != 0 && firings_[i] >= event.max_firings) continue;
    if (rng_.uniform_double() >= event.probability) continue;
    // At most one rule fires per message so per-kind accounting stays
    // attributable to exactly one injected fault.
    ++firings_[i];
    count(event);
    injected_[std::string("msg.") + migration::me_msg_type_name(type)] += 1;
    record_fault(lane_of(to), event.kind, migration::me_msg_type_name(type));
    if (event.kind == FaultKind::kDrop) return false;
    if (!request.empty()) {
      request[request.size() - 1] ^= 0x40;  // inside the sealed payload
    }
    return true;
  }
  return true;
}

bool ChaosExecutor::on_response(const std::string& to, Bytes& response) {
  (void)response;
  if (to.find("/me") == std::string::npos) return true;
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& event = plan_.events[i];
    if (event.kind != FaultKind::kReplyLoss) continue;
    if (!target_matches(event.target, to)) continue;
    if (event.max_firings != 0 && firings_[i] >= event.max_firings) continue;
    if (rng_.uniform_double() >= event.probability) continue;
    ++firings_[i];
    count(event);
    record_fault(lane_of(to), event.kind, "reply");
    return false;
  }
  return true;
}

void ChaosExecutor::count(const FaultEvent& event) {
  injected_[std::string("injected.") + fault_kind_name(event.kind)] += 1;
}

void ChaosExecutor::record_fault(const std::string& lane, FaultKind kind,
                                 const std::string& detail) {
  obs::Observability& obs = world_.observability();
  if (!obs.enabled()) return;
  obs.trace.instant("chaos.fault", lane, 0,
                    {{"kind", fault_kind_name(kind)}, {"detail", detail}});
}

void ChaosExecutor::record_heal(const std::string& lane, FaultKind kind,
                                const std::string& detail) {
  obs::Observability& obs = world_.observability();
  if (!obs.enabled()) return;
  obs.trace.instant("chaos.heal", lane, 0,
                    {{"kind", fault_kind_name(kind)}, {"detail", detail}});
}

}  // namespace sgxmig::chaos
