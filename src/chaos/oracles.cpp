#include "chaos/oracles.h"

#include <algorithm>
#include <chrono>

#include "migration/library_state.h"
#include "migration/migration_enclave.h"
#include "sgx/sealing.h"

namespace sgxmig::chaos {

namespace {

/// The library's restore rule applied to `sealed` as `image` on
/// `machine`: its CPU unseals, its PSE table answers the epoch guard.
Result<migration::LibraryState> restore_on(platform::Machine& machine,
                                           const sgx::EnclaveImage& image,
                                           const SharedBytes& sealed) {
  auto unsealed = sgx::unseal_data(machine.cpu(), image.identity(), sealed);
  if (!unsealed.ok()) return unsealed.status();
  const sgx::Measurement& owner = image.mr_enclave();
  return migration::restorable_state(
      unsealed.value(), [&machine, &owner](const sgx::CounterUuid& uuid) {
        return machine.counter_service().read(owner, uuid);
      });
}

}  // namespace

ConvergenceOracle::ConvergenceOracle(orchestrator::FleetRegistry& fleet,
                                     std::string source_machine)
    : fleet_(fleet), source_(std::move(source_machine)) {}

ConvergenceOracle::~ConvergenceOracle() {
  if (subscription_ != 0) fleet_.unsubscribe_retired_state(subscription_);
}

void ConvergenceOracle::capture() {
  captured_.clear();
  refusals_ = 0;
  forks_ = 0;
  fork_findings_.clear();
  if (subscription_ == 0) {
    subscription_ = fleet_.subscribe_retired_state(
        [this](uint64_t id, const std::string& machine,
               const SharedBytes& sealed) {
          judge_retired(id, machine, sealed);
        });
  }
  for (const uint64_t id : fleet_.ids_on(source_)) {
    const orchestrator::EnclaveRecord* record = fleet_.find(id);
    if (record == nullptr || record->enclave == nullptr) continue;
    Captured snap;
    snap.id = id;
    snap.name = record->name;
    snap.image = record->image;
    snap.completed_migrations = record->completed_migrations;
    snap.sealed = record->enclave->sealed_state();
    snap.live_transfer = record->enclave->live_transfer_capable();
    for (uint32_t slot = 0; slot < migration::kMaxCounters; ++slot) {
      auto value = record->enclave->ecall_read_migratable_counter(slot);
      if (value.ok()) snap.counters.emplace_back(slot, value.value());
    }
    captured_.push_back(std::move(snap));
  }
}

size_t ConvergenceOracle::captured_sealed_bytes() const {
  size_t bytes = 0;
  for (const Captured& snap : captured_) bytes += snap.sealed.size();
  return bytes;
}

void ConvergenceOracle::judge_retired(uint64_t id, const std::string& machine,
                                      const SharedBytes& sealed) {
  if (machine != source_) return;
  const auto snap =
      std::find_if(captured_.begin(), captured_.end(),
                   [id](const Captured& c) { return c.id == id; });
  platform::Machine* source = fleet_.world().machine(source_);
  if (snap == captured_.end() || source == nullptr) return;
  // Fork check A: the migrated-away instance's final sealed state carries
  // the freeze flag or a dead epoch guard, so the library's restore rule
  // must refuse it with kMigrationFrozen.
  const Status status = restore_on(*source, *snap->image, sealed).status();
  if (status == Status::kMigrationFrozen) {
    ++refusals_;
  } else if (status == Status::kOk) {
    ++forks_;
    fork_findings_.push_back(
        {"fork", snap->name + " retired buffer restores into a live "
                              "instance"});
  }
  judge_snapshot(*snap, *source);
}

void ConvergenceOracle::judge_snapshot(Captured& snap,
                                       platform::Machine& source) {
  if (snap.sealed.empty()) return;
  // Fork check B — the PRE-drain sealed snapshot (what an adversary
  // replaying an old backup would present): for live-transfer enclaves
  // the epoch guard must refuse it outright; for full-snapshot enclaves
  // it may restore (the freeze flag postdates it) but its hardware
  // counters were destroyed, so reading ANY captured slot back means a
  // usable fork.  A retired or destroyed counter never reads again, so
  // the verdict is final once the move has retired.
  const auto state = restore_on(source, *snap.image, snap.sealed);
  snap.sealed = SharedBytes();
  if (state.status() == Status::kMigrationFrozen) {
    ++refusals_;
    return;
  }
  if (!state.ok()) return;
  const migration::LibraryState& restored = state.value();
  const sgx::Measurement& owner = snap.image->mr_enclave();
  const bool readable = std::any_of(
      snap.counters.begin(), snap.counters.end(), [&](const auto& counter) {
        const uint32_t slot = counter.first;
        return restored.counters_active[slot] &&
               source.counter_service()
                   .read(owner, restored.counter_uuids[slot])
                   .ok();
      });
  if (readable) {
    ++forks_;
    fork_findings_.push_back(
        {"fork", snap.name + " pre-drain snapshot restored with readable "
                             "counters"});
  }
  if (snap.live_transfer) {
    fork_findings_.push_back(
        {"fork", snap.name + " epoch guard accepted a stale pre-drain "
                             "snapshot"});
  }
}

std::vector<OracleFinding> ConvergenceOracle::verify(
    const orchestrator::OrchestratorReport& report) {
  // The fork checks ran as each move retired; a snapshot whose move never
  // retired is judged now, by the same check B.
  if (platform::Machine* source = fleet_.world().machine(source_)) {
    for (Captured& snap : captured_) judge_snapshot(snap, *source);
  }
  std::vector<OracleFinding> findings = fork_findings_;

  if (report.failed() != 0) {
    findings.push_back({"convergence", std::to_string(report.failed()) +
                                           " migrations failed terminally"});
  }
  if (fleet_.count_on(source_) != 0) {
    findings.push_back(
        {"convergence", std::to_string(fleet_.count_on(source_)) +
                            " enclaves still placed on " + source_});
  }

  for (const Captured& snap : captured_) {
    const orchestrator::EnclaveRecord* record = fleet_.find(snap.id);
    if (record == nullptr || record->enclave == nullptr) {
      findings.push_back({"convergence", snap.name + " vanished from the "
                                                     "registry"});
      continue;
    }

    // Nonce exactly-once, end to end: however many attempts, retries, and
    // ME restarts the storm forced, the registry must confirm EXACTLY one
    // completed move per enclave (a double-applied transfer would confirm
    // twice, a lost one zero times).
    if (record->completed_migrations != snap.completed_migrations + 1) {
      findings.push_back(
          {"exactly-once",
           snap.name + " completed " +
               std::to_string(record->completed_migrations -
                              snap.completed_migrations) +
               " moves (expected 1)"});
    }

    // No counter regression or loss across the migration.
    for (const auto& [slot, expected] : snap.counters) {
      auto value = record->enclave->ecall_read_migratable_counter(slot);
      if (!value.ok()) {
        findings.push_back({"counter-regression",
                            snap.name + " slot " + std::to_string(slot) +
                                " unreadable after migration"});
      } else if (value.value() != expected) {
        findings.push_back({"counter-regression",
                            snap.name + " slot " + std::to_string(slot) +
                                " read " + std::to_string(value.value()) +
                                ", captured " + std::to_string(expected)});
      }
    }
  }

  // Durable-queue consistency: every surviving ME fully drained.
  for (platform::Machine* machine : fleet_.world().machines()) {
    migration::MigrationEnclave* me = migration::me_on(*machine);
    if (me == nullptr) continue;
    const std::string& address = machine->address();
    const auto held = [&](size_t count, const char* what) {
      if (count == 0) return;
      findings.push_back({"durable-queue", address + " ME holds " +
                                               std::to_string(count) + what});
    };
    held(me->pending_incoming_count(), " undelivered incoming entries");
    held(me->precopy_staging_count(), " staged incoming records");
    held(me->transfer_task_count(), " unfinished transfer tasks");
    // Re-sends the backlog it counts, so it is asked once.
    held(me->retry_done_relays(), " unflushed done-relay retries");
    if (address == source_ && me->outgoing_count() != 0) {
      findings.push_back({"durable-queue",
                          address + " ME retains " +
                              std::to_string(me->outgoing_count()) +
                              " outgoing transfers after the drain"});
    }
  }
  return findings;
}

size_t settle_queues(platform::World& world) {
  size_t passes = 0;
  for (; passes < 8; ++passes) {
    // Every ME is visited: retry_done_relays re-sends the backlog it counts.
    bool quiet = true;
    for (platform::Machine* m : world.machines()) {
      migration::MigrationEnclave* me = migration::me_on(*m);
      if (me != nullptr &&
          (me->pending_incoming_count() != 0 ||
           me->precopy_staging_count() != 0 || me->retry_done_relays() != 0 ||
           me->outgoing_count() != 0 || me->transfer_task_count() != 0)) {
        quiet = false;
      }
    }
    if (quiet) break;
    world.clock().advance(std::chrono::seconds(1));
    for (platform::Machine* m : world.machines()) {
      migration::MigrationEnclave* me = migration::me_on(*m);
      if (me == nullptr) continue;
      me->pump();
      me->sweep_superseded_outgoing();
      me->reconcile_all_pending();
    }
    world.network().pump_all();
  }
  return passes;
}

std::vector<OracleFinding> check_fault_recovery(
    const obs::TraceRecorder& recorder) {
  // Latest recovery-evidence timestamps, computed once: traffic instants
  // and heals, and the latest span start (protocol work happening).
  bool any_instant = false;
  Duration last_instant{};
  for (const obs::TraceInstant& instant : recorder.instants()) {
    if (instant.name != "net.deliver" && instant.name != "net.reply" &&
        instant.name != "chaos.heal") {
      continue;
    }
    if (!any_instant || instant.at > last_instant) last_instant = instant.at;
    any_instant = true;
  }
  bool any_span = false;
  Duration last_span_start{};
  for (const obs::TraceSpan& span : recorder.spans()) {
    if (!any_span || span.start > last_span_start) {
      last_span_start = span.start;
    }
    any_span = true;
  }

  std::vector<OracleFinding> findings;
  for (const obs::TraceInstant& fault : recorder.instants()) {
    if (fault.name != "chaos.fault") continue;
    const bool recovered = (any_instant && last_instant > fault.at) ||
                           (any_span && last_span_start > fault.at);
    if (recovered) continue;
    std::string kind = "?";
    for (const auto& [key, value] : fault.args) {
      if (key == "kind") kind = value;
    }
    findings.push_back(
        {"fault-recovery",
         "silent stall: no traced activity after " + kind + " fault on " +
             fault.lane + " at t=" + std::to_string(to_seconds(fault.at))});
  }
  return findings;
}

}  // namespace sgxmig::chaos
