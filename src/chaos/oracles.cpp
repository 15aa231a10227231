#include "chaos/oracles.h"

#include <chrono>

#include "migration/migratable_enclave.h"
#include "migration/migration_enclave.h"

namespace sgxmig::chaos {

using migration::InitState;
using migration::MigratableEnclave;

ConvergenceOracle::ConvergenceOracle(orchestrator::FleetRegistry& fleet,
                                     std::string source_machine)
    : fleet_(fleet), source_(std::move(source_machine)) {}

void ConvergenceOracle::capture() {
  captured_.clear();
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

std::vector<OracleFinding> ConvergenceOracle::verify(
    const orchestrator::OrchestratorReport& report) {
  std::vector<OracleFinding> findings;
  epoch_guard_refusals_ = 0;
  forks_ = 0;

  if (report.failed() != 0) {
    findings.push_back({"convergence", std::to_string(report.failed()) +
                                           " migrations failed terminally"});
  }
  if (fleet_.count_on(source_) != 0) {
    findings.push_back(
        {"convergence", std::to_string(fleet_.count_on(source_)) +
                            " enclaves still placed on " + source_});
  }

  platform::Machine* source_machine = fleet_.world().machine(source_);

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

    if (source_machine == nullptr) continue;

    // Fork check A — the POST-drain stored buffer on the source: the
    // migrated-away instance's final sealed state carries the freeze
    // flag, so restoring it must refuse with kMigrationFrozen.
    auto stored = source_machine->storage().get(snap.name + ".ml");
    if (stored.ok()) {
      MigratableEnclave replay(*source_machine, snap.image);
      const Status status = replay.ecall_migration_init(
          stored.value(), InitState::kRestore, source_);
      if (status == Status::kMigrationFrozen) {
        ++epoch_guard_refusals_;
      } else if (status == Status::kOk) {
        ++forks_;
        findings.push_back({"fork", snap.name + " post-drain buffer "
                                                "restored into a live "
                                                "instance"});
      }
    }

    // Fork check B — the PRE-drain sealed snapshot (what an adversary
    // replaying an old backup would present): for live-transfer enclaves
    // the epoch guard must refuse it outright; for full-snapshot
    // enclaves it may unseal (the freeze flag postdates it) but its
    // hardware counters were destroyed, so reading ANY captured slot
    // back means a usable fork.
    if (!snap.sealed.empty()) {
      MigratableEnclave replay(*source_machine, snap.image);
      const Status status = replay.ecall_migration_init(
          snap.sealed, InitState::kRestore, source_);
      if (status == Status::kMigrationFrozen) {
        ++epoch_guard_refusals_;
      } else if (status == Status::kOk) {
        bool readable = false;
        for (const auto& [slot, expected] : snap.counters) {
          if (replay.ecall_read_migratable_counter(slot).ok()) {
            readable = true;
            break;
          }
        }
        if (readable) {
          ++forks_;
          findings.push_back(
              {"fork", snap.name + " pre-drain snapshot restored with "
                                   "readable counters"});
        }
        if (snap.live_transfer) {
          findings.push_back(
              {"fork", snap.name + " epoch guard accepted a stale "
                                   "pre-drain snapshot"});
        }
      }
    }
  }

  // Durable-queue consistency: every surviving ME fully drained.
  for (platform::Machine* machine : fleet_.world().machines()) {
    migration::MigrationEnclave* me = migration::me_on(*machine);
    if (me == nullptr) continue;
    const std::string& address = machine->address();
    if (me->pending_incoming_count() != 0) {
      findings.push_back({"durable-queue",
                          address + " ME holds " +
                              std::to_string(me->pending_incoming_count()) +
                              " undelivered incoming entries"});
    }
    if (me->precopy_staging_count() != 0) {
      findings.push_back({"durable-queue",
                          address + " ME holds " +
                              std::to_string(me->precopy_staging_count()) +
                              " staged incoming records"});
    }
    if (me->transfer_task_count() != 0) {
      findings.push_back({"durable-queue",
                          address + " ME holds " +
                              std::to_string(me->transfer_task_count()) +
                              " unfinished transfer tasks"});
    }
    if (me->retry_done_relays() != 0) {
      findings.push_back({"durable-queue",
                          address + " ME holds " +
                              std::to_string(me->retry_done_relays()) +
                              " unflushed done-relay retries"});
    }
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
