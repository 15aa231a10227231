#include "orchestrator/orchestrator.h"

#include <algorithm>
#include <optional>

#include "migration/migration_enclave.h"
#include "net/network.h"

namespace sgxmig::orchestrator {

using migration::MigrationFailureClass;

const char* transfer_mode_name(TransferMode mode) {
  switch (mode) {
    case TransferMode::kFullSnapshot: return "full-snapshot";
    case TransferMode::kPrecopy: return "precopy";
  }
  return "unknown";
}

Orchestrator::Orchestrator(FleetRegistry& fleet, Scheduler& scheduler,
                           OrchestratorOptions options)
    : fleet_(fleet), scheduler_(scheduler), options_(options) {}

Duration Orchestrator::now() const { return fleet_.world().clock().now(); }

void Orchestrator::log(const Task& task, EventKind kind, std::string detail) {
  OrchestratorEvent event;
  event.at = now();
  event.enclave_id = task.enclave_id;
  event.kind = kind;
  event.detail = std::move(detail);
  events_.push_back(std::move(event));
  if (options_.event_log_limit != 0) {
    while (events_.size() > options_.event_log_limit) {
      events_.pop_front();
      ++events_dropped_;
    }
  }
}

void Orchestrator::set_phase(Task& task, TaskPhase phase) {
  const uint32_t idx = static_cast<uint32_t>(&task - tasks_.data());
  switch (task.phase) {
    case TaskPhase::kQueued:
      ready_by_source_[task.source].erase(idx);
      break;
    case TaskPhase::kBackoff:
      // Ripened backoffs sit in the ready set; unripe ones only in the
      // heap (their entry is popped at ripen time, so no stale entries).
      ready_by_source_[task.source].erase(idx);
      ripe_backoff_.erase(idx);
      break;
    case TaskPhase::kTransferring: transferring_.erase(idx); break;
    case TaskPhase::kPrecopying: precopying_.erase(idx); break;
    case TaskPhase::kStarted: started_.erase(idx); break;
    default: break;
  }
  task.phase = phase;
  switch (phase) {
    case TaskPhase::kBackoff:
      // retry_at is already rewritten by handle_failure at this point.
      backoff_heap_.push({task.retry_at, idx});
      break;
    case TaskPhase::kTransferring: transferring_.insert(idx); break;
    case TaskPhase::kPrecopying: precopying_.insert(idx); break;
    case TaskPhase::kStarted: started_.insert(idx); break;
    case TaskPhase::kDone:
    case TaskPhase::kFailed:
      --unfinished_count_;
      break;
    default: break;
  }
}

void Orchestrator::ripen_backoffs(Duration at, std::vector<uint32_t>* newly) {
  while (!backoff_heap_.empty() && backoff_heap_.top().first <= at) {
    const uint32_t idx = backoff_heap_.top().second;
    backoff_heap_.pop();
    Task& task = tasks_[idx];
    // Defensive: a re-backed-off task re-pushes with its new retry time,
    // and set_phase pops the ripe marker, so stale entries should not
    // exist — skip them if they ever do.
    if (task.phase != TaskPhase::kBackoff || ripe_backoff_.count(idx) != 0) {
      continue;
    }
    ripe_backoff_[idx] = task.retry_at;
    ready_by_source_[task.source].insert(idx);
    if (newly != nullptr) newly->push_back(idx);
  }
}

std::vector<Orchestrator::Task> Orchestrator::build_tasks(const Plan& plan) {
  std::vector<Task> tasks;
  auto make_task = [&](uint64_t id) {
    Task task;
    const EnclaveRecord* record = fleet_.find(id);
    if (record == nullptr) return task;  // enclave_id stays 0: skipped
    task.enclave_id = id;
    task.name = record->name;
    task.source = record->machine;
    task.planned_at = now();
    return task;
  };

  switch (plan.kind) {
    case PlanKind::kDrainMachine: {
      for (const uint64_t id : fleet_.ids_on(plan.machine)) {
        Task task = make_task(id);
        if (task.enclave_id != 0) tasks.push_back(std::move(task));
      }
      break;
    }
    case PlanKind::kEvacuateRegion: {
      // No destination inside the evacuating region, ever.  Carried as
      // the region NAME: at 1000 machines an enumerated exclusion list
      // would drag ~100 entries through every destination pick of every
      // task.
      for (const uint64_t id : fleet_.ids_in_region(plan.region)) {
        Task task = make_task(id);
        if (task.enclave_id == 0) continue;
        task.forbidden_regions.push_back(plan.region);
        tasks.push_back(std::move(task));
      }
      break;
    }
    case PlanKind::kRebalance: {
      const auto machines = fleet_.world().machines();
      if (machines.empty() || fleet_.empty()) break;
      const uint32_t target = static_cast<uint32_t>(
          (fleet_.size() + machines.size() - 1) / machines.size());
      for (platform::Machine* m : machines) {
        const auto ids = fleet_.ids_on(m->address());
        if (ids.size() <= target) continue;
        // Move the most recently launched enclaves first (highest ids):
        // long-lived placements stay put.
        for (size_t i = target; i < ids.size(); ++i) {
          Task task = make_task(ids[i]);
          if (task.enclave_id != 0) tasks.push_back(std::move(task));
        }
      }
      break;
    }
    case PlanKind::kTargetedMove: {
      for (const TargetedMove& move : plan.moves) {
        Task task = make_task(move.enclave_id);
        if (task.enclave_id == 0) continue;
        task.fixed_destination = move.destination;
        tasks.push_back(std::move(task));
      }
      break;
    }
  }
  for (Task& task : tasks) {
    log(task, EventKind::kPlanned, task.source);
  }
  return tasks;
}

std::map<std::string, uint32_t> Orchestrator::reserved_destinations() const {
  return inflight_to_destination_;
}

void Orchestrator::reserve_destination(const std::string& machine) {
  ++inflight_to_destination_[machine];
  scheduler_.note_reservation(machine, +1);
}

void Orchestrator::release_destination(const std::string& machine) {
  --inflight_to_destination_[machine];
  scheduler_.note_reservation(machine, -1);
}

bool Orchestrator::admit_and_start(Task& task) {
  if (inflight_total_ >= options_.max_inflight_total) return false;
  if (inflight_per_machine_[task.source] >=
      options_.max_inflight_per_machine) {
    return false;
  }

  // A resumed task (source side already done) keeps its destination: the
  // data is pending at that ME.  Everything else (re-)selects one.
  if (!task.transfer_done) {
    if (!task.fixed_destination.empty()) {
      task.destination = task.fixed_destination;
    } else {
      PlacementQuery query;
      query.source = task.source;
      query.excluded = task.forbidden;
      query.excluded_regions = task.forbidden_regions;
      query.avoid = task.failed_destinations;
      // Indexed picks read the scheduler's reservation ledger (kept in
      // sync by reserve/release_destination); only the brute-force path
      // needs the per-query map.
      if (!scheduler_.index_active()) {
        query.reserved = reserved_destinations();
      }
      if (const EnclaveRecord* record = fleet_.find(task.enclave_id)) {
        query.image = record->image.get();
      }
      auto picked = scheduler_.pick_destination(query);
      if (!picked.ok()) {
        handle_failure(task, picked.status(),
                       MigrationFailureClass::kFatalState,
                       "scheduler: no eligible destination",
                       /*destination_specific=*/false);
        return true;  // task consumed (terminal), not capacity-blocked
      }
      task.destination = picked.value();
    }
    // Destination cap: enforced only once the destination is known, and
    // only for transfers that still have to ship data (a restore-only
    // retry is already resident at its destination ME).  Returning false
    // keeps the task queued; the next wave re-selects with fresh gauges.
    if (options_.max_inflight_per_destination != 0 &&
        inflight_to_destination_[task.destination] >=
            options_.max_inflight_per_destination) {
      return false;
    }
  }

  ++inflight_total_;
  ++inflight_per_machine_[task.source];
  reserve_destination(task.destination);
  peak_inflight_total_ = std::max(peak_inflight_total_, inflight_total_);
  peak_inflight_per_machine_[task.source] =
      std::max(peak_inflight_per_machine_[task.source],
               inflight_per_machine_[task.source]);
  if (task.attempts == 0) task.admitted_at = now();
  log(task, EventKind::kAdmitted,
      task.source + " -> " + task.destination +
          (task.attempts > 0 ? " (retry)" : ""));

  if (task.transfer_done) {
    // Source side done on a previous attempt; only the restore remains.
    // Still counts against max_attempts so a permanently failing restore
    // cannot retry forever.
    ++task.attempts;
    if (lanes_ != nullptr) {
      // Pipelined: the restore runs on the destination lane in the
      // completion wave, overlapping with everything else.
      task.ready_at = std::max(next_slot_time(), task.retry_at);
      set_phase(task, TaskPhase::kStarted);
      return true;
    }
    complete(task);
    return true;
  }

  migration::MigratableEnclave* enclave = fleet_.enclave(task.enclave_id);
  const EnclaveRecord* record = fleet_.find(task.enclave_id);
  ++task.attempts;
  if (lanes_ != nullptr) {
    start_pipelined(task, *enclave, *record);
    return true;
  }
  // A start whose reply path died (source ME killed or restarted
  // mid-exchange) resumes inside migration_start itself: the library
  // re-queries the fate of the staged attempt (nonce-scoped) from the
  // ME's durable queue and reports success when the transfer landed, so
  // the retry machinery here never double-ships or burns attempts on an
  // already-accepted transfer.
  const migration::MigrationStartResult result =
      run_source_side(task, *enclave, *record);
  if (!result.ok()) {
    --inflight_total_;
    --inflight_per_machine_[task.source];
    release_destination(task.destination);
    log(task, EventKind::kStartFailed,
        std::string(migration::migration_failure_class_name(
            result.failure_class)) +
            ": " + result.message);
    handle_failure(task, result.status, result.failure_class, result.message,
                   /*destination_specific=*/true);
    return true;
  }
  set_phase(task, TaskPhase::kStarted);
  task.freeze_window = enclave->last_freeze_window();
  task.precopy_rounds = enclave->last_precopy_rounds();
  task.transfer_bytes = enclave->last_transfer_bytes();
  log(task, EventKind::kStartOk, task.destination);
  return true;
}

migration::MigrationStartResult Orchestrator::run_source_side(
    Task& task, migration::MigratableEnclave& enclave,
    const EnclaveRecord& record) {
  if (options_.transfer_mode == TransferMode::kFullSnapshot ||
      !enclave.live_transfer_capable()) {
    return enclave.ecall_migration_start_detailed(task.destination,
                                                  record.options.policy);
  }
  // A previous attempt may have frozen the library with the finalize
  // staged (e.g. the accept reply AND the fallback status query were both
  // lost to a dying ME): rounds are impossible — and unnecessary — once
  // frozen, so resume the finalize directly.  It dedups by nonce at the
  // ME and supports post-freeze re-routes, so a retried or re-targeted
  // attempt lands exactly once.
  if (enclave.migration_frozen()) {
    return enclave.ecall_migration_finalize_detailed(task.destination,
                                                     record.options.policy);
  }
  // Iterative pre-copy on the virtual clock: ship dirty rounds while the
  // enclave keeps serving (the round hook is where live mutations land),
  // then freeze for the final delta.  A failed round surfaces as a
  // classified start failure so the existing retry/backoff/re-route
  // machinery applies unchanged — the library's per-attempt state resumes
  // rounds toward the same destination and restarts toward a new one.
  while (true) {
    auto round = enclave.ecall_migration_precopy_round(task.destination,
                                                       record.options.policy);
    if (!round.ok()) {
      migration::MigrationStartResult failure;
      failure.status = round.status();
      failure.failure_class =
          migration::classify_migration_failure(round.status());
      failure.message = "pre-copy round: " +
                        std::string(status_name(round.status()));
      return failure;
    }
    if (round_hook_) round_hook_(task.enclave_id, round.value().round);
    if (round.value().converged(options_.precopy)) break;
  }
  return enclave.ecall_migration_finalize_detailed(task.destination,
                                                   record.options.policy);
}

// ----- pipelined engine -----

Duration Orchestrator::next_slot_time() {
  Duration ready = lanes_ != nullptr ? lanes_->control() : now();
  if (!released_slots_.empty()) {
    // Every capacity decrement (restore completion OR source failure)
    // records WHEN its slot freed, and every admission takes over the
    // earliest-freed one: the cap is a TIME constraint, not just a
    // count.  (A pipeline that never saturated pops a release it did
    // not strictly need — still bounded by a real event, and exact in
    // the saturated regime the cap sweep measures.)
    ready = std::max(ready, released_slots_.front());
    released_slots_.erase(released_slots_.begin());
  }
  return ready;
}

void Orchestrator::release_slot(Duration freed_at) {
  released_slots_.insert(std::upper_bound(released_slots_.begin(),
                                          released_slots_.end(), freed_at),
                         freed_at);
}

void Orchestrator::pipelined_source_failure(
    Task& task, const migration::MigrationStartResult& result,
    Duration freed_at) {
  --inflight_total_;
  --inflight_per_machine_[task.source];
  release_destination(task.destination);
  // The failing task's slot frees at the lane instant the failure was
  // observed, not at some unrelated restore's completion.
  release_slot(freed_at);
  log(task, EventKind::kStartFailed,
      std::string(
          migration::migration_failure_class_name(result.failure_class)) +
          ": " + result.message);
  handle_failure(task, result.status, result.failure_class, result.message,
                 /*destination_specific=*/true);
}

void Orchestrator::mark_started(Task& task,
                                migration::MigratableEnclave& enclave,
                                Duration ready_at) {
  set_phase(task, TaskPhase::kStarted);
  task.ready_at = ready_at;
  task.freeze_window = enclave.last_freeze_window();
  task.enqueue_wait = enclave.last_enqueue_wait();
  task.precopy_rounds = enclave.last_precopy_rounds();
  task.transfer_bytes = enclave.last_transfer_bytes();
  log(task, EventKind::kStartOk, task.destination);
}

void Orchestrator::start_pipelined(Task& task,
                                   migration::MigratableEnclave& enclave,
                                   const EnclaveRecord& record) {
  const Duration ready = std::max(next_slot_time(), task.retry_at);
  const bool precopy = options_.transfer_mode == TransferMode::kPrecopy &&
                       enclave.live_transfer_capable();
  if (precopy) {
    if (enclave.migration_frozen()) {
      // Frozen with the finalize staged (lost accept reply): resume the
      // finalize directly — rounds are impossible and unnecessary.
      migration::MigrationStartResult result;
      const Duration end = lanes_->run(task.source, ready, [&] {
        result = enclave.ecall_migration_finalize_detailed(
            task.destination, record.options.policy);
      });
      task.ready_at = end;
      if (result.status == Status::kMigrationInProgress &&
          result.failure_class == migration::MigrationFailureClass::kNone) {
        // Async source ME queued the re-driven finalize too.
        drive_queued_finalize(task);
      } else if (result.ok()) {
        mark_started(task, enclave, end);
      } else {
        pipelined_source_failure(task, result, end);
      }
      return;
    }
    set_phase(task, TaskPhase::kPrecopying);
    task.ready_at = ready;
    return;  // rounds advance one per wave, interleaved across tasks
  }
  // Full snapshot: non-blocking enqueue at the source ME; the transfer
  // itself runs behind the pump, and poll_transferring learns its fate.
  // Freeze-aware: reserve instead — the enclave keeps serving until the
  // slot-live poll freezes it, so the freeze window no longer absorbs
  // the queue wait.
  migration::MigrationStartResult result;
  const Duration end = lanes_->run(task.source, ready, [&] {
    result = options_.freeze_aware
                 ? enclave.ecall_migration_reserve_detailed(
                       task.destination, record.options.policy)
                 : enclave.ecall_migration_enqueue_detailed(
                       task.destination, record.options.policy);
  });
  if (!result.ok()) {
    pipelined_source_failure(task, result, end);
    return;
  }
  set_phase(task, TaskPhase::kTransferring);
  task.ready_at = end;
}

void Orchestrator::poll_transferring(Task& task) {
  migration::MigratableEnclave* enclave = fleet_.enclave(task.enclave_id);
  migration::MigrationStartResult result;
  const Duration end =
      lanes_->run(task.source, std::max(task.ready_at, lanes_->control()),
                  [&] { result = enclave->ecall_migration_poll_transfer(); });
  task.ready_at = end;
  if (result.status == Status::kMigrationInProgress &&
      result.failure_class == migration::MigrationFailureClass::kNone) {
    return;  // still in flight; pump and poll again next wave
  }
  if (result.ok()) {
    mark_started(task, *enclave, end);
    return;
  }
  pipelined_source_failure(task, result, end);
}

void Orchestrator::advance_precopy(Task& task) {
  migration::MigratableEnclave* enclave = fleet_.enclave(task.enclave_id);
  const EnclaveRecord* record = fleet_.find(task.enclave_id);
  migration::MigrationStartResult result;
  bool terminal = false;
  const Duration end = lanes_->run(
      task.source, std::max(task.ready_at, lanes_->control()), [&] {
        if (enclave->migration_frozen()) {
          result = enclave->ecall_migration_finalize_detailed(
              task.destination, record->options.policy);
          terminal = true;
          return;
        }
        auto round = enclave->ecall_migration_precopy_round(
            task.destination, record->options.policy);
        if (!round.ok()) {
          result.status = round.status();
          result.failure_class =
              migration::classify_migration_failure(round.status());
          result.message = "pre-copy round: " +
                           std::string(status_name(round.status()));
          terminal = true;
          return;
        }
        if (round_hook_) round_hook_(task.enclave_id, round.value().round);
        if (round.value().converged(options_.precopy)) {
          result = enclave->ecall_migration_finalize_detailed(
              task.destination, record->options.policy);
          terminal = true;
        }
      });
  task.ready_at = end;
  if (!terminal) return;  // next round next wave
  if (result.status == Status::kMigrationInProgress &&
      result.failure_class == migration::MigrationFailureClass::kNone) {
    // Async source ME queued the finalize: the enclave is frozen from
    // here, so drive the record to its accept now rather than behind the
    // rest of this wave's lane work.
    drive_queued_finalize(task);
    return;
  }
  if (result.ok()) {
    mark_started(task, *enclave, end);
  } else {
    pipelined_source_failure(task, result, end);
  }
}

void Orchestrator::drive_queued_finalize(Task& task) {
  // A frozen enclave never waits behind live work on its lane.  Lanes
  // are FIFO in submission order: left to the next wave, the finalize
  // record would be delivered only by that wave's pump, its accept
  // continuation would queue behind this wave's remaining pre-copy
  // rounds, and the poll that ends the freeze behind all of the next
  // wave's rounds and client ops.  Pumping and polling here submits the
  // delivery, the accept and the poll before any of that work.  The poll
  // is the same one the wave would make, so a transfer still in flight
  // stays kTransferring and the wave polls it again.
  set_phase(task, TaskPhase::kTransferring);
  fleet_.world().network().pump_all();
  poll_transferring(task);
}

void Orchestrator::complete(Task& task) {
  const Status status = fleet_.complete_move(task.enclave_id,
                                             task.destination);
  --inflight_total_;
  --inflight_per_machine_[task.source];
  release_destination(task.destination);
  if (status == Status::kOk) {
    set_phase(task, TaskPhase::kDone);
    task.finished_at = now();
    log(task, EventKind::kRestored, task.destination);
    log(task, EventKind::kDone,
        task.source + " -> " + task.destination);
    return;
  }
  task.transfer_done = true;  // the data still sits at the destination ME
  handle_failure(task, status, migration::classify_migration_failure(status),
                 "restoring on destination: " +
                     std::string(status_name(status)),
                 /*destination_specific=*/false);
}

void Orchestrator::handle_failure(Task& task, Status status,
                                  MigrationFailureClass cls,
                                  const std::string& message,
                                  bool destination_specific) {
  task.last_status = status;
  task.last_class = cls;
  task.last_message = message;
  // A policy denial is fatal only for THAT destination: the source ME
  // evaluated the enclave's policy against this machine's certified
  // attributes.  The library keeps the staged data precisely so the
  // caller can retry toward another destination (§V-D), so re-select —
  // with the denied machine hard-excluded — instead of stranding a
  // frozen enclave while an eligible destination exists.
  const bool policy_denied_destination =
      cls == MigrationFailureClass::kFatalPolicy && destination_specific &&
      task.fixed_destination.empty();
  const bool retryable =
      (migration::migration_failure_is_retryable(cls) ||
       policy_denied_destination) &&
      task.attempts < options_.max_attempts;
  if (!retryable) {
    fail_task(task);
    return;
  }
  if (destination_specific && task.fixed_destination.empty() &&
      !task.destination.empty()) {
    if (policy_denied_destination) {
      // Hard exclusion: the certified attributes will not change.
      if (std::find(task.forbidden.begin(), task.forbidden.end(),
                    task.destination) == task.forbidden.end()) {
        task.forbidden.push_back(task.destination);
      }
    } else if (std::find(task.failed_destinations.begin(),
                         task.failed_destinations.end(),
                         task.destination) ==
               task.failed_destinations.end()) {
      // Prefer another machine on the next attempt; soft exclusion, so a
      // fleet with no alternative still retries this one.
      task.failed_destinations.push_back(task.destination);
    }
  }
  const uint32_t exponent = task.attempts > 0 ? task.attempts - 1 : 0;
  const Duration backoff = options_.retry_backoff * (1u << exponent);
  task.retry_at = now() + backoff;
  set_phase(task, TaskPhase::kBackoff);
  log(task, EventKind::kBackoff,
      "retry at " + std::to_string(to_seconds(task.retry_at)) + "s");
}

void Orchestrator::fail_task(Task& task) {
  set_phase(task, TaskPhase::kFailed);
  task.finished_at = now();
  log(task, EventKind::kFailed,
      std::string(migration::migration_failure_class_name(task.last_class)) +
          ": " + task.last_message);
}

// ----- wave drivers -----
//
// Both drivers run the same wave skeleton — admission, (pipelined) pump +
// pre-copy advances + polls, completions, backoff stall-jump — through
// the same admit/poll/complete primitives; they differ ONLY in which
// tasks and machines each wave VISITS.  The legacy loop scans every task
// and every machine every wave (O(tasks) per wave even when one enclave
// is in flight); the event-driven loop walks the phase sets, the
// per-source ready index, and the lane-event kick set, so a wave costs
// work proportional to what actually happened.  The visit ORDER within a
// wave is ascending task index / machine creation order in both, which
// is why the two produce bit-identical reports (enforced by
// test_event_driver.cpp and the fleet-scale bench gate).

void Orchestrator::run_legacy_loop(net::Network& net) {
  auto unfinished = [&] {
    return std::any_of(tasks_.begin(), tasks_.end(), [](const Task& t) {
      return t.phase != TaskPhase::kDone && t.phase != TaskPhase::kFailed;
    });
  };

  uint32_t wave = 0;
  uint32_t stalled_waves = 0;
  while (unfinished()) {
    if (wave_hook_) {
      wave_hook_(wave);
      // Chaos hooks (ME kills/restarts) charge the clock at control
      // level; fold that into the control instant so lane runs do not
      // discard it.
      if (lanes_ != nullptr) lanes_->sync_control_from_clock();
    }
    ++wave;
    ++stats_.waves;
    bool progressed = false;

    // Admission wave: start every ready task the caps allow.  Started
    // tasks stay in flight (data pending at their destination MEs) until
    // the completion wave below, so the in-flight gauges genuinely
    // overlap up to the caps.
    for (Task& task : tasks_) {
      ++stats_.task_touches;
      const bool ready =
          task.phase == TaskPhase::kQueued ||
          (task.phase == TaskPhase::kBackoff && task.retry_at <= now());
      if (!ready) continue;
      ++stats_.admission_checks;
      if (admit_and_start(task)) progressed = true;
    }

    if (lanes_ != nullptr) {
      // Pump wave: re-kick source-ME tasks (freshly queued after an ME
      // restart resumes them from the durable queue) and drain the
      // deferred deliveries — every in-flight ME<->ME conversation
      // advances, interleaved across lanes.
      for (platform::Machine* m : machines_) {
        auto* me = migration::me_on(*m);
        if (me == nullptr || (me->transfer_task_count() == 0 &&
                              me->precopy_outgoing_count() == 0)) {
          continue;  // async pre-copy ships also need the pump re-kick
        }
        ++stats_.pump_kicks;
        lanes_->run(m->address(), lanes_->control(), [&] { me->pump(); });
      }
      if (net.pump_all() > 0) progressed = true;

      for (Task& task : tasks_) {
        ++stats_.task_touches;
        if (task.phase == TaskPhase::kPrecopying) {
          advance_precopy(task);
          progressed = true;
        }
      }
      for (Task& task : tasks_) {
        ++stats_.task_touches;
        if (task.phase != TaskPhase::kTransferring) continue;
        poll_transferring(task);
        if (task.phase != TaskPhase::kTransferring) progressed = true;
      }
    }

    // Completion wave: restore every in-flight migration on its
    // destination.  Pipelined restores run on the DESTINATION lane —
    // restores toward different machines overlap with each other and
    // with the source lane still streaming the next transfers.
    for (Task& task : tasks_) {
      ++stats_.task_touches;
      if (task.phase != TaskPhase::kStarted) continue;
      if (lanes_ != nullptr) {
        const Duration end = lanes_->run(
            task.destination, std::max(task.ready_at, lanes_->control()),
            [&] { complete(task); });
        release_slot(end);
      } else {
        complete(task);
      }
      progressed = true;
    }

    if (progressed) {
      stalled_waves = 0;
      continue;
    }
    // Everything left is backing off (or, pipelined, awaiting a pump that
    // produced nothing): jump the virtual clock to the earliest retry
    // instead of spinning.
    Duration earliest = Duration::max();
    for (const Task& task : tasks_) {
      if (task.phase == TaskPhase::kBackoff) {
        earliest = std::min(earliest, task.retry_at);
      }
    }
    if (earliest == Duration::max()) {
      // Pipelined in-flight tasks with nothing pumpable resolve at the
      // next poll; give them bounded slack before declaring a wedge.
      if (lanes_ != nullptr && ++stalled_waves < 64) continue;
      break;  // defensive: nothing to wait on
    }
    if (lanes_ != nullptr) {
      lanes_->advance_control(earliest);
    } else {
      VirtualClock& clock = fleet_.world().clock();
      if (earliest > clock.now()) clock.advance(earliest - clock.now());
    }
  }
}

bool Orchestrator::event_admission_pass() {
  ripen_backoffs(now(), nullptr);
  // Saturated fleet: the legacy scan would refuse every ready task with
  // no side effects, so the whole pass can be skipped.
  if (inflight_total_ >= options_.max_inflight_total) return false;

  // Merge the per-source ready sets into one ascending-index stream so
  // candidates are processed in exactly the legacy scan order, while a
  // saturated source contributes nothing (its candidates would all be
  // refused without side effects — only a source's OWN admissions can
  // change its gauge mid-pass, so saturation holds for the whole pass).
  using Entry = std::pair<uint32_t, const std::string*>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> merge;
  for (const auto& [source, ready] : ready_by_source_) {
    if (ready.empty()) continue;
    if (inflight_per_machine_[source] >= options_.max_inflight_per_machine) {
      continue;
    }
    merge.push({*ready.begin(), &source});
  }

  bool progressed = false;
  uint32_t pass_pos = 0;  // next global index the scan may still visit
  std::vector<uint32_t> newly;
  while (!merge.empty()) {
    // Once the fleet-wide cap is hit mid-pass nothing can release it
    // before the pass ends (releases require processing, which the cap
    // now refuses), so the legacy scan's remaining visits are all
    // side-effect-free refusals.
    if (inflight_total_ >= options_.max_inflight_total) break;
    const auto [idx0, source] = merge.top();
    merge.pop();
    auto sit = ready_by_source_.find(*source);
    if (sit == ready_by_source_.end()) continue;
    if (inflight_per_machine_[*source] >= options_.max_inflight_per_machine) {
      continue;  // saturated for the rest of the pass (see above)
    }
    // Validate against the live ready set: the entry may be stale
    // (admitted via a duplicate, or refused earlier this pass — a
    // refused candidate keeps its ready slot but is not revisited until
    // the next wave, exactly like the one-directional legacy scan).
    const auto it = sit->second.lower_bound(std::max(idx0, pass_pos));
    if (it == sit->second.end()) continue;
    if (*it != idx0) {
      merge.push({*it, source});
      continue;
    }
    pass_pos = idx0 + 1;
    ++stats_.task_touches;
    ++stats_.admission_checks;
    if (admit_and_start(tasks_[idx0])) progressed = true;
    // Blocking (non-pipelined) admissions advance the clock: tasks later
    // in the scan may ripen mid-pass, exactly as the legacy loop sees
    // them at visit time.  Earlier indices ripen into the ready set for
    // the NEXT wave only — the lower_bound(pass_pos) above skips them.
    newly.clear();
    ripen_backoffs(now(), &newly);
    for (const uint32_t ripe : newly) {
      const Task& t = tasks_[ripe];
      if (inflight_per_machine_[t.source] <
          options_.max_inflight_per_machine) {
        merge.push({ripe, &ready_by_source_.find(t.source)->first});
      }
    }
    // Re-arm this source's next candidate at or past the scan position.
    const auto next = sit->second.lower_bound(pass_pos);
    if (next != sit->second.end()) merge.push({*next, source});
  }
  return progressed;
}

void Orchestrator::run_event_loop(net::Network& net) {
  uint32_t wave = 0;
  uint32_t stalled_waves = 0;
  std::vector<uint32_t> snapshot;
  while (unfinished_count_ > 0) {
    if (wave_hook_) {
      wave_hook_(wave);
      if (lanes_ != nullptr) lanes_->sync_control_from_clock();
    }
    ++wave;
    ++stats_.waves;
    bool progressed = false;

    if (event_admission_pass()) progressed = true;

    if (lanes_ != nullptr) {
      // Pump wave, event-driven: a machine needs a kick only if its lane
      // ran since it was last pumped (enqueues, deliveries, restores and
      // pumps all run on lanes, so any ME that gained or still has work
      // has a lane event behind it).  Candidates leave the set the first
      // wave their ME has nothing queued.  Hooks can revive MEs with no
      // lane traffic of their own (mid-plan restarts), so hooked runs
      // fall back to the legacy full scan.
      for (const auto& event : lanes_->take_lane_events()) {
        const auto it = machine_index_.find(event.lane);
        if (it != machine_index_.end()) kick_candidates_.insert(it->second);
      }
      if (wave_hook_ || round_hook_) {
        for (platform::Machine* m : machines_) {
          auto* me = migration::me_on(*m);
          if (me == nullptr || (me->transfer_task_count() == 0 &&
                                me->precopy_outgoing_count() == 0)) {
            continue;
          }
          ++stats_.pump_kicks;
          lanes_->run(m->address(), lanes_->control(), [&] { me->pump(); });
        }
      } else {
        snapshot.assign(kick_candidates_.begin(), kick_candidates_.end());
        for (const uint32_t idx : snapshot) {
          auto* me = migration::me_on(*machines_[idx]);
          if (me == nullptr || (me->transfer_task_count() == 0 &&
                                me->precopy_outgoing_count() == 0)) {
            kick_candidates_.erase(idx);
            continue;
          }
          ++stats_.pump_kicks;
          lanes_->run(machines_[idx]->address(), lanes_->control(),
                      [&] { me->pump(); });
        }
      }
      if (net.pump_all() > 0) progressed = true;

      // Pre-copy advances, then polls: snapshots in ascending index order
      // replicate the legacy full scans (one task's advance/poll never
      // changes another task's phase).  An advance whose finalize queues
      // pumps and polls that task itself (drive_queued_finalize): lanes
      // are FIFO in submission order, so a frozen enclave's accept and
      // poll must be submitted before the remaining rounds, or its freeze
      // absorbs them.  Taking the poll snapshot AFTER the advances lets a
      // finalize still in flight be polled again in the same wave, as the
      // legacy re-scan would.
      snapshot.assign(precopying_.begin(), precopying_.end());
      for (const uint32_t idx : snapshot) {
        Task& task = tasks_[idx];
        if (task.phase != TaskPhase::kPrecopying) continue;
        ++stats_.task_touches;
        advance_precopy(task);
        progressed = true;
      }
      snapshot.assign(transferring_.begin(), transferring_.end());
      for (const uint32_t idx : snapshot) {
        Task& task = tasks_[idx];
        if (task.phase != TaskPhase::kTransferring) continue;
        ++stats_.task_touches;
        poll_transferring(task);
        if (task.phase != TaskPhase::kTransferring) progressed = true;
      }
    }

    // Completion wave over the started set (snapshot taken after the
    // polls so a transfer that completed its source side this wave
    // restores this wave, like the legacy re-scan).
    snapshot.assign(started_.begin(), started_.end());
    for (const uint32_t idx : snapshot) {
      Task& task = tasks_[idx];
      if (task.phase != TaskPhase::kStarted) continue;
      ++stats_.task_touches;
      if (lanes_ != nullptr) {
        const Duration end = lanes_->run(
            task.destination, std::max(task.ready_at, lanes_->control()),
            [&] { complete(task); });
        release_slot(end);
      } else {
        complete(task);
      }
      progressed = true;
    }

    if (progressed) {
      stalled_waves = 0;
      continue;
    }
    // Stall: jump to the earliest pending retry — the heap holds the
    // unripe backoffs, the ripe map the ripened-but-capacity-blocked
    // ones (whose retry times are already in the past, making the jump a
    // no-op exactly as in the legacy scan).
    Duration earliest = Duration::max();
    if (!backoff_heap_.empty()) {
      earliest = backoff_heap_.top().first;
    }
    for (const auto& [idx, retry_at] : ripe_backoff_) {
      earliest = std::min(earliest, retry_at);
    }
    if (earliest == Duration::max()) {
      if (lanes_ != nullptr && ++stalled_waves < 64) continue;
      break;  // defensive: nothing to wait on
    }
    if (lanes_ != nullptr) {
      lanes_->advance_control(earliest);
    } else {
      VirtualClock& clock = fleet_.world().clock();
      if (earliest > clock.now()) clock.advance(earliest - clock.now());
    }
  }
}

OrchestratorReport Orchestrator::execute(const Plan& plan) {
  events_.clear();
  events_dropped_ = 0;
  inflight_per_machine_.clear();
  inflight_to_destination_.clear();
  inflight_total_ = 0;
  peak_inflight_total_ = 0;
  peak_inflight_per_machine_.clear();
  released_slots_.clear();
  scheduler_.clear_reservations();
  ready_by_source_.clear();
  backoff_heap_ = {};
  ripe_backoff_.clear();
  transferring_.clear();
  precopying_.clear();
  started_.clear();
  kick_candidates_.clear();
  stats_ = {};
  machines_ = fleet_.world().machines();
  machine_index_.clear();
  for (size_t i = 0; i < machines_.size(); ++i) {
    machine_index_[machines_[i]->address()] = static_cast<uint32_t>(i);
  }

  OrchestratorReport report;
  report.plan = plan.kind;
  report.started_at = now();

  // Pipelined engine: per-machine lanes over the shared clock, with the
  // deferred-delivery pump attributed to them.  Scoped to this execute():
  // the LaneSchedule destructor lands the clock on the parallel horizon,
  // so a stopwatch around execute() reads max-over-lanes wall time.
  net::Network& net = fleet_.world().network();
  std::optional<LaneSchedule> lanes;
  if (options_.pipelined) {
    lanes.emplace(fleet_.world().clock());
    lanes_ = &*lanes;
    lanes_->set_event_recording(!options_.legacy_wave_loop);
    net.set_lane_schedule(lanes_);
  }

  tasks_ = build_tasks(plan);
  unfinished_count_ = tasks_.size();
  for (uint32_t i = 0; i < tasks_.size(); ++i) {
    ready_by_source_[tasks_[i].source].insert(i);
  }
  if (lanes_ != nullptr && !options_.legacy_wave_loop) {
    // Seed the kick set with MEs already busy before this plan (durable
    // queues surviving a previous execute); everything after this enters
    // via lane events.
    for (uint32_t i = 0; i < machines_.size(); ++i) {
      auto* me = migration::me_on(*machines_[i]);
      if (me != nullptr && (me->transfer_task_count() > 0 ||
                            me->precopy_outgoing_count() > 0)) {
        kick_candidates_.insert(i);
      }
    }
  }

  if (options_.legacy_wave_loop) {
    run_legacy_loop(net);
  } else {
    run_event_loop(net);
  }

  if (options_.pipelined) {
    lanes_->set_event_recording(false);
    net.set_lane_schedule(nullptr);
    lanes_ = nullptr;
    lanes.reset();  // clock lands on the parallel horizon
  }
  report.finished_at = now();
  report.peak_inflight_total = peak_inflight_total_;
  report.peak_inflight_per_machine = peak_inflight_per_machine_;
  report.events.assign(events_.begin(), events_.end());
  report.events_dropped = events_dropped_;
  for (const Task& task : tasks_) {
    MigrationRecord record;
    record.enclave_id = task.enclave_id;
    record.name = task.name;
    record.source = task.source;
    record.destination = task.destination;
    record.attempts = task.attempts;
    record.success = task.phase == TaskPhase::kDone;
    record.final_status = task.last_status;
    record.failure_class = task.last_class;
    record.failure_message = task.last_message;
    record.planned_at = task.planned_at;
    record.admitted_at = task.admitted_at;
    record.finished_at = task.finished_at;
    record.freeze_window = task.freeze_window;
    record.enqueue_wait = task.enqueue_wait;
    record.precopy_rounds = task.precopy_rounds;
    record.transfer_bytes = task.transfer_bytes;
    report.migrations.push_back(std::move(record));
  }
  report.freeze_budget = options_.freeze_budget;
  return report;
}

size_t Orchestrator::control_plane_bytes() const {
  // Deterministic accounting (container node overhead approximated by a
  // fixed constant) so the scaling bench's memory-per-enclave gate does
  // not depend on the allocator.
  constexpr size_t kNode = 48;
  size_t bytes = tasks_.capacity() * sizeof(Task);
  for (const Task& task : tasks_) {
    bytes += task.name.size() + task.source.size() +
             task.fixed_destination.size() + task.destination.size() +
             task.last_message.size();
    for (const auto& s : task.forbidden) bytes += s.size() + sizeof(s);
    for (const auto& s : task.forbidden_regions) bytes += s.size() + sizeof(s);
    for (const auto& s : task.failed_destinations) {
      bytes += s.size() + sizeof(s);
    }
  }
  bytes += events_.size() * sizeof(OrchestratorEvent);
  for (const auto& event : events_) bytes += event.detail.size();
  const auto gauge_bytes = [&](const std::map<std::string, uint32_t>& m) {
    size_t b = 0;
    for (const auto& [key, value] : m) b += key.size() + sizeof(value) + kNode;
    return b;
  };
  bytes += gauge_bytes(inflight_per_machine_);
  bytes += gauge_bytes(inflight_to_destination_);
  bytes += gauge_bytes(peak_inflight_per_machine_);
  bytes += released_slots_.capacity() * sizeof(Duration);
  for (const auto& [source, ready] : ready_by_source_) {
    bytes += source.size() + kNode + ready.size() * (sizeof(uint32_t) + kNode);
  }
  bytes += backoff_heap_.size() * sizeof(std::pair<Duration, uint32_t>);
  bytes += ripe_backoff_.size() *
           (sizeof(uint32_t) + sizeof(Duration) + kNode);
  bytes += (transferring_.size() + precopying_.size() + started_.size() +
            kick_candidates_.size()) *
           (sizeof(uint32_t) + kNode);
  bytes += machines_.capacity() * sizeof(platform::Machine*);
  for (const auto& [address, idx] : machine_index_) {
    bytes += address.size() + sizeof(idx) + kNode;
  }
  return bytes;
}

}  // namespace sgxmig::orchestrator
