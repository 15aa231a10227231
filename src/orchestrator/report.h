// Progress/event log and final report of one orchestrated plan run.
//
// Every state transition of every migration task lands in the event log
// (virtual timestamped, append-only) and, while tracing, as the trace
// instant of the same name (orchestrator.h); the report aggregates
// per-migration latency and retry counts for the bench layer and
// serializes to JSON so CI can archive the perf trajectory
// (BENCH_fleet_drain.json).  The JSON leaves the log out: a traced run's
// orch.* instants carry the same records.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "migration/migration_library.h"
#include "orchestrator/plan.h"
#include "support/sim_clock.h"
#include "support/status.h"

namespace sgxmig::orchestrator {

enum class EventKind : uint8_t {
  kPlanned = 0,    // task created from the plan
  kAdmitted,       // passed the concurrency caps; destination selected
  kStartOk,        // source-side protocol done; data pending at destination
  kStartFailed,    // migration_start failed (detail = class + step)
  kBackoff,        // retry scheduled (detail = retry time)
  kRestored,       // destination instance fetched + confirmed the data
  kDone,           // registry updated; migration complete
  kFailed,         // terminal failure (fatal class or attempts exhausted)
};

/// The trace instant name of `kind` ("orch.planned", "orch.start_ok", ...).
const char* event_kind_name(EventKind kind);

struct OrchestratorEvent {
  Duration at{};
  uint64_t enclave_id = 0;
  EventKind kind = EventKind::kPlanned;
  std::string detail;
};

/// Outcome of one per-enclave migration task.
struct MigrationRecord {
  uint64_t enclave_id = 0;
  std::string name;
  std::string source;
  std::string destination;  // final destination (last attempted on failure)
  uint32_t attempts = 0;    // migration_start invocations
  bool success = false;
  Status final_status = Status::kOk;
  migration::MigrationFailureClass failure_class =
      migration::MigrationFailureClass::kNone;
  std::string failure_message;
  Duration planned_at{};
  Duration admitted_at{};
  Duration finished_at{};
  /// Virtual time the enclave spent frozen on the source (freeze ->
  /// transfer accepted); the pre-copy observable.  Zero on failure.
  Duration freeze_window{};
  /// Freeze-aware: live wait between the reserve and the slot going live
  /// (the part of the queue depth the freeze window no longer absorbs).
  Duration enqueue_wait{};
  /// Pre-copy rounds shipped before the freeze (0 = full snapshot).
  uint32_t precopy_rounds = 0;
  /// Serialized migration payload bytes (all rounds + final delta, or the
  /// one full snapshot).
  uint64_t transfer_bytes = 0;

  /// Queue + transfer + restore, in virtual time.
  Duration latency() const { return finished_at - planned_at; }
};

struct OrchestratorReport {
  PlanKind plan = PlanKind::kDrainMachine;
  std::vector<MigrationRecord> migrations;
  std::vector<OrchestratorEvent> events;
  /// Oldest events dropped by the orchestrator's event-log ring
  /// (OrchestratorOptions::event_log_limit).  Serialized only when
  /// non-zero, so unbounded runs keep their exact historical JSON.
  uint64_t events_dropped = 0;
  Duration started_at{};
  Duration finished_at{};
  /// Peak number of simultaneously in-flight migrations, total and per
  /// source machine (the enforced caps' observable).
  uint32_t peak_inflight_total = 0;
  std::map<std::string, uint32_t> peak_inflight_per_machine;
  /// Pre-rendered JSON object from obs::MetricsRegistry::to_json(); when
  /// non-empty, to_json() merges it under the "metrics" key so the
  /// TRACE_REPORT_*.json files carry the run's counters.
  std::string metrics_json;
  /// Chaos accounting (filled by chaos::ChaosExecutor::report_stats plus
  /// the harness's oracle verdicts — e.g. "seed", "injected.total",
  /// per-kind "injected.<kind>" counts, "forks").  Serialized under the
  /// "chaos" key when non-empty so BENCH_chaos.json rows and the
  /// trace_check.py --chaos mode can cross-check trace-visible faults
  /// against what the executor claims to have injected.
  std::map<std::string, uint64_t> chaos_stats;

  Duration wall() const { return finished_at - started_at; }
  size_t succeeded() const;
  size_t failed() const;
  /// Extra migration_start invocations beyond the first per task.
  uint32_t total_retries() const;
  double mean_latency_seconds() const;
  double max_latency_seconds() const;
  /// Freeze-window aggregates over SUCCESSFUL migrations (the fleet-wide
  /// service-interruption cost a drain inflicts).
  double mean_freeze_window_seconds() const;
  double max_freeze_window_seconds() const;
  /// Freeze-window percentiles over successful migrations (p in [0,100]).
  double freeze_window_percentile_seconds(double p) const;
  /// Live reserve->slot-live wait percentiles over successful migrations
  /// (zero everywhere when not running freeze-aware).
  double enqueue_wait_percentile_seconds(double p) const;

  /// Machine-readable dump ({"plan":..., "migrations":[...], ...});
  /// the event log is left out.
  std::string to_json() const;
};

}  // namespace sgxmig::orchestrator
