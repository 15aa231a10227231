#include "orchestrator/report.h"

#include "support/json.h"
#include "support/stats.h"

namespace sgxmig::orchestrator {

const char* plan_kind_name(PlanKind kind) {
  switch (kind) {
    case PlanKind::kDrainMachine: return "drain-machine";
    case PlanKind::kEvacuateRegion: return "evacuate-region";
    case PlanKind::kTargetedMove: return "targeted-move";
  }
  return "unknown";
}

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kPlanned: return "orch.planned";
    case EventKind::kAdmitted: return "orch.admitted";
    case EventKind::kStartOk: return "orch.start_ok";
    case EventKind::kStartFailed: return "orch.start_failed";
    case EventKind::kBackoff: return "orch.backoff";
    case EventKind::kRestored: return "orch.restored";
    case EventKind::kDone: return "orch.done";
    case EventKind::kFailed: return "orch.failed";
  }
  return "unknown";
}

size_t OrchestratorReport::succeeded() const {
  size_t n = 0;
  for (const auto& m : migrations) n += m.success ? 1 : 0;
  return n;
}

size_t OrchestratorReport::failed() const {
  return migrations.size() - succeeded();
}

uint32_t OrchestratorReport::total_retries() const {
  uint32_t n = 0;
  for (const auto& m : migrations) {
    if (m.attempts > 1) n += m.attempts - 1;
  }
  return n;
}

double OrchestratorReport::mean_latency_seconds() const {
  if (migrations.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& m : migrations) sum += to_seconds(m.latency());
  return sum / static_cast<double>(migrations.size());
}

double OrchestratorReport::max_latency_seconds() const {
  double max = 0.0;
  for (const auto& m : migrations) {
    const double s = to_seconds(m.latency());
    if (s > max) max = s;
  }
  return max;
}

double OrchestratorReport::mean_freeze_window_seconds() const {
  double sum = 0.0;
  size_t n = 0;
  for (const auto& m : migrations) {
    if (!m.success) continue;
    sum += to_seconds(m.freeze_window);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double OrchestratorReport::max_freeze_window_seconds() const {
  double max = 0.0;
  for (const auto& m : migrations) {
    if (!m.success) continue;
    const double s = to_seconds(m.freeze_window);
    if (s > max) max = s;
  }
  return max;
}

double OrchestratorReport::freeze_window_percentile_seconds(double p) const {
  std::vector<double> samples;
  for (const auto& m : migrations) {
    if (m.success) samples.push_back(to_seconds(m.freeze_window));
  }
  return percentile_nearest_rank(std::move(samples), p);
}

double OrchestratorReport::enqueue_wait_percentile_seconds(double p) const {
  std::vector<double> samples;
  for (const auto& m : migrations) {
    if (m.success) samples.push_back(to_seconds(m.enqueue_wait));
  }
  return percentile_nearest_rank(std::move(samples), p);
}

std::string OrchestratorReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("plan").string(plan_kind_name(plan));
  w.key("wall_seconds").number(to_seconds(wall()), 6);
  w.key("succeeded").integer(succeeded());
  w.key("failed").integer(failed());
  w.key("total_retries").integer(total_retries());
  w.key("peak_inflight_total").integer(peak_inflight_total);
  w.key("mean_latency_seconds").number(mean_latency_seconds(), 6);
  w.key("max_latency_seconds").number(max_latency_seconds(), 6);
  w.key("mean_freeze_window_seconds").number(mean_freeze_window_seconds(), 6);
  w.key("max_freeze_window_seconds").number(max_freeze_window_seconds(), 6);
  w.key("p50_freeze_window_seconds")
      .number(freeze_window_percentile_seconds(50.0), 6);
  w.key("p99_freeze_window_seconds")
      .number(freeze_window_percentile_seconds(99.0), 6);
  w.key("p50_enqueue_wait_seconds")
      .number(enqueue_wait_percentile_seconds(50.0), 6);
  w.key("p99_enqueue_wait_seconds")
      .number(enqueue_wait_percentile_seconds(99.0), 6);

  w.key("peak_inflight_per_machine").begin_object();
  for (const auto& [machine, peak] : peak_inflight_per_machine) {
    w.key(machine).integer(peak);
  }
  w.end_object();

  w.key("migrations").begin_array();
  for (const auto& m : migrations) {
    w.begin_object();
    w.key("enclave_id").integer(m.enclave_id);
    w.key("name").string(m.name);
    w.key("source").string(m.source);
    w.key("destination").string(m.destination);
    w.key("attempts").integer(m.attempts);
    w.key("success").boolean(m.success);
    w.key("latency_seconds").number(to_seconds(m.latency()), 6);
    w.key("freeze_window_seconds").number(to_seconds(m.freeze_window), 6);
    w.key("enqueue_wait_seconds").number(to_seconds(m.enqueue_wait), 6);
    w.key("precopy_rounds").integer(m.precopy_rounds);
    w.key("transfer_bytes").integer(m.transfer_bytes);
    if (!m.success) {
      w.key("status").string(status_name(m.final_status));
      w.key("failure_class")
          .string(migration::migration_failure_class_name(m.failure_class));
      w.key("message").string(m.failure_message);
    }
    w.end_object();
  }
  w.end_array();

  if (events_dropped > 0) w.key("events_dropped").integer(events_dropped);

  if (!chaos_stats.empty()) {
    w.key("chaos").begin_object();
    for (const auto& [key, value] : chaos_stats) w.key(key).integer(value);
    w.end_object();
  }

  if (!metrics_json.empty()) w.key("metrics").raw(metrics_json);
  w.end_object();
  return std::move(w).str();
}

}  // namespace sgxmig::orchestrator
