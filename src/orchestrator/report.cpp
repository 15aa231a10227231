#include "orchestrator/report.h"

#include <algorithm>
#include <cstdio>

#include "support/json.h"
#include "support/stats.h"

namespace sgxmig::orchestrator {

const char* plan_kind_name(PlanKind kind) {
  switch (kind) {
    case PlanKind::kDrainMachine: return "drain-machine";
    case PlanKind::kEvacuateRegion: return "evacuate-region";
    case PlanKind::kRebalance: return "rebalance";
    case PlanKind::kTargetedMove: return "targeted-move";
  }
  return "unknown";
}

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kPlanned: return "planned";
    case EventKind::kAdmitted: return "admitted";
    case EventKind::kStartOk: return "start-ok";
    case EventKind::kStartFailed: return "start-failed";
    case EventKind::kBackoff: return "backoff";
    case EventKind::kRestored: return "restored";
    case EventKind::kDone: return "done";
    case EventKind::kFailed: return "failed";
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

namespace {

void append_number(std::string& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  out += buf;
}

void append_number(std::string& out, uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(value));
  out += buf;
}

}  // namespace

std::string OrchestratorReport::to_json(bool include_events) const {
  std::string out = "{\"plan\": ";
  append_json_string(out, plan_kind_name(plan));
  out += ", \"wall_seconds\": ";
  append_number(out, to_seconds(wall()));
  out += ", \"succeeded\": ";
  append_number(out, static_cast<uint64_t>(succeeded()));
  out += ", \"failed\": ";
  append_number(out, static_cast<uint64_t>(failed()));
  out += ", \"total_retries\": ";
  append_number(out, static_cast<uint64_t>(total_retries()));
  out += ", \"peak_inflight_total\": ";
  append_number(out, static_cast<uint64_t>(peak_inflight_total));
  out += ", \"mean_latency_seconds\": ";
  append_number(out, mean_latency_seconds());
  out += ", \"max_latency_seconds\": ";
  append_number(out, max_latency_seconds());
  out += ", \"mean_freeze_window_seconds\": ";
  append_number(out, mean_freeze_window_seconds());
  out += ", \"max_freeze_window_seconds\": ";
  append_number(out, max_freeze_window_seconds());
  out += ", \"p50_freeze_window_seconds\": ";
  append_number(out, freeze_window_percentile_seconds(50.0));
  out += ", \"p99_freeze_window_seconds\": ";
  append_number(out, freeze_window_percentile_seconds(99.0));
  out += ", \"p50_enqueue_wait_seconds\": ";
  append_number(out, enqueue_wait_percentile_seconds(50.0));
  out += ", \"p99_enqueue_wait_seconds\": ";
  append_number(out, enqueue_wait_percentile_seconds(99.0));

  out += ", \"peak_inflight_per_machine\": {";
  bool first = true;
  for (const auto& [machine, peak] : peak_inflight_per_machine) {
    if (!first) out += ", ";
    first = false;
    append_json_string(out, machine);
    out += ": ";
    append_number(out, static_cast<uint64_t>(peak));
  }
  out += "}";

  out += ", \"migrations\": [";
  first = true;
  for (const auto& m : migrations) {
    if (!first) out += ", ";
    first = false;
    out += "{\"enclave_id\": ";
    append_number(out, m.enclave_id);
    out += ", \"name\": ";
    append_json_string(out, m.name);
    out += ", \"source\": ";
    append_json_string(out, m.source);
    out += ", \"destination\": ";
    append_json_string(out, m.destination);
    out += ", \"attempts\": ";
    append_number(out, static_cast<uint64_t>(m.attempts));
    out += ", \"success\": ";
    out += m.success ? "true" : "false";
    out += ", \"latency_seconds\": ";
    append_number(out, to_seconds(m.latency()));
    out += ", \"freeze_window_seconds\": ";
    append_number(out, to_seconds(m.freeze_window));
    out += ", \"enqueue_wait_seconds\": ";
    append_number(out, to_seconds(m.enqueue_wait));
    out += ", \"precopy_rounds\": ";
    append_number(out, static_cast<uint64_t>(m.precopy_rounds));
    out += ", \"transfer_bytes\": ";
    append_number(out, m.transfer_bytes);
    if (!m.success) {
      out += ", \"status\": ";
      append_json_string(out, std::string(status_name(m.final_status)));
      out += ", \"failure_class\": ";
      append_json_string(
          out, migration::migration_failure_class_name(m.failure_class));
      out += ", \"message\": ";
      append_json_string(out, m.failure_message);
    }
    out += "}";
  }
  out += "]";

  if (include_events) {
    out += ", \"events\": [";
    first = true;
    for (const auto& e : events) {
      if (!first) out += ", ";
      first = false;
      out += "{\"t\": ";
      append_number(out, to_seconds(e.at));
      out += ", \"enclave_id\": ";
      append_number(out, e.enclave_id);
      out += ", \"kind\": ";
      append_json_string(out, event_kind_name(e.kind));
      out += ", \"detail\": ";
      append_json_string(out, e.detail);
      out += "}";
    }
    out += "]";
  }
  if (events_dropped > 0) {
    out += ", \"events_dropped\": ";
    append_number(out, events_dropped);
  }

  if (!chaos_stats.empty()) {
    out += ", \"chaos\": {";
    first = true;
    for (const auto& [key, value] : chaos_stats) {
      if (!first) out += ", ";
      first = false;
      append_json_string(out, key);
      out += ": ";
      append_number(out, value);
    }
    out += "}";
  }

  if (!metrics_json.empty()) {
    out += ", \"metrics\": ";
    out += metrics_json;
  }
  out += "}";
  return out;
}

}  // namespace sgxmig::orchestrator
