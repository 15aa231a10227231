#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "support/json.h"
#include "support/stats.h"

namespace sgxmig::obs {

void MetricsRegistry::add(const std::string& name, uint64_t delta) {
  if (!enabled_) return;
  counters_[name] += delta;
}

void MetricsRegistry::set_gauge(const std::string& name, double value) {
  if (!enabled_) return;
  Gauge& gauge = gauges_[name];
  gauge.value = value;
  gauge.max = std::max(gauge.max, value);
}

void MetricsRegistry::observe(const std::string& name, double value) {
  if (!enabled_) return;
  histograms_[name].push_back(value);
}

uint64_t MetricsRegistry::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second.value;
}

double MetricsRegistry::gauge_max(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second.max;
}

size_t MetricsRegistry::histogram_count(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? 0 : it->second.size();
}

double MetricsRegistry::histogram_mean(const std::string& name) const {
  const auto it = histograms_.find(name);
  if (it == histograms_.end() || it->second.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : it->second) sum += v;
  return sum / static_cast<double>(it->second.size());
}

double MetricsRegistry::histogram_percentile(const std::string& name,
                                             double p) const {
  const auto it = histograms_.find(name);
  if (it == histograms_.end()) return 0.0;
  return percentile_nearest_rank(it->second, p);
}

namespace {

void append_number(std::string& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  out += buf;
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (!first) out += ", ";
    first = false;
    append_json_string(out, name);
    out += ": " + std::to_string(value);
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out += ", ";
    first = false;
    append_json_string(out, name);
    out += ": {\"value\": ";
    append_number(out, gauge.value);
    out += ", \"max\": ";
    append_number(out, gauge.max);
    out += "}";
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, samples] : histograms_) {
    if (!first) out += ", ";
    first = false;
    append_json_string(out, name);
    out += ": {\"count\": " + std::to_string(samples.size());
    out += ", \"mean\": ";
    append_number(out, histogram_mean(name));
    double min = 0.0, max = 0.0;
    if (!samples.empty()) {
      min = *std::min_element(samples.begin(), samples.end());
      max = *std::max_element(samples.begin(), samples.end());
    }
    out += ", \"min\": ";
    append_number(out, min);
    out += ", \"max\": ";
    append_number(out, max);
    out += ", \"p50\": ";
    append_number(out, percentile_nearest_rank(samples, 50.0));
    out += ", \"p99\": ";
    append_number(out, percentile_nearest_rank(samples, 99.0));
    out += "}";
  }
  out += "}}";
  return out;
}

}  // namespace sgxmig::obs
