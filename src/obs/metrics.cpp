#include "obs/metrics.h"

#include "support/json.h"

namespace sgxmig::obs {

void MetricsRegistry::add(const std::string& name, uint64_t delta) {
  if (!enabled_) return;
  counters_[name] += delta;
}

uint64_t MetricsRegistry::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::string MetricsRegistry::to_json() const {
  JsonWriter w;
  w.begin_object().key("counters").begin_object();
  for (const auto& [name, value] : counters_) w.key(name).integer(value);
  w.end_object().end_object();
  return std::move(w).str();
}

}  // namespace sgxmig::obs
