// Per-World metrics registry: named event counters fed by every
// instrumented layer (library, ME pump, network, PSE, durable writes).
// Counters are all it keeps; distributions and time series (freeze
// windows, transfer bytes, per-lane queue depths) live in the trace,
// which records each such fact once (obs/trace.h).
//
// Disabled by default; when off every record call is a cheap early
// return, and the registry never touches the virtual clock or RNG, so
// enabling metrics cannot perturb simulated timings.
//
// to_json() renders one {"counters": ...} block, which the traced
// drivers store as OrchestratorReport::metrics_json and so write into
// TRACE_REPORT_*.json.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace sgxmig::obs {

class MetricsRegistry {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void add(const std::string& name, uint64_t delta = 1);
  uint64_t counter(const std::string& name) const;

  /// {"counters": {name: count, ...}}, names in sorted order.
  std::string to_json() const;

 private:
  bool enabled_ = false;
  std::map<std::string, uint64_t> counters_;
};

}  // namespace sgxmig::obs
