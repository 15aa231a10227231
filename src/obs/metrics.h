// Per-World metrics registry: named counters, gauges (current + max),
// and histograms with nearest-rank p50/p99, fed by every instrumented
// layer (library, ME pump, network, PSE, persistence engines).
//
// Disabled by default; when off every record call is a cheap early
// return, and the registry never touches the virtual clock or RNG, so
// enabling metrics cannot perturb simulated timings.
//
// to_json() renders one {"counters": ..., "gauges": ..., "histograms":
// ...} block, merged into OrchestratorReport::to_json and the
// BENCH_*.json emitters.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sgxmig::obs {

class MetricsRegistry {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void add(const std::string& name, uint64_t delta = 1);
  /// Sets the gauge's current value; its max-so-far is tracked alongside.
  void set_gauge(const std::string& name, double value);
  void observe(const std::string& name, double value);

  uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  double gauge_max(const std::string& name) const;
  size_t histogram_count(const std::string& name) const;
  double histogram_mean(const std::string& name) const;
  /// Nearest-rank percentile of the named histogram (p in [0, 100]);
  /// 0 when the histogram is empty or unknown.
  double histogram_percentile(const std::string& name, double p) const;

  /// {"counters": {...}, "gauges": {name: {"value", "max"}}, "histograms":
  ///  {name: {"count", "mean", "min", "max", "p50", "p99"}}}
  std::string to_json() const;

 private:
  struct Gauge {
    double value = 0.0;
    double max = 0.0;
  };

  bool enabled_ = false;
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, std::vector<double>> histograms_;
};

}  // namespace sgxmig::obs
