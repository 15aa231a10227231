// Shared harness for the paper-reproduction benchmarks.
//
// Each figure/table binary collects N virtual-time samples per operation
// and prints the same quantities the paper reports: mean, 99% confidence
// interval (paper Figs. 3-4 plot 99% CI error bars over 1000 trials),
// relative overhead, and the one-tailed Welch t-test p-value the paper
// quotes (p ~ 0 for increment, p ~ 0.12 for read).
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "support/json.h"
#include "support/sim_clock.h"
#include "support/stats.h"

namespace sgxmig::bench {

inline constexpr int kPaperTrials = 1000;  // "# Tests: 1000" in Figs. 3-4

/// Runs `op` `trials` times against `clock`, returning per-run virtual
/// durations in seconds.
inline std::vector<double> sample_virtual_seconds(
    const VirtualClock& clock, int trials, const std::function<void()>& op) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(trials));
  for (int i = 0; i < trials; ++i) {
    const Duration before = clock.now();
    op();
    samples.push_back(to_seconds(clock.now() - before));
  }
  return samples;
}

struct ComparisonRow {
  std::string name;
  Summary library;    // Migration Library variant
  Summary baseline;   // standard SGX variant
  double p_value = 0.0;

  double overhead_percent() const {
    if (baseline.mean == 0.0) return 0.0;
    return (library.mean / baseline.mean - 1.0) * 100.0;
  }
};

inline ComparisonRow compare(const std::string& name,
                             const std::vector<double>& library,
                             const std::vector<double>& baseline) {
  ComparisonRow row;
  row.name = name;
  row.library = summarize(library);
  row.baseline = summarize(baseline);
  row.p_value = welch_one_tailed_p(library, baseline);
  return row;
}

inline void print_header(const std::string& title, const std::string& note) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  if (!note.empty()) std::printf("%s\n", note.c_str());
  std::printf("# Tests: %d   Confidence interval: 0.99\n", kPaperTrials);
  std::printf("================================================================\n");
  std::printf("%-22s %16s %16s %9s %10s\n", "operation",
              "migration lib [s]", "baseline [s]", "overhead", "p(1-tail)");
}

inline void print_row(const ComparisonRow& row) {
  std::printf("%-22s %9.6f±%.6f %9.6f±%.6f %8.1f%% %10.4g\n", row.name.c_str(),
              row.library.mean, row.library.ci99_half, row.baseline.mean,
              row.baseline.ci99_half, row.overhead_percent(), row.p_value);
}

/// Row for operations without a baseline (library-only, e.g. init).
inline void print_single_row(const std::string& name, const Summary& s) {
  std::printf("%-22s %9.6f±%.6f %16s %9s %10s\n", name.c_str(), s.mean,
              s.ci99_half, "-", "-", "-");
}

/// Writes `body` to `path` verbatim; false on any I/O error.
inline bool write_text_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  return std::fclose(f) == 0 && written == body.size();
}

// ----- machine-readable bench output (CI perf-trajectory artifacts) -----
//
// Benches that feed CI append rows of key/value fields and write one
// BENCH_<name>.json next to the binary's working directory:
//   {"bench": "<name>", "rows": [{...}, ...]}

class JsonBench {
 public:
  explicit JsonBench(const std::string& name) {
    doc_.begin_object().key("bench").string(name).key("rows").begin_array();
  }

  JsonBench& begin_row() {
    if (row_count_ > 0) doc_.end_object();
    doc_.begin_object();
    ++row_count_;
    return *this;
  }
  JsonBench& field(const std::string& key, double value) {
    doc_.key(key).number(value, 6);
    return *this;
  }
  JsonBench& field(const std::string& key, uint64_t value) {
    doc_.key(key).integer(value);
    return *this;
  }
  JsonBench& field(const std::string& key, int value) {
    return field(key, static_cast<uint64_t>(value));
  }
  JsonBench& field(const std::string& key, const std::string& value) {
    doc_.key(key).string(value);
    return *this;
  }

  /// Writes {"bench": name, "rows": [...]}; returns false on I/O error.
  bool write_file(const std::string& path) const {
    JsonWriter doc = doc_;
    if (row_count_ > 0) doc.end_object();
    doc.end_array().end_object();
    if (!write_text_file(path, doc.str() + "\n")) return false;
    std::printf("\nwrote %s (%zu rows)\n", path.c_str(), row_count_);
    return true;
  }

 private:
  JsonWriter doc_;  // open through the "rows" array and its last row
  size_t row_count_ = 0;
};

}  // namespace sgxmig::bench
