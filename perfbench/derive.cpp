#include "derive.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/stats.h"

namespace sgxmig::perfbench {

namespace {

std::string arg_of(const obs::TraceArgs& args, const std::string& key) {
  for (const auto& [k, v] : args) {
    if (k == key) return v;
  }
  return {};
}

}  // namespace

size_t samples_beyond(size_t n, double p) {
  if (n == 0) return 0;
  // Same rank as percentile_nearest_rank.
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

bool tail_resolved(size_t n, double p) { return samples_beyond(n, p) >= 10; }

Quantile quantile(const std::vector<double>& samples, double p) {
  Quantile q;
  q.value = percentile_nearest_rank(samples, p);
  q.samples = samples.size();
  q.beyond = samples_beyond(samples.size(), p);
  return q;
}

std::vector<double> blocked_seconds(
    const std::map<uint64_t, Duration>& last_op_end,
    const std::map<uint64_t, Duration>& restored_at) {
  std::vector<double> out;
  for (const auto& [id, end] : last_op_end) {
    const auto it = restored_at.find(id);
    if (it == restored_at.end()) continue;
    out.push_back(to_seconds(it->second - end));
  }
  return out;
}

std::vector<double> dwell_sum(const obs::TraceRecorder& recorder,
                              const std::vector<std::string>& steps) {
  std::map<uint64_t, std::vector<std::pair<Duration, std::string>>> by_trace;
  for (const obs::TraceInstant& instant : recorder.instants()) {
    if (instant.name != "me.task.step") continue;
    by_trace[instant.trace_id].emplace_back(instant.at,
                                            arg_of(instant.args, "step"));
  }
  std::vector<double> out;
  for (auto& [trace, seq] : by_trace) {
    std::stable_sort(seq.begin(), seq.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    Duration total{};
    bool entered = false;
    for (size_t i = 0; i + 1 < seq.size(); ++i) {
      if (std::find(steps.begin(), steps.end(), seq[i].second) == steps.end()) {
        continue;
      }
      total += seq[i + 1].first - seq[i].first;
      entered = true;
    }
    if (entered) out.push_back(to_seconds(total));
  }
  return out;
}

double root_self_share(const obs::TraceRecorder& recorder) {
  std::map<uint64_t, std::vector<std::pair<Duration, Duration>>> children;
  for (const obs::TraceSpan& span : recorder.spans()) {
    if (span.parent_id != 0 && !span.open) {
      children[span.parent_id].emplace_back(span.start, span.end);
    }
  }
  Duration total{};
  Duration self{};
  for (const obs::TraceSpan& root : recorder.spans()) {
    if (root.name != "migration" || root.parent_id != 0 || root.open) continue;
    total += root.end - root.start;
    std::vector<std::pair<Duration, Duration>> kids = children[root.span_id];
    std::sort(kids.begin(), kids.end());
    Duration covered{};
    Duration cursor = root.start;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, root.end);
      if (end <= start) continue;
      covered += end - start;
      cursor = end;
    }
    self += (root.end - root.start) - covered;
  }
  if (total.count() == 0) return 0.0;
  return static_cast<double>(self.count()) / static_cast<double>(total.count());
}

std::vector<double> span_seconds(const obs::TraceRecorder& recorder,
                                 const std::string& name) {
  std::vector<double> out;
  for (const obs::TraceSpan& span : recorder.spans()) {
    if (span.name == name && !span.open) {
      out.push_back(to_seconds(span.end - span.start));
    }
  }
  return out;
}

std::vector<double> transit_seconds(const obs::TraceRecorder& recorder) {
  std::map<std::string, Duration> posted;
  for (const obs::TraceInstant& instant : recorder.instants()) {
    if (instant.name == "net.post") posted[arg_of(instant.args, "msg")] = instant.at;
  }
  std::vector<double> out;
  for (const obs::TraceInstant& instant : recorder.instants()) {
    if (instant.name != "net.deliver") continue;
    const auto it = posted.find(arg_of(instant.args, "msg"));
    if (it != posted.end()) out.push_back(to_seconds(instant.at - it->second));
  }
  return out;
}

double counter_max(const obs::TraceRecorder& recorder,
                   const std::string& name) {
  double best = 0.0;
  for (const obs::TraceCounterSample& sample : recorder.counter_samples()) {
    if (sample.name == name) best = std::max(best, sample.value);
  }
  return best;
}

size_t step_count(const obs::TraceRecorder& recorder,
                  const std::string& step) {
  size_t n = 0;
  for (const obs::TraceInstant& instant : recorder.instants()) {
    if (instant.name == "me.task.step" && arg_of(instant.args, "step") == step) {
      ++n;
    }
  }
  return n;
}

std::vector<double> recovery_seconds(const obs::TraceRecorder& recorder) {
  std::vector<Duration> evidence;
  for (const obs::TraceInstant& instant : recorder.instants()) {
    if (instant.name == "net.deliver" || instant.name == "net.reply" ||
        instant.name == "chaos.heal") {
      evidence.push_back(instant.at);
    }
  }
  for (const obs::TraceSpan& span : recorder.spans()) {
    evidence.push_back(span.start);
  }
  std::sort(evidence.begin(), evidence.end());
  std::vector<double> out;
  for (const obs::TraceInstant& fault : recorder.instants()) {
    if (fault.name != "chaos.fault") continue;
    const auto it = std::upper_bound(evidence.begin(), evidence.end(), fault.at);
    if (it != evidence.end()) out.push_back(to_seconds(*it - fault.at));
  }
  return out;
}

}  // namespace sgxmig::perfbench
