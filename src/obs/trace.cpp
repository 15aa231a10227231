#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "support/json.h"

namespace sgxmig::obs {

uint64_t TraceRecorder::begin_span(std::string name, const std::string& lane,
                                   uint64_t trace_id, uint64_t parent_id) {
  if (!enabled_) return 0;
  TraceSpan span;
  span.span_id = spans_.size() + 1;
  span.trace_id = trace_id;
  span.name = std::move(name);
  span.lane = lane;
  span.start = clock_.now();
  span.end = span.start;
  if (parent_id != 0) {
    span.parent_id = parent_id;
  } else if (trace_id != 0) {
    const auto root = root_of_trace_.find(trace_id);
    if (root == root_of_trace_.end()) {
      root_of_trace_.emplace(trace_id, span.span_id);
    } else {
      span.parent_id = root->second;
    }
  }
  spans_.push_back(std::move(span));
  return spans_.back().span_id;
}

TraceSpan* TraceRecorder::mutable_span(uint64_t span_id) {
  if (span_id == 0 || span_id > spans_.size()) return nullptr;
  return &spans_[span_id - 1];
}

const TraceSpan* TraceRecorder::find_span(uint64_t span_id) const {
  if (span_id == 0 || span_id > spans_.size()) return nullptr;
  return &spans_[span_id - 1];
}

void TraceRecorder::end_span(uint64_t span_id) {
  TraceSpan* span = mutable_span(span_id);
  if (span == nullptr || !span->open) return;
  span->end = std::max(span->start, clock_.now());
  span->open = false;
  // Lanes complete out of order in virtual time: a child may close AFTER
  // its (already closed) root — e.g. the source's freeze-ending poll runs
  // later on its lane than the destination's confirm that ended the root.
  // Re-extend every closed ancestor so the tree stays well-nested.
  uint64_t parent_id = span->parent_id;
  const Duration end = span->end;
  while (parent_id != 0) {
    TraceSpan* parent = mutable_span(parent_id);
    if (parent == nullptr) break;
    if (!parent->open && parent->end < end) parent->end = end;
    parent_id = parent->parent_id;
  }
}

void TraceRecorder::span_arg(uint64_t span_id, std::string key,
                             std::string value) {
  TraceSpan* span = mutable_span(span_id);
  if (span == nullptr) return;
  span->args.emplace_back(std::move(key), std::move(value));
}

void TraceRecorder::span_arg(uint64_t span_id, std::string key,
                             uint64_t value) {
  span_arg(span_id, std::move(key), std::to_string(value));
}

void TraceRecorder::assign_trace(uint64_t span_id, uint64_t trace_id) {
  TraceSpan* span = mutable_span(span_id);
  if (span == nullptr || trace_id == 0) return;
  span->trace_id = trace_id;
  if (span->parent_id != 0) return;
  const auto root = root_of_trace_.find(trace_id);
  if (root == root_of_trace_.end()) {
    root_of_trace_.emplace(trace_id, span_id);
  } else if (root->second != span_id) {
    span->parent_id = root->second;
  }
}

void TraceRecorder::instant(std::string name, const std::string& lane,
                            uint64_t trace_id, TraceArgs args) {
  instant_at(clock_.now(), std::move(name), lane, trace_id, std::move(args));
}

void TraceRecorder::instant_at(Duration at, std::string name,
                               const std::string& lane, uint64_t trace_id,
                               TraceArgs args) {
  if (!enabled_) return;
  TraceInstant event;
  event.name = std::move(name);
  event.lane = lane;
  event.trace_id = trace_id;
  event.at = at;
  event.args = std::move(args);
  instants_.push_back(std::move(event));
}

void TraceRecorder::counter(const std::string& name, const std::string& lane,
                            double value) {
  counter_at(clock_.now(), name, lane, value);
}

void TraceRecorder::counter_at(Duration at, const std::string& name,
                               const std::string& lane, double value) {
  if (!enabled_) return;
  counter_samples_.push_back({name, lane, at, value});
}

uint64_t TraceRecorder::trace_root(uint64_t trace_id) const {
  const auto it = root_of_trace_.find(trace_id);
  return it == root_of_trace_.end() ? 0 : it->second;
}

void TraceRecorder::end_trace_root(uint64_t trace_id) {
  const uint64_t root_id = trace_root(trace_id);
  TraceSpan* root = mutable_span(root_id);
  if (root == nullptr) return;
  Duration end = std::max(root->start, clock_.now());
  for (const TraceSpan& span : spans_) {
    if (span.trace_id == trace_id && !span.open && span.end > end) {
      end = span.end;
    }
  }
  if (root->open || root->end < end) {
    root->end = end;
    root->open = false;
  }
}

size_t TraceRecorder::open_span_count() const {
  size_t n = 0;
  for (const TraceSpan& span : spans_) n += span.open ? 1 : 0;
  return n;
}

namespace {

/// Chrome trace-event timestamps are microseconds; keep ns resolution
/// with three decimals so trace-derived windows match reported ones.
void append_ts(std::string& out, Duration d) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(d.count()) / 1000.0);
  out += buf;
}

void append_args(std::string& out, const TraceArgs& args) {
  out += "\"args\": {";
  bool first = true;
  for (const auto& [key, value] : args) {
    if (!first) out += ", ";
    first = false;
    append_json_string(out, key);
    out += ": ";
    append_json_string(out, value);
  }
  out += "}";
}

}  // namespace

std::string TraceRecorder::to_chrome_json() const {
  // Machines as processes: every lane string gets a pid (creation-order
  // stable); the control lane ("") is pid 1, named "control".
  std::map<std::string, int> pids;
  const auto pid_of = [&pids](const std::string& lane) {
    const auto it = pids.find(lane);
    if (it != pids.end()) return it->second;
    const int pid = static_cast<int>(pids.size()) + 1;
    pids.emplace(lane, pid);
    return pid;
  };
  pid_of("");
  for (const TraceSpan& span : spans_) pid_of(span.lane);
  for (const TraceInstant& event : instants_) pid_of(event.lane);
  for (const TraceCounterSample& sample : counter_samples_) pid_of(sample.lane);

  Duration horizon{};
  for (const TraceSpan& span : spans_) {
    horizon = std::max(horizon, std::max(span.start, span.end));
  }
  for (const TraceInstant& event : instants_) {
    horizon = std::max(horizon, event.at);
  }

  std::string out = "{\"traceEvents\": [";
  bool first = true;
  const auto sep = [&out, &first] {
    if (!first) out += ", ";
    first = false;
  };

  for (const auto& [lane, pid] : pids) {
    sep();
    out += "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": " +
           std::to_string(pid) + ", \"tid\": 0, \"args\": {\"name\": ";
    append_json_string(out, lane.empty() ? "control" : lane);
    out += "}}";
    sep();
    out += "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": " +
           std::to_string(pid) + ", \"tid\": 1, \"args\": {\"name\": ";
    append_json_string(out, lane.empty() ? "control" : lane + " lane");
    out += "}}";
  }

  char idbuf[32];
  for (const TraceSpan& span : spans_) {
    // Async nestable pair: migrations overlapping on one lane must not
    // share a synchronous slice stack, so each trace id gets its own
    // async track group under the machine's process.
    const uint64_t group = span.trace_id != 0 ? span.trace_id : span.span_id;
    std::snprintf(idbuf, sizeof(idbuf), "\"0x%llx\"",
                  static_cast<unsigned long long>(group));
    const std::string common = std::string("\"cat\": \"span\", \"id\": ") +
                               idbuf + ", \"pid\": " +
                               std::to_string(pid_of(span.lane)) +
                               ", \"tid\": 1, \"name\": " +
                               json_string(span.name);
    sep();
    out += "{\"ph\": \"b\", " + common + ", \"ts\": ";
    append_ts(out, span.start);
    out += ", ";
    TraceArgs args = span.args;
    args.emplace_back("span", std::to_string(span.span_id));
    args.emplace_back("parent", std::to_string(span.parent_id));
    args.emplace_back("trace", std::to_string(span.trace_id));
    args.emplace_back("lane", span.lane);
    if (span.open) args.emplace_back("open", "1");
    append_args(out, args);
    out += "}";
    sep();
    out += "{\"ph\": \"e\", " + common + ", \"ts\": ";
    append_ts(out, span.open ? std::max(horizon, span.start) : span.end);
    out += ", \"args\": {\"span\": ";
    append_json_string(out, std::to_string(span.span_id));
    out += "}}";
  }

  for (const TraceInstant& event : instants_) {
    sep();
    out += "{\"ph\": \"i\", \"s\": \"t\", \"pid\": " +
           std::to_string(pid_of(event.lane)) + ", \"tid\": 1, \"name\": " +
           json_string(event.name) + ", \"ts\": ";
    append_ts(out, event.at);
    out += ", ";
    TraceArgs args = event.args;
    args.emplace_back("trace", std::to_string(event.trace_id));
    append_args(out, args);
    out += "}";
  }

  for (const TraceCounterSample& sample : counter_samples_) {
    char value[32];
    std::snprintf(value, sizeof(value), "%.3f", sample.value);
    sep();
    out += "{\"ph\": \"C\", \"pid\": " + std::to_string(pid_of(sample.lane)) +
           ", \"tid\": 1, \"name\": " + json_string(sample.name) +
           ", \"ts\": ";
    append_ts(out, sample.at);
    out += ", \"args\": {\"value\": ";
    out += value;
    out += "}}";
  }

  out += "]}";
  return out;
}

}  // namespace sgxmig::obs
