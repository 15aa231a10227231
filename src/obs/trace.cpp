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
double to_trace_us(Duration d) {
  return static_cast<double>(d.count()) / 1000.0;
}

void write_args(JsonWriter& w, const TraceArgs& args) {
  w.key("args").begin_object();
  for (const auto& [key, value] : args) w.key(key).string(value);
  w.end_object();
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

  JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();

  const auto metadata = [&w](const char* name, int pid, int tid,
                             const std::string& label) {
    w.begin_object();
    w.key("ph").string("M").key("name").string(name);
    w.key("pid").integer(pid).key("tid").integer(tid);
    w.key("args").begin_object().key("name").string(label).end_object();
    w.end_object();
  };
  for (const auto& [lane, pid] : pids) {
    metadata("process_name", pid, 0, lane.empty() ? "control" : lane);
    metadata("thread_name", pid, 1, lane.empty() ? "control" : lane + " lane");
  }

  char id[32];
  for (const TraceSpan& span : spans_) {
    // Async nestable pair: migrations overlapping on one lane must not
    // share a synchronous slice stack, so each trace id gets its own
    // async track group under the machine's process.
    const uint64_t group = span.trace_id != 0 ? span.trace_id : span.span_id;
    std::snprintf(id, sizeof(id), "0x%llx",
                  static_cast<unsigned long long>(group));
    const auto common = [&](const char* ph) {
      w.key("ph").string(ph).key("cat").string("span").key("id").string(id);
      w.key("pid").integer(pid_of(span.lane)).key("tid").integer(1);
      w.key("name").string(span.name);
    };
    w.begin_object();
    common("b");
    w.key("ts").number(to_trace_us(span.start), 3);
    TraceArgs args = span.args;
    args.emplace_back("span", std::to_string(span.span_id));
    args.emplace_back("parent", std::to_string(span.parent_id));
    args.emplace_back("trace", std::to_string(span.trace_id));
    args.emplace_back("lane", span.lane);
    if (span.open) args.emplace_back("open", "1");
    write_args(w, args);
    w.end_object();
    w.begin_object();
    common("e");
    w.key("ts").number(
        to_trace_us(span.open ? std::max(horizon, span.start) : span.end), 3);
    write_args(w, {{"span", std::to_string(span.span_id)}});
    w.end_object();
  }

  for (const TraceInstant& event : instants_) {
    w.begin_object();
    w.key("ph").string("i").key("s").string("t");
    w.key("pid").integer(pid_of(event.lane)).key("tid").integer(1);
    w.key("name").string(event.name);
    w.key("ts").number(to_trace_us(event.at), 3);
    TraceArgs args = event.args;
    args.emplace_back("trace", std::to_string(event.trace_id));
    write_args(w, args);
    w.end_object();
  }

  for (const TraceCounterSample& sample : counter_samples_) {
    w.begin_object();
    w.key("ph").string("C");
    w.key("pid").integer(pid_of(sample.lane)).key("tid").integer(1);
    w.key("name").string(sample.name);
    w.key("ts").number(to_trace_us(sample.at), 3);
    w.key("args").begin_object().key("value").number(sample.value, 3);
    w.end_object().end_object();
  }

  w.end_array().end_object();
  return std::move(w).str();
}

}  // namespace sgxmig::obs
