// Cross-layer trace recorder: spans and instant events stamped with the
// virtual clock and attributed to LaneSchedule lanes (one lane per
// machine), so a pipelined fleet drain renders as a per-machine timeline.
//
// Trace ids are the migration attempt nonces already flowing through the
// protocol (MigrateRequest/Reserve/Transfer payloads): every layer that
// touches an attempt — library freeze/arm/finalize, ME TransferTask
// steps, the destination restore — records against the same id, and the
// recorder stitches the spans into ONE tree per migration without parent
// ids ever crossing the wire: the first span recorded for a trace id
// becomes the tree's root, and later spans with no explicit parent are
// parented to it.
//
// Disabled by default (set_enabled): when off, begin_span returns 0 and
// every other call is a cheap early-return.  The recorder never touches
// the virtual clock (reads only) and draws no randomness, so traced and
// untraced runs of the same seed produce IDENTICAL virtual timings —
// the zero-overhead-when-off property bench_fleet_drain gates on.
//
// Export: to_chrome_json() emits Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing): machines as processes, spans as async
// nestable events grouped per trace id (so concurrent migrations on one
// lane get separate rows), instants as "i" events, and per-lane queue
// depths as "C" counter tracks.  scripts/trace_check.py consumes the
// same file as a correctness oracle.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support/sim_clock.h"

namespace sgxmig::obs {

using TraceArgs = std::vector<std::pair<std::string, std::string>>;

struct TraceSpan {
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root of its trace tree
  uint64_t trace_id = 0;   // migration attempt nonce; 0 = standalone
  std::string name;
  std::string lane;  // machine address; "" = control plane
  Duration start{};
  Duration end{};
  bool open = true;
  TraceArgs args;
};

struct TraceInstant {
  std::string name;
  std::string lane;
  uint64_t trace_id = 0;
  Duration at{};
  TraceArgs args;
};

/// One sample of a named per-lane counter track (Chrome "C" event).
struct TraceCounterSample {
  std::string name;
  std::string lane;
  Duration at{};
  double value = 0.0;
};

class TraceRecorder {
 public:
  explicit TraceRecorder(const VirtualClock& clock) : clock_(clock) {}

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span starting now.  Returns its id, or 0 when disabled.
  /// parent_id 0 + a nonzero trace_id auto-parents to the trace's root
  /// span (or REGISTERS this span as the root if it is the first).
  uint64_t begin_span(std::string name, const std::string& lane,
                      uint64_t trace_id = 0, uint64_t parent_id = 0);
  /// Closes the span at the current virtual time.  A root that was
  /// already closed is re-extended when a late child closes after it, so
  /// trees stay well-nested even when lanes complete out of order.
  void end_span(uint64_t span_id);
  void span_arg(uint64_t span_id, std::string key, std::string value);
  void span_arg(uint64_t span_id, std::string key, uint64_t value);
  /// Late trace-id binding for spans whose id is drawn after the span
  /// opened (the freeze starts before the attempt nonce exists).  Also
  /// resolves the root-or-child decision begin_span would have made.
  void assign_trace(uint64_t span_id, uint64_t trace_id);

  void instant(std::string name, const std::string& lane,
               uint64_t trace_id = 0, TraceArgs args = {});
  /// Instant with an explicit timestamp (deferred network deliveries
  /// happen at a scheduled instant, not at the recorder-call instant).
  void instant_at(Duration at, std::string name, const std::string& lane,
                  uint64_t trace_id = 0, TraceArgs args = {});

  void counter(const std::string& name, const std::string& lane,
               double value);
  void counter_at(Duration at, const std::string& name,
                  const std::string& lane, double value);

  /// Root span id registered for `trace_id`; 0 when none yet.
  uint64_t trace_root(uint64_t trace_id) const;
  /// Ends the root span of `trace_id` no earlier than now and no earlier
  /// than any closed child (the "migration done" stamp).
  void end_trace_root(uint64_t trace_id);

  // ----- inspection (tests, the invariant checker's C++ twin) -----
  const std::vector<TraceSpan>& spans() const { return spans_; }
  const std::vector<TraceInstant>& instants() const { return instants_; }
  const std::vector<TraceCounterSample>& counter_samples() const {
    return counter_samples_;
  }
  const TraceSpan* find_span(uint64_t span_id) const;
  size_t open_span_count() const;

  /// Chrome trace-event JSON ({"traceEvents": [...]}).  Open spans are
  /// closed at the latest recorded timestamp and tagged "open": 1.
  std::string to_chrome_json() const;

 private:
  TraceSpan* mutable_span(uint64_t span_id);

  const VirtualClock& clock_;
  bool enabled_ = false;
  std::vector<TraceSpan> spans_;  // span_id = index + 1 (never erased)
  std::vector<TraceInstant> instants_;
  std::vector<TraceCounterSample> counter_samples_;
  std::map<uint64_t, uint64_t> root_of_trace_;  // trace_id -> span_id
};

}  // namespace sgxmig::obs
