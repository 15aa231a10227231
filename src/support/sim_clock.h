// Deterministic virtual time.
//
// All modeled hardware and network latencies advance a shared VirtualClock
// instead of sleeping, so the benchmark harnesses reproduce the paper's
// timing figures deterministically and run in milliseconds of wall time.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace sgxmig {

using Duration = std::chrono::nanoseconds;

constexpr Duration nanoseconds(uint64_t n) { return Duration(n); }
constexpr Duration microseconds(uint64_t n) { return Duration(n * 1000); }
constexpr Duration milliseconds(uint64_t n) { return Duration(n * 1000000); }
constexpr Duration seconds(double s) {
  return Duration(static_cast<int64_t>(s * 1e9));
}

/// Converts to floating-point seconds for reporting.
double to_seconds(Duration d);
double to_milliseconds(Duration d);

class VirtualClock {
 public:
  /// Monotonic virtual timestamp since world creation.
  Duration now() const { return now_; }

  /// Models the passage of `d` of real time.
  void advance(Duration d) { now_ += d; }

  /// Repositions the clock, possibly BACKWARD.  Reserved for LaneSchedule,
  /// which measures work on one machine's timeline and then returns to the
  /// control instant; everything else must only ever advance().
  void set_now(Duration t) { now_ = t; }

 private:
  Duration now_{0};
};

/// Per-lane virtual-time ledger for pipelined phases.
///
/// The shared VirtualClock serializes everything: two migrations that
/// would genuinely overlap on different machines still SUM their modeled
/// latencies, which is why a synchronous fleet drain is flat in the
/// in-flight cap.  A LaneSchedule gives each serial resource (one lane
/// per machine: its CPU/PSE/disk are serial, different machines are not)
/// its own timeline over the one clock:
///
///   * run(lane, ready_at, fn) positions the clock at
///     max(ready_at, lane end) — rewinding below the control instant if
///     the lane is behind it — runs fn (whose charge()s advance the clock
///     normally, now attributed to the lane), records the lane's new end,
///     and returns the clock to the control instant.
///   * the CONTROL instant is the driver's own "now" (admission decisions,
///     backoff checks); it only moves forward.
///   * horizon() is the max end over every lane run; the destructor lands
///     the clock there, so a stopwatch around the phase reads the
///     PARALLEL wall time (max over lanes), not the serial sum.
///
/// Code running inside fn may read timestamps that later appear to go
/// backward relative to other lanes; every consumer in this codebase
/// (rate limiters, idle timeouts) compares differences defensively, so a
/// negative delta is merely "not yet elapsed".  Deterministic: lane
/// arithmetic introduces no new randomness.
class LaneSchedule {
 public:
  explicit LaneSchedule(VirtualClock& clock)
      : clock_(clock), control_(clock.now()), horizon_(clock.now()) {}
  ~LaneSchedule() { clock_.set_now(horizon()); }

  LaneSchedule(const LaneSchedule&) = delete;
  LaneSchedule& operator=(const LaneSchedule&) = delete;

  /// Runs `fn` on `lane`, starting no earlier than `ready_at` and no
  /// earlier than the lane's previous end.  Returns the completion time.
  /// Nested runs (fn itself calling run, e.g. a network pump inside a
  /// driver step) execute inline on the already-running lane.
  Duration run(const std::string& lane, Duration ready_at,
               const std::function<void()>& fn);

  /// End of the last work on `lane`; the control instant if none ran yet.
  Duration lane_end(const std::string& lane) const;

  Duration control() const { return control_; }
  /// Moves the control instant forward (never backward) and parks the
  /// clock there, so driver code between lane runs reads a consistent
  /// "now".
  void advance_control(Duration t) {
    if (t > control_) control_ = t;
    clock_.set_now(control_);
  }
  /// Adopts clock time that advanced OUTSIDE any lane run (e.g. a chaos
  /// hook rebuilding an enclave at control level) into the control
  /// instant, so it is not discarded by the next lane run's restore.
  void sync_control_from_clock() { advance_control(clock_.now()); }

  /// Max completion time over every lane run so far (>= control).
  Duration horizon() const { return std::max(horizon_, control_); }

  // ----- lane-event feed -----
  //
  // Every top-level run() appends one (lane, end) event.  The
  // orchestrator drains the feed once per scheduling wave to learn which
  // lanes did work since it last looked — the set of machines that may
  // need another pump kick — instead of scanning every machine in the
  // fleet.  Nested runs attribute to the outer lane and produce no
  // separate event.

  struct LaneEvent {
    std::string lane;
    Duration end{};
  };

  /// Drains the recorded events (chronological per lane; interleaved
  /// across lanes in run order).
  std::vector<LaneEvent> take_lane_events() {
    return std::exchange(events_, {});
  }

 private:
  VirtualClock& clock_;
  Duration control_;
  Duration horizon_;
  bool running_ = false;
  std::map<std::string, Duration> lane_end_;
  std::vector<LaneEvent> events_;
};

// ----- real-resource probes (scaling benches) -----
//
// The scaling benches gate on the orchestrator's REAL control-plane cost
// (CPU seconds burned driving the simulation), not just virtual wall
// time.  These are the only real-clock reads in the tree and live here
// because sim_clock is the designated real-time boundary; nothing in
// src/ may branch on them.

/// CPU time consumed by this process (user + system), in seconds.
double process_cpu_seconds();

/// Peak resident set size of this process, in bytes (0 if unavailable).
/// Informational: allocator reuse makes it a ceiling, not a per-phase
/// measurement — the benches gate on deterministic byte accounting and
/// report this alongside.
uint64_t process_peak_rss_bytes();

/// RAII stopwatch over a VirtualClock.
class VirtualStopwatch {
 public:
  explicit VirtualStopwatch(const VirtualClock& clock)
      : clock_(clock), start_(clock.now()) {}

  Duration elapsed() const { return clock_.now() - start_; }

 private:
  const VirtualClock& clock_;
  Duration start_;
};

}  // namespace sgxmig
