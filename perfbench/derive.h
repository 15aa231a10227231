// Derivations perfbench computes from a run's report and trace.  They are
// pure functions of recorded data (no clock reads), so the self-test can
// pin each one against a hand-built fixture with known answers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "support/sim_clock.h"

namespace sgxmig::perfbench {

/// A nearest-rank percentile (support/stats.h) with its sample count and
/// the number of samples ranked strictly beyond it.
struct Quantile {
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};

/// Samples ranked beyond the nearest-rank `p` percentile of `n` samples.
size_t samples_beyond(size_t n, double p);

/// A tail percentile is reported only with at least ten samples beyond
/// it; below that it is one or two outliers, not a tail.
bool tail_resolved(size_t n, double p);

Quantile quantile(const std::vector<double>& samples, double p);

/// Client-visible blocked time per enclave: from the end of its last
/// served client op on the source to its restore on the destination.
/// Enclaves missing from either map contribute nothing.
std::vector<double> blocked_seconds(
    const std::map<uint64_t, Duration>& last_op_end,
    const std::map<uint64_t, Duration>& restored_at);

/// Time ME transfer tasks spent in the given `me.task.step` states.  For
/// each trace id the step instants are ordered by time and every gap is
/// credited to the step that opened it; the result holds one total per
/// trace id that entered any of `steps` (e.g. all attestation steps).
std::vector<double> dwell_sum(
    const obs::TraceRecorder& recorder,
    const std::vector<std::string>& steps);

/// Share of the `migration` root spans' total duration not covered by the
/// union of their direct children's intervals (clipped to the root).
double root_self_share(const obs::TraceRecorder& recorder);

/// Durations in seconds of every closed span named `name`.
std::vector<double> span_seconds(const obs::TraceRecorder& recorder,
                                 const std::string& name);

/// Wire transit of each deferred message: `net.post` to the matching
/// `net.deliver` (same "msg" arg), in seconds.
std::vector<double> transit_seconds(const obs::TraceRecorder& recorder);

/// Largest sample of the named counter track (0 when absent).
double counter_max(const obs::TraceRecorder& recorder,
                   const std::string& name);

/// `me.task.step` instants whose "step" arg equals `step`.
size_t step_count(const obs::TraceRecorder& recorder, const std::string& step);

/// Per `chaos.fault` instant, seconds until the first recovery evidence
/// strictly after it, under the rule of chaos::check_fault_recovery: a
/// net.deliver / net.reply / chaos.heal instant or a span start.  Faults
/// never followed by evidence are skipped (the oracle reports them).
std::vector<double> recovery_seconds(const obs::TraceRecorder& recorder);

}  // namespace sgxmig::perfbench
