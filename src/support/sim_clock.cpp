#include "support/sim_clock.h"

#include <ctime>

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace sgxmig {

double to_seconds(Duration d) {
  return static_cast<double>(d.count()) / 1e9;
}

double to_milliseconds(Duration d) {
  return static_cast<double>(d.count()) / 1e6;
}

Duration LaneSchedule::run(const std::string& lane, Duration ready_at,
                           const std::function<void()>& fn) {
  if (running_) {
    // Nested: the outer run already owns the clock; attribute the work to
    // its lane (same-machine nesting is the only in-tree case).
    fn();
    return clock_.now();
  }
  const auto it = lane_end_.find(lane);
  Duration start = it == lane_end_.end() ? control_ : it->second;
  if (ready_at > start) start = ready_at;
  running_ = true;
  clock_.set_now(start);
  fn();
  const Duration end = clock_.now();
  running_ = false;
  lane_end_[lane] = end;
  if (end > horizon_) horizon_ = end;
  events_.push_back(LaneEvent{lane, end});
  clock_.set_now(control_);
  return end;
}

double process_cpu_seconds() {
  // sim_clock is the designated real-time boundary (simlint whitelists
  // this file); callers must never branch simulation logic on this value.
  struct timespec ts {};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

uint64_t process_peak_rss_bytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // ru_maxrss is kilobytes on Linux.
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

uint64_t process_heap_in_use_bytes() {
#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
  const struct mallinfo2 info = mallinfo2();
  return static_cast<uint64_t>(info.uordblks) +
         static_cast<uint64_t>(info.hblkhd);
#else
  return 0;
#endif
}

Duration LaneSchedule::lane_end(const std::string& lane) const {
  const auto it = lane_end_.find(lane);
  return it == lane_end_.end() ? control_ : it->second;
}

}  // namespace sgxmig
