// Invariant oracles for chaos storms (ISSUE 9): after a fault-injected
// drain, prove the paper's §III-B/§V-D guarantees held —
//
//   * convergence: every planned migration succeeded, the source is
//     empty, and each enclave completed EXACTLY one registry-confirmed
//     move (the nonce exactly-once observable);
//   * no counter regression: every pre-drain counter value reads back
//     exactly on the migrated instance;
//   * no forks: neither the post-drain stored buffer (freeze flag) nor
//     the pre-drain sealed snapshot (epoch guard / destroyed counters)
//     restores into a second USABLE instance — refusals are counted so
//     the no-fork verdict is cross-checked against epoch-guard refusals;
//   * durable-queue consistency: every surviving ME drained its incoming
//     records (assembled and staged), transfer tasks, and done-relay
//     retries.
//
// check_fault_recovery is the one fault-recovery oracle (bench_chaos_storm
// and perfbench run it): every "chaos.fault" trace instant must be
// followed by traced recovery evidence (a later delivery/reply, a heal,
// or later protocol spans) rather than a silent stall.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "orchestrator/fleet_registry.h"
#include "orchestrator/report.h"
#include "platform/world.h"

namespace sgxmig::chaos {

/// One violated invariant: `check` names the oracle, `detail` the
/// witness.  An empty finding list is the pass verdict.
struct OracleFinding {
  std::string check;
  std::string detail;
};

class ConvergenceOracle {
 public:
  /// `source_machine` is the machine the plan drains.
  ConvergenceOracle(orchestrator::FleetRegistry& fleet,
                    std::string source_machine);

  /// Snapshots the pre-drain ground truth: per-enclave counter values,
  /// completed-move counts, the current sealed buffer (the fork drill
  /// artifact an adversary would replay), and live-transfer capability.
  /// Call BEFORE Orchestrator::execute.
  void capture();

  /// Runs every post-drain oracle against `report` and the live fleet.
  /// Returns the violations (empty = all invariants held).
  std::vector<OracleFinding> verify(
      const orchestrator::OrchestratorReport& report);

  /// Stale restores refused by the epoch guard / freeze flag during
  /// verify() — the cross-check that the no-fork verdict came from the
  /// anti-fork machinery actually firing, not from luck.
  uint64_t epoch_guard_refusals() const { return epoch_guard_refusals_; }

  /// Forked instances detected by the last verify() (a stale buffer that
  /// restored AND could read state).  The headline gate is forks() == 0.
  uint64_t forks() const { return forks_; }

 private:
  struct Captured {
    uint64_t id = 0;
    std::string name;
    std::shared_ptr<const sgx::EnclaveImage> image;
    std::vector<std::pair<uint32_t, uint32_t>> counters;  // slot -> value
    uint32_t completed_migrations = 0;
    SharedBytes sealed;  // shares the enclave's buffer
    bool live_transfer = false;
  };

  orchestrator::FleetRegistry& fleet_;
  std::string source_;
  std::vector<Captured> captured_;
  uint64_t epoch_guard_refusals_ = 0;
  uint64_t forks_ = 0;
};

/// Post-drain settle, run before verify(): a storm can strand queue work
/// whose driver is gone — takeover timers, DONEs toward a just-revived
/// ME, orphans whose abort or reconcile was lost.  Up to 8 passes while
/// any ME holds work (incoming records, staged or assembled, unrelayed
/// DONEs after a re-send, retained transfers, tasks of either mode):
/// advance the clock 1 s, pump every ME, run its janitors, drain the
/// network.  A wedged queue survives for the durable-queue oracle.
/// Returns the passes run.
size_t settle_queues(platform::World& world);

/// Trace-level recovery oracle: every "chaos.fault" instant must be
/// followed (strictly later in virtual time) by recovery evidence — a
/// net.deliver / net.reply instant, a "chaos.heal", or a span starting
/// after the fault.  A fault with no subsequent activity is a silent
/// stall.  Returns one finding per stalled fault.
std::vector<OracleFinding> check_fault_recovery(
    const obs::TraceRecorder& recorder);

}  // namespace sgxmig::chaos
