// Chaos storm bench (ISSUE 9): seeded fault storms over full pipelined
// drains of a 32-enclave machine, one row per seed x fault-mix profile.
// Every storm runs the invariant oracles afterwards — convergence,
// exactly-once, no counter regression, NO FORKS (cross-checked against
// epoch-guard refusals), durable-queue consistency — and any violation
// exits non-zero printing the replaying seed (also written to
// CHAOS_FAILING_SEED.txt for the CI artifact).  A traced rerun of the
// first storm must reproduce the untraced wall bit-for-bit and emits
// TRACE_chaos.json + TRACE_REPORT_chaos.json for trace_check.py --chaos.
//
// Usage: bench_chaos_storm [seed]   (seed = replay exactly one storm set)
// Emits BENCH_chaos.json.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "chaos/chaos_executor.h"
#include "chaos/chaos_plan.h"
#include "chaos/oracles.h"
#include "migration/migration_enclave.h"
#include "orchestrator/fleet_builder.h"
#include "orchestrator/orchestrator.h"

namespace sgxmig {
namespace {

using orchestrator::AppSpec;
using orchestrator::FleetRegistry;
using orchestrator::Orchestrator;
using orchestrator::OrchestratorOptions;
using orchestrator::OrchestratorReport;
using orchestrator::Plan;
using orchestrator::Scheduler;
using orchestrator::TransferMode;

constexpr int kEnclaves = 32;
constexpr int kMachines = 5;

struct StormResult {
  OrchestratorReport report;
  Duration wall{};
  std::map<std::string, uint64_t> stats;
  std::vector<chaos::OracleFinding> findings;
  uint64_t injected = 0;
  uint64_t forks = 0;
  uint64_t refusals = 0;
};

StormResult storm(uint64_t seed, const chaos::StormProfile& profile,
                  TransferMode mode, bool traced = false,
                  std::string* trace_json = nullptr,
                  std::vector<obs::TraceInstant>* transitions = nullptr) {
  // The world seed derives from the storm seed so one replaying argument
  // reproduces BOTH the fault schedule and the simulation it ran over.
  // `traced` deliberately does not perturb it: the traced rerun must be
  // the same simulation observed, not a different one (wall gate below).
  platform::World world(9400 + seed * 2 +
                        (mode == TransferMode::kPrecopy ? 1 : 0));
  if (traced) world.observability().set_enabled(true);
  // The settings apply on every ME (re)start, so the storm's restarts
  // keep them.
  world.install_management_enclaves(migration::durable_me_factory(
      world.provider(), [mode](migration::MigrationEnclave& me) {
        // Reply-loss storms need the destination-side takeover path:
        // after this long without a delivery confirmation the
        // destination ME finishes the hand-off itself instead of waiting
        // on a lost reply.
        me.set_delivery_takeover_timeout(std::chrono::seconds(2));
        if (mode == TransferMode::kPrecopy) me.set_async_precopy(true);
      }));
  std::vector<std::string> destinations =
      orchestrator::add_machines(world, kMachines);
  destinations.erase(destinations.begin());  // all but the drained m0

  FleetRegistry fleet(world);
  AppSpec apps{.count = kEnclaves, .prefix = "storm-app-", .vendor = "bench"};
  apps.options.live_transfer = mode == TransferMode::kPrecopy;
  apps.increments = [](int i) { return 1u + i % 3; };
  orchestrator::launch_apps(fleet, apps).value();

  Scheduler scheduler(fleet);  // least-loaded
  OrchestratorOptions options;
  options.max_inflight_per_machine = 4;
  options.max_inflight_total = 8;
  options.max_attempts = 16;  // storms burn far more retries than CI drains
  options.transfer_mode = mode;
  options.pipelined = true;
  Orchestrator orch(fleet, scheduler, options);

  const chaos::ChaosPlan plan =
      chaos::generate_storm(seed, profile, "m0", destinations);
  chaos::ChaosExecutor executor(world, plan);
  chaos::ConvergenceOracle oracle(fleet, "m0");
  oracle.capture();
  executor.arm(orch);

  StormResult result;
  const Duration t0 = world.clock().now();
  result.report = orch.execute(Plan::drain("m0"));
  result.wall = world.clock().now() - t0;
  // The drain's own counters, before the settle and the oracles add theirs.
  if (traced) {
    result.report.metrics_json = world.observability().metrics.to_json();
  }
  executor.disarm();

  // Post-drain settle, OUTSIDE the measured wall.
  chaos::settle_queues(world);

  result.findings = oracle.verify(result.report);
  result.injected = executor.injected_total();
  result.forks = oracle.forks();
  result.refusals = oracle.epoch_guard_refusals();
  result.stats = executor.report_stats();
  result.stats["forks"] = oracle.forks();
  result.stats["epoch_guard_refusals"] = oracle.epoch_guard_refusals();
  result.report.chaos_stats = result.stats;
  if (traced) {
    // The trace-level recovery oracle only has evidence when recording.
    const auto stalls =
        chaos::check_fault_recovery(world.observability().trace);
    result.findings.insert(result.findings.end(), stalls.begin(),
                           stalls.end());
    if (trace_json != nullptr) {
      *trace_json = world.observability().trace.to_chrome_json();
    }
    if (transitions != nullptr) {
      for (const obs::TraceInstant& instant :
           world.observability().trace.instants()) {
        if (instant.name.rfind("orch.", 0) == 0) {
          transitions->push_back(instant);
        }
      }
    }
  }
  return result;
}

uint64_t stat_of(const StormResult& r, const char* key) {
  const auto it = r.stats.find(key);
  return it == r.stats.end() ? 0 : it->second;
}

/// Prints the failed storm's findings and each failed migration with its
/// orch.* transitions, taken from a traced rerun of the same storm, and
/// exits 1.
void fail_storm(uint64_t seed, const chaos::StormProfile& profile,
                TransferMode mode, const StormResult& r) {
  for (const chaos::OracleFinding& finding : r.findings) {
    std::printf("ORACLE VIOLATION [%s]: %s\n", finding.check.c_str(),
                finding.detail.c_str());
  }
  std::vector<obs::TraceInstant> transitions;
  storm(seed, profile, mode, /*traced=*/true, nullptr, &transitions);
  for (const auto& m : r.report.migrations) {
    if (m.success) continue;
    std::printf("  failed migration %s -> %s: attempts=%u status=%s "
                "class=%s (%s)\n",
                m.name.c_str(), m.destination.c_str(), m.attempts,
                std::string(status_name(m.final_status)).c_str(),
                migration::migration_failure_class_name(m.failure_class),
                m.failure_message.c_str());
    const std::string id = std::to_string(m.enclave_id);
    for (const obs::TraceInstant& t : transitions) {
      if (t.args.at(0).second != id) continue;
      std::printf("    t=%.3f %s %s\n", to_seconds(t.at), t.name.c_str(),
                  t.args.at(1).second.c_str());
    }
  }
  std::printf("CHAOS GATE FAILED: seed=%llu profile=%s forks=%llu "
              "failed=%zu — replay with: bench_chaos_storm %llu\n",
              static_cast<unsigned long long>(seed), profile.name.c_str(),
              static_cast<unsigned long long>(r.forks), r.report.failed(),
              static_cast<unsigned long long>(seed));
  bench::write_text_file("CHAOS_FAILING_SEED.txt",
                         std::to_string(seed) + "\n");
  std::exit(1);
}

void run(uint64_t only_seed) {
  std::printf("\n================================================================\n");
  std::printf("Chaos storms — seeded fault storms over full pipelined drains\n");
  std::printf("================================================================\n");
  std::printf("%8s %12s %14s %10s %8s %9s %6s %9s\n", "seed", "profile",
              "mode", "wall [s]", "retries", "injected", "forks", "refusals");

  bench::JsonBench json("chaos_storm");
  const auto row = [&](uint64_t seed, const chaos::StormProfile& profile,
                       TransferMode mode) -> StormResult {
    const StormResult r = storm(seed, profile, mode);
    std::printf("%8llu %12s %14s %10.3f %8u %9llu %6llu %9llu\n",
                static_cast<unsigned long long>(seed), profile.name.c_str(),
                orchestrator::transfer_mode_name(mode), to_seconds(r.wall),
                r.report.total_retries(),
                static_cast<unsigned long long>(r.injected),
                static_cast<unsigned long long>(r.forks),
                static_cast<unsigned long long>(r.refusals));
    json.begin_row()
        .field("seed", seed)
        .field("profile", profile.name)
        .field("mode", std::string(orchestrator::transfer_mode_name(mode)))
        .field("enclaves", kEnclaves)
        .field("machines", kMachines)
        .field("wall_seconds", to_seconds(r.wall))
        .field("mean_latency_seconds", r.report.mean_latency_seconds())
        .field("retries", static_cast<uint64_t>(r.report.total_retries()))
        .field("injected_total", r.injected)
        .field("injected_me_crash", stat_of(r, "injected.me-crash"))
        .field("injected_endpoint_flap", stat_of(r, "injected.endpoint-flap"))
        .field("injected_tamper", stat_of(r, "injected.tamper"))
        .field("injected_drop", stat_of(r, "injected.drop"))
        .field("injected_reply_loss", stat_of(r, "injected.reply-loss"))
        .field("injected_chunk_corrupt",
               stat_of(r, "injected.chunk-corrupt"))
        .field("healed_me_restart", stat_of(r, "healed.me-restart"))
        .field("forks", r.forks)
        .field("epoch_guard_refusals", r.refusals)
        .field("oracle_findings", static_cast<uint64_t>(r.findings.size()))
        .field("succeeded", static_cast<uint64_t>(r.report.succeeded()))
        .field("failed", static_cast<uint64_t>(r.report.failed()));
    // The headline gates: every storm converges (no terminally failed
    // migrations), zero forks, and every other oracle holds.
    if (r.report.failed() != 0 || r.forks != 0 || !r.findings.empty()) {
      fail_storm(seed, profile, mode, r);
    }
    return r;
  };

  std::vector<uint64_t> seeds = {101, 202, 303};
  if (only_seed != 0) seeds = {only_seed};

  for (const uint64_t seed : seeds) {
    row(seed, chaos::mixed_profile(), TransferMode::kFullSnapshot);
    row(seed, chaos::wire_heavy_profile(), TransferMode::kFullSnapshot);
    row(seed, chaos::crash_heavy_profile(), TransferMode::kFullSnapshot);
    // Live pre-copy drain under the mixed storm: chunk corruption and
    // reply loss hit the round/finalize path instead of one big transfer.
    row(seed, chaos::mixed_profile(), TransferMode::kPrecopy);
  }

  // --- traced rerun: the SAME first pre-copy storm, observed.  Gates:
  // bit-identical wall (injection must draw no randomness and advance no
  // virtual time when the recorder is on) and the trace-level recovery
  // oracle (every chaos.fault followed by traced activity, no stalls).
  const uint64_t trace_seed = seeds.front();
  const StormResult untraced =
      storm(trace_seed, chaos::mixed_profile(), TransferMode::kPrecopy);
  std::string trace_json;
  const StormResult traced =
      storm(trace_seed, chaos::mixed_profile(), TransferMode::kPrecopy,
            /*traced=*/true, &trace_json);
  std::printf("\ntraced rerun (seed %llu, mixed, pre-copy): wall %.6fs vs "
              "untraced %.6fs; %zu bytes of trace JSON\n",
              static_cast<unsigned long long>(trace_seed),
              to_seconds(traced.wall), to_seconds(untraced.wall),
              trace_json.size());
  json.begin_row()
      .field("comparison", std::string("traced_rerun"))
      .field("seed", trace_seed)
      .field("untraced_wall_seconds", to_seconds(untraced.wall))
      .field("traced_wall_seconds", to_seconds(traced.wall))
      .field("trace_json_bytes", static_cast<uint64_t>(trace_json.size()))
      .field("injected_total", traced.injected)
      .field("forks", traced.forks);
  if (traced.wall != untraced.wall) {
    std::printf("GATE FAILED: traced wall %lld ns != untraced wall %lld ns "
                "— fault injection must not perturb virtual time when "
                "observed\n",
                static_cast<long long>(traced.wall.count()),
                static_cast<long long>(untraced.wall.count()));
    bench::write_text_file("CHAOS_FAILING_SEED.txt",
                           std::to_string(trace_seed) + "\n");
    std::exit(1);
  }
  if (traced.report.failed() != 0 || traced.forks != 0 ||
      !traced.findings.empty()) {
    fail_storm(trace_seed, chaos::mixed_profile(), TransferMode::kPrecopy,
               traced);
  }
  if (trace_json.empty() ||
      !bench::write_text_file("TRACE_chaos.json", trace_json) ||
      !bench::write_text_file("TRACE_REPORT_chaos.json",
                              traced.report.to_json())) {
    std::printf("FAILED to write TRACE_chaos.json artifacts\n");
    std::exit(1);
  }

  std::printf(
      "\nexpected shape: every storm converges with zero terminally failed\n"
      "migrations and zero forks; epoch-guard refusals are NONZERO (the\n"
      "no-fork verdict comes from the anti-fork machinery firing, not from\n"
      "the oracle forgetting to probe); crash-heavy storms trade retries\n"
      "for wall time, wire-heavy storms trade tampered-record re-sends.\n"
      "Any violation prints the seed that replays it.\n");
  if (!json.write_file("BENCH_chaos.json")) {
    std::printf("FAILED to write BENCH_chaos.json\n");
    std::exit(1);
  }
}

}  // namespace
}  // namespace sgxmig

int main(int argc, char** argv) {
  uint64_t only_seed = 0;
  if (argc > 1) only_seed = std::strtoull(argv[1], nullptr, 10);
  sgxmig::run(only_seed);
  return 0;
}
