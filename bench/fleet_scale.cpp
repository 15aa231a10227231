// Datacenter-scale orchestrator bench: drives the orchestrator's wave
// driver up a (machines x enclaves) curve to 1000 machines / 10,000
// enclaves — a 10-region evacuation placed by the hierarchical indexed
// policy — recording virtual wall time, REAL orchestrator CPU seconds,
// and deterministic control-plane memory per row.
//
// CI gates (exit non-zero, printing the replaying seed):
//   * near-linear control plane: real CPU and driver task touches may
//     grow at most 15x over the 10x enclave growth from 1k to 10k (the
//     CPU of each of the two rows is the fastest of three runs, the two
//     rows sampled in alternation);
//   * flat memory: control-plane bytes per enclave at 10k within 2x of
//     the 1k row (event-log ring + ME history caps bound the rest);
//   * a memory ledger of the 1k and 10k rows (store, PSE counters,
//     library state, ME queues) sums to no more than the heap in use;
//   * a traced rerun of the 1k row reproduces its untraced wall
//     bit-exactly and emits TRACE_fleet_scale.json for trace_check.py;
//   * one mixed-profile chaos storm over a 1000-enclave event-driven
//     drain converges with zero forks and zero oracle findings.
//
// Usage: bench_fleet_scale            (SGXMIG_SEED=<n> overrides the base
//                                      world seed; gate failures print it)
// Emits BENCH_fleet_scale.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
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
using orchestrator::DriverStats;
using orchestrator::FleetRegistry;
using orchestrator::Orchestrator;
using orchestrator::OrchestratorOptions;
using orchestrator::OrchestratorReport;
using orchestrator::Plan;
using orchestrator::Scheduler;

constexpr int kRegions = 10;

uint64_t base_seed() {
  if (const char* env = std::getenv("SGXMIG_SEED")) {
    const uint64_t seed = std::strtoull(env, nullptr, 10);
    if (seed != 0) return seed;
  }
  return 9500;
}

void fail_gate(const char* what) {
  std::printf("GATE FAILED: %s — replay with: SGXMIG_SEED=%llu "
              "bench_fleet_scale\n",
              what, static_cast<unsigned long long>(base_seed()));
  std::exit(1);
}

/// Where the heap goes at the end of an evacuation, by layer: the bytes
/// each layer's memory_bytes() accounts for, against what the allocator
/// holds.  The layers count payload only, so their sum must stay below
/// the heap in use; the remainder is everything no layer claims (the
/// orchestrator and registry, enclave objects, sessions, node overhead).
struct MemoryLedger {
  uint64_t store = 0;     // platform::UntrustedStore, every machine
  uint64_t counters = 0;  // sgx::MonotonicCounterService, every machine
  uint64_t library = 0;   // MigrationLibrary resident state, every enclave
  uint64_t me_queue = 0;  // ME durable queues and histories, every machine
  uint64_t heap_in_use = 0;

  uint64_t sum() const { return store + counters + library + me_queue; }
};

MemoryLedger take_ledger(platform::World& world, FleetRegistry& fleet) {
  MemoryLedger ledger;
  for (platform::Machine* m : world.machines()) {
    ledger.store += m->storage().memory_bytes();
    ledger.counters += m->counter_service().memory_bytes();
    if (auto* me = migration::me_on(*m)) {
      ledger.me_queue += me->queue_memory_bytes();
    }
  }
  for (const uint64_t id : fleet.all_ids()) {
    if (auto* enclave = fleet.enclave(id)) {
      ledger.library += enclave->library_memory_bytes();
    }
  }
  ledger.heap_in_use = process_heap_in_use_bytes();
  return ledger;
}

struct ScaleResult {
  OrchestratorReport report;
  Duration wall{};
  double cpu_seconds = 0.0;
  /// Deterministic control-plane accounting: orchestrator working state +
  /// scheduler placement index + registry secondary indexes.
  uint64_t control_plane_bytes = 0;
  uint64_t peak_rss_bytes = 0;
  DriverStats stats;
  uint64_t events_dropped = 0;
  uint64_t me_history_retained = 0;
  MemoryLedger ledger;
};

/// One region evacuation at datacenter scale: `machines` hosts spread
/// over 10 regions (region r<i%10>, alternating 16/32 certified cores),
/// all `enclaves` resident in r0, hierarchical indexed placement, the
/// pipelined freeze-aware engine, and the bounded-memory knobs on
/// (event-log ring + ME history caps).
ScaleResult evacuate(int machines, int enclaves, bool traced = false,
                     std::string* trace_json = nullptr) {
  platform::World world(base_seed() + machines + enclaves);
  if (traced) world.observability().set_enabled(true);
  world.install_management_enclaves(migration::durable_me_factory(
      world.provider(), [](migration::MigrationEnclave& me) {
        // Long-drain memory bound: the exactly-once dedup history needs to
        // absorb duplicate DONEs from a retry window, not the whole drain.
        me.set_completed_history_limit(256);
      }));
  orchestrator::add_machines(world, machines, kRegions);

  FleetRegistry fleet(world);
  const int source_machines = machines / kRegions;  // the r0 hosts
  AppSpec apps{.count = enclaves, .prefix = "scale-app-", .vendor = "bench"};
  apps.hosts.clear();
  for (platform::Machine* m : world.machines_in_region("r0")) {
    apps.hosts.push_back(m->address());
  }
  orchestrator::launch_apps(fleet, apps).value();

  Scheduler scheduler(fleet, orchestrator::make_hierarchical_policy());
  OrchestratorOptions options;
  options.max_inflight_per_machine = 4;
  options.max_inflight_total = 4u * static_cast<uint32_t>(source_machines);
  options.max_inflight_per_destination = 4;
  options.max_attempts = 6;
  options.pipelined = true;
  options.freeze_aware = true;
  // Event-log ring: one evacuation emits ~5 events per migration; retain
  // a bounded window and count the rest instead of growing with E.
  options.event_log_limit = 20000;
  Orchestrator orch(fleet, scheduler, options);

  ScaleResult result;
  const Duration t0 = world.clock().now();
  const double cpu0 = process_cpu_seconds();
  result.report = orch.execute(Plan::evacuate("r0"));
  result.cpu_seconds = process_cpu_seconds() - cpu0;
  result.wall = world.clock().now() - t0;
  result.control_plane_bytes = orch.control_plane_bytes() +
                               scheduler.index_bytes() + fleet.index_bytes();
  result.ledger = take_ledger(world, fleet);
  result.peak_rss_bytes = process_peak_rss_bytes();
  result.stats = orch.last_driver_stats();
  result.events_dropped = result.report.events_dropped;
  for (platform::Machine* m : world.machines()) {
    if (auto* me = migration::me_on(*m)) {
      result.me_history_retained +=
          me->completed_history_size() + me->confirmed_incoming_size();
    }
  }
  if (traced) {
    result.report.metrics_json = world.observability().metrics.to_json();
    if (trace_json != nullptr) {
      *trace_json = world.observability().trace.to_chrome_json();
    }
  }
  return result;
}

// ----- chaos storm over a 1000-enclave event-driven drain -----

struct StormResult {
  OrchestratorReport report;
  std::vector<chaos::OracleFinding> findings;
  uint64_t injected = 0;
  uint64_t forks = 0;
  uint64_t refusals = 0;
};

StormResult storm_1k(uint64_t seed) {
  constexpr int kEnclaves = 1000;
  constexpr int kMachines = 20;
  platform::World world(base_seed() + 400 + seed * 2);
  world.install_management_enclaves(migration::durable_me_factory(
      world.provider(), [](migration::MigrationEnclave& me) {
        me.set_delivery_takeover_timeout(std::chrono::seconds(2));
        me.set_completed_history_limit(256);
      }));
  std::vector<std::string> destinations =
      orchestrator::add_machines(world, kMachines);
  destinations.erase(destinations.begin());  // all but the drained m0

  FleetRegistry fleet(world);
  orchestrator::launch_apps(
      fleet, {.count = kEnclaves, .prefix = "storm-app-", .vendor = "bench"})
      .value();

  Scheduler scheduler(fleet);
  OrchestratorOptions options;
  options.max_inflight_per_machine = 8;
  options.max_inflight_total = 16;
  options.max_attempts = 16;
  options.pipelined = true;
  options.event_log_limit = 20000;
  Orchestrator orch(fleet, scheduler, options);

  const chaos::ChaosPlan plan =
      chaos::generate_storm(seed, chaos::mixed_profile(), "m0", destinations);
  chaos::ChaosExecutor executor(world, plan);
  chaos::ConvergenceOracle oracle(fleet, "m0");
  oracle.capture();
  executor.arm(orch);
  StormResult result;
  result.report = orch.execute(Plan::drain("m0"));
  executor.disarm();
  // Post-drain settle outside the gate, then let the oracles judge.
  chaos::settle_queues(world);
  result.findings = oracle.verify(result.report);
  result.injected = executor.injected_total();
  result.forks = oracle.forks();
  result.refusals = oracle.epoch_guard_refusals();
  return result;
}

void run() {
  std::printf("\n================================================================\n");
  std::printf("Fleet scale — event-driven orchestrator at datacenter scale\n");
  std::printf("(10-region evacuation, hierarchical indexed placement, seed "
              "base %llu)\n",
              static_cast<unsigned long long>(base_seed()));
  std::printf("================================================================\n");

  bench::JsonBench json("fleet_scale");

  // --- the scaling curve.
  std::printf("\n%9s %9s %10s %10s %14s %12s %10s %12s %11s\n", "machines",
              "enclaves", "wall [s]", "cpu [s]", "ctl-plane [B]", "B/enclave",
              "waves", "touches", "evts-drop");
  struct CurvePoint {
    int machines;
    int enclaves;
    ScaleResult result;
    std::vector<double> cpu_samples;
  };
  std::vector<CurvePoint> curve{
      {100, 1000, {}, {}}, {320, 3200, {}, {}}, {1000, 10000, {}, {}}};
  curve[1].result = evacuate(curve[1].machines, curve[1].enclaves);
  curve[1].cpu_samples.push_back(curve[1].result.cpu_seconds);
  // The CPU gate compares the fastest of three runs of the 1k and 10k
  // rows, taken in alternation (1k, 10k, three times) so that both rows
  // see the same load from other processes: a neighbour running during
  // one ~0.6 s run of the 1k row alone moves the ratio by several x.  The
  // reruns repeat the same seeded evacuation, so only their CPU differs;
  // the rows keep their first runs.
  constexpr int kCpuSamples = 3;
  for (int sample = 0; sample < kCpuSamples; ++sample) {
    for (CurvePoint* point : {&curve.front(), &curve.back()}) {
      ScaleResult run = evacuate(point->machines, point->enclaves);
      point->cpu_samples.push_back(run.cpu_seconds);
      if (sample == 0) point->result = std::move(run);
    }
  }
  for (CurvePoint& point : curve) {
    ScaleResult& r = point.result;
    r.cpu_seconds = *std::min_element(point.cpu_samples.begin(),
                                      point.cpu_samples.end());
    const int machines = point.machines;
    const int enclaves = point.enclaves;
    std::printf("%9d %9d %10.3f %10.3f %14llu %12.1f %10llu %12llu %11llu\n",
                machines, enclaves, to_seconds(r.wall), r.cpu_seconds,
                static_cast<unsigned long long>(r.control_plane_bytes),
                static_cast<double>(r.control_plane_bytes) / enclaves,
                static_cast<unsigned long long>(r.stats.waves),
                static_cast<unsigned long long>(r.stats.task_touches),
                static_cast<unsigned long long>(r.events_dropped));
    json.begin_row()
        .field("machines", machines)
        .field("enclaves", enclaves)
        .field("regions", kRegions)
        .field("wall_seconds", to_seconds(r.wall))
        .field("cpu_seconds", r.cpu_seconds)
        .field("control_plane_bytes", r.control_plane_bytes)
        .field("bytes_per_enclave",
               static_cast<double>(r.control_plane_bytes) / enclaves)
        .field("peak_rss_bytes", r.peak_rss_bytes)
        .field("waves", r.stats.waves)
        .field("task_touches", r.stats.task_touches)
        .field("admission_checks", r.stats.admission_checks)
        .field("pump_kicks", r.stats.pump_kicks)
        .field("events_dropped", r.events_dropped)
        .field("me_history_retained", r.me_history_retained)
        .field("succeeded", static_cast<uint64_t>(r.report.succeeded()))
        .field("failed", static_cast<uint64_t>(r.report.failed()));
    if (r.report.failed() != 0) {
      std::printf("UNEXPECTED: %zu migrations failed at %d machines\n",
                  r.report.failed(), machines);
      fail_gate("scale-curve migrations failed");
    }
  }
  for (const CurvePoint* point : {&curve.front(), &curve.back()}) {
    std::printf("cpu samples at %d enclaves [s]:", point->enclaves);
    for (const double cpu : point->cpu_samples) std::printf(" %.3f", cpu);
    std::printf(" (gate uses the fastest)\n");
  }

  // --- memory ledger of the 1k and 10k rows (their first runs).
  std::printf("\nmemory ledger at the end of the evacuation [bytes]:\n"
              "%9s %11s %11s %11s %11s %11s %11s %12s %12s\n",
              "enclaves", "store", "counters", "library", "me-queue", "sum",
              "remainder", "heap-in-use", "peak-rss");
  for (const CurvePoint* point : {&curve.front(), &curve.back()}) {
    const MemoryLedger& l = point->result.ledger;
    std::printf("%9d %11llu %11llu %11llu %11llu %11llu %11lld %12llu %12llu\n",
                point->enclaves, static_cast<unsigned long long>(l.store),
                static_cast<unsigned long long>(l.counters),
                static_cast<unsigned long long>(l.library),
                static_cast<unsigned long long>(l.me_queue),
                static_cast<unsigned long long>(l.sum()),
                static_cast<long long>(l.heap_in_use) -
                    static_cast<long long>(l.sum()),
                static_cast<unsigned long long>(l.heap_in_use),
                static_cast<unsigned long long>(point->result.peak_rss_bytes));
    // Without a heap reading (no glibc mallinfo2) there is nothing to
    // check the layers against.
    if (l.heap_in_use != 0 && l.sum() > l.heap_in_use) {
      fail_gate("memory ledger layers exceed the heap in use");
    }
  }

  // --- scaling-shape gates: 1k -> 10k is 10x the enclaves; a linear
  // control plane grows CPU and task touches ~10x.  15x budgets constant
  // factors (deeper retry tails, colder caches) while still failing any
  // O(n^2) wave loop, which lands at ~100x.
  const ScaleResult& small = curve.front().result;
  const ScaleResult& large = curve.back().result;
  const double cpu_ratio = large.cpu_seconds / std::max(1e-9, small.cpu_seconds);
  const double touches_ratio =
      static_cast<double>(large.stats.task_touches) /
      std::max<double>(1.0, static_cast<double>(small.stats.task_touches));
  const double bytes_small = static_cast<double>(small.control_plane_bytes) /
                             curve.front().enclaves;
  const double bytes_large = static_cast<double>(large.control_plane_bytes) /
                             curve.back().enclaves;
  std::printf("\nscaling shape 1k -> 10k enclaves: cpu %.2fx (fastest of %d "
              "interleaved samples; deterministic task touches %.2fx), "
              "control-plane bytes/enclave %.1f -> %.1f\n",
              cpu_ratio, kCpuSamples, touches_ratio, bytes_small, bytes_large);
  json.begin_row()
      .field("gate", std::string("scaling_shape"))
      .field("cpu_ratio_10k_over_1k", cpu_ratio)
      .field("task_touches_ratio_10k_over_1k", touches_ratio)
      .field("bytes_per_enclave_1k", bytes_small)
      .field("bytes_per_enclave_10k", bytes_large);
  if (cpu_ratio > 15.0) {
    std::printf("cpu ratio %.2fx beside a task-touch ratio of %.2fx\n",
                cpu_ratio, touches_ratio);
    fail_gate("orchestrator CPU grew super-linearly (cpu(10k) > 15x cpu(1k))");
  }
  if (touches_ratio > 15.0) {
    fail_gate("driver task touches grew super-linearly "
              "(touches(10k) > 15x touches(1k))");
  }
  if (bytes_large > 2.0 * bytes_small) {
    fail_gate("control-plane bytes per enclave not flat "
              "(10k row > 2x the 1k row)");
  }

  // --- traced rerun of the 1k row: same seed, same config, observed.
  std::string trace_json;
  const ScaleResult traced = evacuate(100, 1000, /*traced=*/true, &trace_json);
  std::printf("\ntraced 1k rerun: wall %.6fs vs untraced %.6fs; %zu bytes of "
              "trace JSON\n",
              to_seconds(traced.wall), to_seconds(small.wall),
              trace_json.size());
  json.begin_row()
      .field("comparison", std::string("tracing_overhead"))
      .field("untraced_wall_seconds", to_seconds(small.wall))
      .field("traced_wall_seconds", to_seconds(traced.wall))
      .field("trace_json_bytes", static_cast<uint64_t>(trace_json.size()));
  if (traced.wall != small.wall || traced.report.failed() != 0) {
    fail_gate("traced 1k evacuation did not reproduce the untraced wall "
              "bit-exactly");
  }
  if (trace_json.empty() ||
      !bench::write_text_file("TRACE_fleet_scale.json", trace_json) ||
      !bench::write_text_file("TRACE_REPORT_fleet_scale.json",
                              traced.report.to_json())) {
    std::printf("FAILED to write TRACE_fleet_scale.json artifacts\n");
    std::exit(1);
  }

  // --- chaos storm over a 1000-enclave event-driven drain.
  const uint64_t storm_seed = 404;
  const StormResult storm = storm_1k(storm_seed);
  std::printf("\nchaos storm (seed %llu, mixed profile, 1000 enclaves): "
              "injected %llu, forks %llu, refusals %llu, failed %zu, "
              "findings %zu\n",
              static_cast<unsigned long long>(storm_seed),
              static_cast<unsigned long long>(storm.injected),
              static_cast<unsigned long long>(storm.forks),
              static_cast<unsigned long long>(storm.refusals),
              storm.report.failed(), storm.findings.size());
  json.begin_row()
      .field("chaos_seed", storm_seed)
      .field("profile", std::string("mixed"))
      .field("enclaves", 1000)
      .field("injected_total", storm.injected)
      .field("forks", storm.forks)
      .field("epoch_guard_refusals", storm.refusals)
      .field("oracle_findings", static_cast<uint64_t>(storm.findings.size()))
      .field("succeeded", static_cast<uint64_t>(storm.report.succeeded()))
      .field("failed", static_cast<uint64_t>(storm.report.failed()));
  if (storm.report.failed() != 0 || storm.forks != 0 ||
      !storm.findings.empty()) {
    for (const chaos::OracleFinding& finding : storm.findings) {
      std::printf("ORACLE VIOLATION [%s]: %s\n", finding.check.c_str(),
                  finding.detail.c_str());
    }
    fail_gate("chaos storm over the 1k event-driven drain violated an "
              "oracle");
  }

  // Ledger rows last, so every earlier row keeps its index.
  for (const CurvePoint* point : {&curve.front(), &curve.back()}) {
    const MemoryLedger& l = point->result.ledger;
    json.begin_row()
        .field("ledger_enclaves", point->enclaves)
        .field("store_bytes", l.store)
        .field("counter_bytes", l.counters)
        .field("library_bytes", l.library)
        .field("me_queue_bytes", l.me_queue)
        .field("ledger_sum_bytes", l.sum())
        .field("heap_in_use_bytes", l.heap_in_use)
        .field("peak_rss_bytes", point->result.peak_rss_bytes);
  }

  std::printf(
      "\nexpected shape: wall, CPU and task touches grow ~linearly in the\n"
      "enclave count (the event-driven driver only touches tasks whose\n"
      "lane produced an event or whose retry ripened; idle enclaves cost\n"
      "zero wave work), control-plane bytes per enclave stay flat (the\n"
      "event-log ring and ME history caps bound retention), and the\n"
      "traced 1k rerun reproduces the untraced wall bit-exactly.\n");
  if (!json.write_file("BENCH_fleet_scale.json")) {
    std::printf("FAILED to write BENCH_fleet_scale.json\n");
    std::exit(1);
  }
}

}  // namespace
}  // namespace sgxmig

int main() {
  sgxmig::run();
  return 0;
}
