// perfbench — the repository benchmark.  One process runs one fleet
// workload at one seed through the simulator's public APIs and prints
// what a client of the migrating enclaves sees (end-to-end metrics), or,
// traced, how the work splits across the layers (per-layer metrics).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics": {name: {"value", "unit"}}}.  attempted/failed count
// planned migrations plus issued client ops, so failed/attempted is the
// run's fail_rate.  A failed correctness check prints the replay command
// and exits 1.
//
// Real time is read only through process_cpu_seconds() and
// process_peak_rss_bytes() (support/sim_clock.h, the repo's real-time
// boundary); every other duration is virtual.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chaos/chaos_executor.h"
#include "chaos/chaos_plan.h"
#include "chaos/oracles.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "crypto/gcm.h"
#include "crypto/x25519.h"
#include "derive.h"
#include "migration/migration_enclave.h"
#include "orchestrator/orchestrator.h"
#include "sgx/sealing.h"
#include "support/json.h"
#include "support/stats.h"

namespace sgxmig::perfbench {

int run_self_test();

namespace {

using orchestrator::EnclaveRecord;
using orchestrator::FleetRegistry;
using orchestrator::LaunchOptions;
using orchestrator::MigrationRecord;
using orchestrator::Orchestrator;
using orchestrator::OrchestratorOptions;
using orchestrator::OrchestratorReport;
using orchestrator::Plan;
using orchestrator::Scheduler;
using orchestrator::TransferMode;

// ----- workloads -----

enum class Workload { kEvacWide, kPrecopyLive, kEvacFaults };

struct WorkloadName {
  Workload kind;
  const char* name;
};

constexpr WorkloadName kWorkloads[] = {
    {Workload::kEvacWide, "evac_wide"},
    {Workload::kPrecopyLive, "precopy_live"},
    {Workload::kEvacFaults, "evac_faults"},
};

/// Every workload plans this many migrations, so each p99 has ten
/// samples beyond it.
constexpr int kEnclaves = 1000;
/// 17 counters span two 16-slot Table II chunks, so a pre-copy round
/// ships two chunks until the client stream's writes settle on one.
constexpr int kLiveCounters = 17;
/// Client ops the stream issues on the source after each shipped round.
constexpr int kWritesPerRound = 2;
constexpr int kReadsPerRound = 2;
/// An untraced process sets the workload up at most this many times, each
/// in a fresh world, while all setups together fit in half of --seconds.
constexpr int kMaxSetups = 3;

/// bench_fleet_scale's 1k row: evac_wide at world seed 9500 + 100 + 1000.
constexpr uint64_t kAnchorSeed = 10600;
constexpr double kAnchorWallSeconds = 44.117811;
constexpr uint64_t kAnchorWaves = 51;
constexpr uint64_t kAnchorTaskTouches = 4020;
constexpr uint64_t kAnchorControlPlaneBytes = 986722;

/// The fixed storm of evac_faults: two source MEs crash and restart three
/// waves later, one destination endpoint flaps, and two small wire rules
/// fire.  Written out (not drawn by generate_storm) so the seed moves only
/// world jitter, never which faults fire.
chaos::ChaosPlan faults_plan() {
  using chaos::FaultEvent;
  using chaos::FaultKind;
  chaos::ChaosPlan plan;
  plan.seed = 7;
  auto crash = [&](FaultKind kind, const char* machine, uint32_t wave) {
    FaultEvent e;
    e.kind = kind;
    e.target = machine;
    e.at_wave = wave;
    plan.events.push_back(e);
  };
  crash(FaultKind::kMeCrash, "m0", 3);
  crash(FaultKind::kMeRestart, "m0", 6);
  crash(FaultKind::kMeCrash, "m10", 20);
  crash(FaultKind::kMeRestart, "m10", 23);
  FaultEvent flap;
  flap.kind = FaultKind::kEndpointFlap;
  flap.target = "m5/me";
  flap.at = milliseconds(400);
  flap.duration = milliseconds(200);
  plan.events.push_back(flap);
  FaultEvent reply_loss;
  reply_loss.kind = FaultKind::kReplyLoss;
  reply_loss.probability = 0.05;
  reply_loss.max_firings = 6;
  plan.events.push_back(reply_loss);
  FaultEvent drop;
  drop.kind = FaultKind::kDrop;
  drop.probability = 0.05;
  drop.max_firings = 6;
  plan.events.push_back(drop);
  return plan;
}

// ----- one instantiated workload -----

/// Real CPU spent building one fleet, split by the public call it went to.
struct SetupCost {
  double total_s = 0.0;
  double add_machine_s = 0.0;
  double launch_s = 0.0;
  double counter_create_s = 0.0;
  uint64_t machines = 0;
  uint64_t launches = 0;
  uint64_t counters = 0;
};

/// Client ops the stream issued, their virtual latencies on the source
/// lane, and the instants blocked time is measured between.
struct ClientStream {
  std::vector<double> write_s;
  std::vector<double> read_s;
  std::map<uint64_t, Duration> last_op_end;
  std::map<uint64_t, Duration> restored_at;
  uint64_t issued = 0;
  uint64_t failed = 0;
  double op_cpu_s = 0.0;
};

struct Fleet {
  Workload workload = Workload::kEvacWide;
  // Declared first so it is destroyed last.
  std::unique_ptr<platform::World> world;
  std::unique_ptr<FleetRegistry> registry;
  std::unique_ptr<Scheduler> scheduler;
  std::unique_ptr<Orchestrator> orch;
  std::vector<std::string> sources;
  Plan plan;
  /// Per enclave: (counter id, the value it must read back).  Client
  /// writes during the drain update it.
  std::map<uint64_t, std::map<uint32_t, uint32_t>> expected;
  SetupCost cost;
  ClientStream client;
};

template <typename Fn>
auto timed(double& acc, Fn&& fn) {
  const double t0 = process_cpu_seconds();
  auto result = fn();
  acc += process_cpu_seconds() - t0;
  return result;
}

std::unique_ptr<Fleet> build_fleet(Workload w, uint64_t seed) {
  auto fleet = std::make_unique<Fleet>();
  Fleet& f = *fleet;
  f.workload = w;
  SetupCost& cost = f.cost;
  const double t0 = process_cpu_seconds();

  const bool wide = w != Workload::kPrecopyLive;
  const bool live = w == Workload::kPrecopyLive;
  f.world = std::make_unique<platform::World>(seed);
  platform::World& world = *f.world;
  // ME settings apply at every (re)start, so a crashed and restarted ME
  // keeps them.  The exactly-once dedup history is capped at a retry
  // window, as bench_fleet_scale does.  evac_faults lets a crashed
  // destination enclave's data be re-fetched.
  world.install_management_enclaves(
      [w, durable = migration::durable_me_factory(world.provider())](
          platform::Machine& machine) {
        std::unique_ptr<sgx::Enclave> enclave = durable(machine);
        auto* me = dynamic_cast<migration::MigrationEnclave*>(enclave.get());
        if (me == nullptr) return enclave;
        me->set_completed_history_limit(256);
        if (w == Workload::kPrecopyLive) me->set_async_precopy(true);
        if (w == Workload::kEvacFaults) {
          me->set_delivery_takeover_timeout(std::chrono::seconds(2));
        }
        return enclave;
      });
  // The evacuations are bench_fleet_scale's 1k row: 100 hosts in 10
  // regions with alternating 16/32 certified cores.  precopy_live drains
  // m0 of one 20-host region.
  const int machines = wide ? 100 : 20;
  for (int i = 0; i < machines; ++i) {
    timed(cost.add_machine_s, [&] {
      return wide ? &world.add_machine("m" + std::to_string(i),
                                       "r" + std::to_string(i % 10),
                                       16u + 16u * (i % 2))
                  : &world.add_machine("m" + std::to_string(i));
    });
    ++cost.machines;
  }
  f.sources = wide ? std::vector<std::string>{"m0", "m10", "m20", "m30", "m40",
                                              "m50", "m60", "m70", "m80", "m90"}
                   : std::vector<std::string>{"m0"};
  f.plan = wide ? Plan::evacuate("r0") : Plan::drain("m0");

  f.registry = std::make_unique<FleetRegistry>(world);
  LaunchOptions launch;
  launch.live_transfer = live;
  const int counters = live ? kLiveCounters : 1;
  for (int i = 0; i < kEnclaves; ++i) {
    const std::string& host = f.sources[static_cast<size_t>(i) % f.sources.size()];
    // The evacuations keep bench_fleet_scale's names: they feed MRENCLAVE.
    const std::string name = (wide ? "scale-app-" : "app-") + std::to_string(i);
    const auto image = sgx::EnclaveImage::create(name, 1, "bench");
    const uint64_t id = timed(cost.launch_s, [&] {
      return f.registry->launch(host, name, image, launch).value();
    });
    ++cost.launches;
    migration::MigratableEnclave* enclave = f.registry->enclave(id);
    for (int c = 0; c < counters; ++c) {
      // Idle enclaves get bench_fleet_scale's one counter, incremented
      // once.  Live enclaves' counters start at zero: the client stream
      // moves them during the drain.
      const auto [counter, value] = timed(cost.counter_create_s, [&] {
        const uint32_t created =
            enclave->ecall_create_migratable_counter().value().counter_id;
        return std::make_pair(
            created, live ? 0u
                          : enclave->ecall_increment_migratable_counter(created).value());
      });
      f.expected[id][counter] = value;
      ++cost.counters;
    }
  }

  f.scheduler = std::make_unique<Scheduler>(
      *f.registry, wide ? orchestrator::make_hierarchical_policy() : nullptr);
  OrchestratorOptions options;
  options.pipelined = true;
  options.freeze_aware = true;
  options.max_inflight_per_destination = 4;
  options.event_log_limit = 20000;
  options.max_inflight_per_machine = wide ? 4 : 8;
  options.max_inflight_total = wide ? 40 : 16;
  options.max_attempts = w == Workload::kEvacFaults ? 16 : 6;
  if (live) options.transfer_mode = TransferMode::kPrecopy;
  f.orch = std::make_unique<Orchestrator>(*f.registry, *f.scheduler, options);
  cost.total_s = process_cpu_seconds() - t0;
  return fleet;
}

/// Installs the client stream and the restore probe.  The round hook runs
/// on the source lane right after each shipped pre-copy round, while the
/// enclave still serves; the completion callback runs on the destination
/// lane at the restore.
void install_hooks(Fleet& f, bool trace, uint64_t& queue_blob_max) {
  platform::World& world = *f.world;
  f.registry->set_completion_callback(
      [&f, &world, trace, &queue_blob_max](const EnclaveRecord& record) {
        f.client.restored_at[record.id] = world.clock().now();
        if (!trace) return;
        for (const std::string& source : f.sources) {
          if (auto* me = migration::me_on(*world.machine(source))) {
            queue_blob_max = std::max<uint64_t>(queue_blob_max,
                                                me->sealed_queue_state().size());
          }
        }
      });
  if (f.workload != Workload::kPrecopyLive) return;
  f.orch->set_round_hook([&f, &world, trace](uint64_t id, uint32_t round) {
    migration::MigratableEnclave* enclave = f.registry->enclave(id);
    std::map<uint32_t, uint32_t>& values = f.expected[id];
    std::vector<uint32_t> slots;
    for (const auto& [counter, value] : values) slots.push_back(counter);
    ClientStream& client = f.client;
    const double cpu0 = trace ? process_cpu_seconds() : 0.0;
    for (int op = 0; op < kWritesPerRound + kReadsPerRound; ++op) {
      // Writes walk the slots from an enclave-specific offset, so some
      // rounds dirty both chunks and force another round.
      const uint32_t slot =
          slots[(id * 3 + round * kWritesPerRound + static_cast<uint32_t>(op)) %
                slots.size()];
      const Duration start = world.clock().now();
      const bool write = op < kWritesPerRound;
      const Result<uint32_t> result =
          write ? enclave->ecall_increment_migratable_counter(slot)
                : enclave->ecall_read_migratable_counter(slot);
      const Duration end = world.clock().now();
      ++client.issued;
      if (write && result.ok()) values[slot] = result.value();
      if (!result.ok() || result.value() != values[slot]) {
        ++client.failed;
        continue;
      }
      (write ? client.write_s : client.read_s).push_back(to_seconds(end - start));
      client.last_op_end[id] = end;
    }
    if (trace) client.op_cpu_s += process_cpu_seconds() - cpu0;
  });
}

/// Snapshots each source's pre-drain ground truth, one oracle per source
/// machine.  The oracle reads
/// every counter through the PSE proxies, which advance the clock and draw
/// jitter from the world's and the machines' RNGs; all of them are put
/// back, so the check never moves the measured run (the evac_wide anchor
/// proves it).
std::vector<std::unique_ptr<chaos::ConvergenceOracle>> capture(Fleet& f) {
  platform::World& world = *f.world;
  const Rng world_rng = world.rng();
  std::vector<Rng> machine_rngs;
  for (platform::Machine* m : world.machines()) machine_rngs.push_back(m->rng());
  const Duration now = world.clock().now();
  std::vector<std::unique_ptr<chaos::ConvergenceOracle>> oracles;
  for (const std::string& source : f.sources) {
    oracles.push_back(std::make_unique<chaos::ConvergenceOracle>(*f.registry, source));
    oracles.back()->capture();
  }
  world.rng() = world_rng;
  for (size_t i = 0; i < machine_rngs.size(); ++i) {
    world.machines()[i]->rng() = machine_rngs[i];
  }
  world.clock().set_now(now);
  return oracles;
}

// ----- running one workload -----

/// Virtual-time end-to-end results: identical bit for bit between the
/// untraced and the traced run of one seed.
struct VirtualE2E {
  Duration wall{};
  std::vector<double> freeze_s;
  std::vector<double> move_s;
  std::vector<double> blocked_s;
  std::vector<double> write_s;
  std::vector<double> read_s;

  bool operator==(const VirtualE2E&) const = default;
};

struct RunResult {
  VirtualE2E e2e;
  double execute_cpu_s = 0.0;
  SetupCost cost;
  uint64_t planned = 0;
  uint64_t failed_moves = 0;
  uint64_t client_issued = 0;
  uint64_t client_failed = 0;
  double client_op_cpu_s = 0.0;
  std::vector<std::string> findings;
  // Per-layer inputs, read after execute (accessors) or from the trace.
  std::map<std::string, double> layer;
  uint64_t queue_blob_max = 0;
  size_t table2_bytes = 0;
};

double sum_storage_bytes(platform::World& world) {
  double total = 0.0;
  for (platform::Machine* m : world.machines()) {
    for (const auto& [key, blob] : m->storage().snapshot()) total += blob.size();
  }
  return total;
}

/// Post-drain settle: lets recoverable queue work finish on its timers,
/// the way bench_chaos_storm settles before its oracles.  Returns the
/// janitor passes it took.
uint64_t settle(platform::World& world) {
  uint64_t sweeps = 0;
  for (int i = 0; i < 16; ++i) {
    bool quiet = true;
    for (platform::Machine* m : world.machines()) {
      auto* me = migration::me_on(*m);
      if (me != nullptr &&
          (me->pending_incoming_count() != 0 || me->retry_done_relays() != 0 ||
           me->outgoing_count() != 0 || me->transfer_task_count() != 0)) {
        quiet = false;
      }
    }
    if (quiet) break;
    ++sweeps;
    world.clock().advance(std::chrono::seconds(1));
    for (platform::Machine* m : world.machines()) {
      auto* me = migration::me_on(*m);
      if (me == nullptr) continue;
      me->pump();
      me->sweep_superseded_outgoing();
      me->reconcile_all_pending();
    }
    world.network().pump_all();
  }
  return sweeps;
}

/// Builds the fleet, drives the plan and checks the outcome.  With
/// `trace`, tracing turns on after setup and the per-layer inputs are
/// collected.
RunResult run_workload(Workload w, uint64_t seed, bool trace) {
  RunResult r;
  const std::unique_ptr<Fleet> fleet = build_fleet(w, seed);
  Fleet& f = *fleet;
  platform::World& world = *f.world;
  r.cost = f.cost;

  const auto oracles = capture(f);
  install_hooks(f, trace, r.queue_blob_max);
  std::unique_ptr<chaos::ChaosExecutor> executor;
  if (w == Workload::kEvacFaults) {
    executor = std::make_unique<chaos::ChaosExecutor>(world, faults_plan());
    executor->arm(*f.orch);
  }
  if (trace) world.observability().set_enabled(true);

  uint64_t ids_before = 0;
  for (platform::Machine* m : world.machines()) {
    ids_before += m->counter_service().ids_allocated();
  }
  const uint64_t rpcs_before = world.network().rpcs_sent();
  const uint64_t bytes_before = world.network().bytes_sent();

  const Duration t0 = world.clock().now();
  const double cpu0 = process_cpu_seconds();
  const OrchestratorReport report = f.orch->execute(f.plan);
  r.execute_cpu_s = process_cpu_seconds() - cpu0;
  r.e2e.wall = world.clock().now() - t0;
  const orchestrator::DriverStats stats = f.orch->last_driver_stats();
  if (executor) executor->disarm();

  // ----- end-to-end -----
  r.planned = report.migrations.size();
  uint64_t moved = 0;
  uint64_t attempts = 0;
  uint64_t transfer_bytes = 0;
  for (const MigrationRecord& m : report.migrations) {
    attempts += m.attempts;
    if (!m.success) {
      ++r.failed_moves;
      continue;
    }
    ++moved;
    transfer_bytes += m.transfer_bytes;
    r.e2e.freeze_s.push_back(to_seconds(m.freeze_window));
    r.e2e.move_s.push_back(to_seconds(m.latency()));
  }
  r.e2e.blocked_s = blocked_seconds(f.client.last_op_end, f.client.restored_at);
  r.e2e.write_s = f.client.write_s;
  r.e2e.read_s = f.client.read_s;
  r.client_issued = f.client.issued;
  r.client_failed = f.client.failed;
  r.client_op_cpu_s = f.client.op_cpu_s;

  // ----- per-layer accessors (before the settle and the oracles) -----
  std::map<std::string, double>& L = r.layer;
  const double moves = std::max<double>(1.0, static_cast<double>(moved));
  uint64_t ids_after = 0;
  uint64_t retired = 0;
  uint64_t full = 0;
  uint64_t resumed = 0;
  uint64_t queue_writes = 0;
  for (platform::Machine* m : world.machines()) {
    ids_after += m->counter_service().ids_allocated();
    retired += m->counter_service().retired_count();
    queue_writes += m->storage().versioned_sequence(m->address() + ".me-queue");
    if (auto* me = migration::me_on(*m)) {
      full += me->full_handshake_count();
      resumed += me->resumed_handshake_count();
      r.queue_blob_max =
          std::max<uint64_t>(r.queue_blob_max, me->sealed_queue_state().size());
    }
  }
  L["sgx.counters_created"] = static_cast<double>(ids_after - ids_before);
  L["sgx.retired_backlog"] = static_cast<double>(retired);
  L["net.rpcs"] = static_cast<double>(world.network().rpcs_sent() - rpcs_before);
  L["net.bytes_per_move"] =
      static_cast<double>(world.network().bytes_sent() - bytes_before) / moves;
  L["platform.storage_bytes"] = sum_storage_bytes(world);
  L["migration.me_handshakes_full"] = static_cast<double>(full);
  L["migration.me_handshakes_resumed"] = static_cast<double>(resumed);
  L["migration.me_resume_ratio"] =
      full + resumed == 0 ? 0.0
                          : static_cast<double>(resumed) /
                                static_cast<double>(full + resumed);
  L["migration.me_queue_writes_per_move"] = static_cast<double>(queue_writes) / moves;
  L["migration.transfer_bytes_per_move"] = static_cast<double>(transfer_bytes) / moves;
  L["orchestrator.waves"] = static_cast<double>(stats.waves);
  L["orchestrator.task_touches_per_move"] =
      static_cast<double>(stats.task_touches) / moves;
  L["orchestrator.admission_checks"] = static_cast<double>(stats.admission_checks);
  L["orchestrator.pump_kicks"] = static_cast<double>(stats.pump_kicks);
  L["orchestrator.attempts_per_move"] =
      static_cast<double>(attempts) / std::max<double>(1.0, static_cast<double>(r.planned));
  L["orchestrator.retries"] = static_cast<double>(report.total_retries());
  L["orchestrator.peak_inflight"] = static_cast<double>(report.peak_inflight_total);
  const uint64_t control_plane = f.orch->control_plane_bytes() +
                                 f.scheduler->index_bytes() +
                                 f.registry->index_bytes();
  L["orchestrator.control_plane_bytes"] = static_cast<double>(control_plane);
  if (auto it = f.expected.begin(); it != f.expected.end()) {
    r.table2_bytes = f.registry->enclave(it->first)->sealed_state().size();
  }

  // ----- settle, PSE reclaim, correctness -----
  const Duration settle_start = world.clock().now();
  L["migration.settle_sweeps"] = static_cast<double>(settle(world));
  L["migration.settle_s"] = to_seconds(world.clock().now() - settle_start);
  for (platform::Machine* m : world.machines()) m->reclaim_retired_counters();

  if (seed == kAnchorSeed && w == Workload::kEvacWide) {
    const bool wall_ok =
        std::fabs(to_seconds(r.e2e.wall) - kAnchorWallSeconds) < 5e-7;
    if (!wall_ok || stats.waves != kAnchorWaves ||
        stats.task_touches != kAnchorTaskTouches ||
        control_plane != kAnchorControlPlaneBytes) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "anchor: wall %.6f s, waves %llu, task touches %llu, "
                    "control-plane bytes %llu differ from bench_fleet_scale's "
                    "1k row",
                    to_seconds(r.e2e.wall),
                    static_cast<unsigned long long>(stats.waves),
                    static_cast<unsigned long long>(stats.task_touches),
                    static_cast<unsigned long long>(control_plane));
      r.findings.emplace_back(buf);
    }
  }

  const bool client_writes = w == Workload::kPrecopyLive;
  uint64_t forks = 0;
  uint64_t refusals = 0;
  for (const auto& oracle : oracles) {
    for (const chaos::OracleFinding& finding : oracle->verify(report)) {
      // The oracle compares against pre-drain values; where client writes
      // ran, the benchmark's own expected values replace that check.
      if (client_writes && finding.check == "counter-regression") continue;
      r.findings.push_back(finding.check + ": " + finding.detail);
    }
    forks += oracle->forks();
    refusals += oracle->epoch_guard_refusals();
  }
  for (const auto& [id, counters] : f.expected) {
    const EnclaveRecord* record = f.registry->find(id);
    if (!client_writes || record == nullptr) continue;  // the oracle reported it
    for (const auto& [counter, value] : counters) {
      const Result<uint32_t> read =
          record->enclave->ecall_read_migratable_counter(counter);
      if (!read.ok() || read.value() != value) {
        r.findings.push_back(record->name + " counter " + std::to_string(counter) +
                             " lost a client write");
      }
    }
  }
  if (r.planned != static_cast<uint64_t>(kEnclaves)) {
    r.findings.push_back("planned " + std::to_string(r.planned) + " migrations");
  }
  if (r.client_failed != 0) {
    r.findings.push_back(std::to_string(r.client_failed) + " client ops failed");
  }
  L["chaos.forks"] = static_cast<double>(forks);
  L["chaos.epoch_guard_refusals"] = static_cast<double>(refusals);
  L["chaos.injected"] = executor ? static_cast<double>(executor->injected_total()) : 0.0;

  if (trace) {
    const obs::TraceRecorder& rec = world.observability().trace;
    const obs::MetricsRegistry& met = world.observability().metrics;
    L["net.posts"] = static_cast<double>(met.counter("net.posts"));
    L["net.drops"] = static_cast<double>(
        met.counter("net.drops.tamper") + met.counter("net.drops.unreachable") +
        met.counter("net.rpc_drops.tamper") + met.counter("net.rpc_drops.reply_lost"));
    L["net.transit_p99_ms"] = percentile_nearest_rank(transit_seconds(rec), 99) * 1e3;
    L["net.pending_max"] = counter_max(rec, "net.pending");
    double reclaim = 0.0;
    for (double s : span_seconds(rec, "pse.reclaim")) reclaim += s;
    L["platform.pse_reclaim_s"] = reclaim;
    L["migration.persist_commits_per_move"] =
        static_cast<double>(met.counter("persist.commits")) / moves;
    L["migration.flush_fences"] = static_cast<double>(met.counter("persist.flush_fences"));
    L["migration.enqueue_wait_p99_s"] =
        percentile_nearest_rank(span_seconds(rec, "enqueue_wait"), 99);
    const std::vector<double> restores = span_seconds(rec, "restore");
    L["migration.restore_p50_ms"] = percentile_nearest_rank(restores, 50) * 1e3;
    L["migration.restore_p99_ms"] = percentile_nearest_rank(restores, 99) * 1e3;
    L["migration.precopy_rounds_per_move"] =
        static_cast<double>(met.counter("migration.precopy_rounds")) / moves;
    L["migration.precopy_round_p50_ms"] =
        percentile_nearest_rank(span_seconds(rec, "precopy_round"), 50) * 1e3;
    L["migration.finalize_p99_ms"] =
        percentile_nearest_rank(span_seconds(rec, "finalize"), 99) * 1e3;
    L["migration.root_self_share"] = root_self_share(rec);
    L["migration.me_attest_p50_ms"] =
        percentile_nearest_rank(
            dwell_sum(rec, {"await-ra-msg2", "await-auth", "await-resume"}), 50) *
        1e3;
    L["migration.me_await_arm_p99_s"] =
        percentile_nearest_rank(dwell_sum(rec, {"await-arm"}), 99);
    L["migration.me_await_accept_p99_ms"] =
        percentile_nearest_rank(dwell_sum(rec, {"await-accept"}), 99) * 1e3;
    L["migration.me_requeued"] = static_cast<double>(step_count(rec, "requeued"));
    L["migration.me_failed_steps"] = static_cast<double>(step_count(rec, "failed"));
    L["chaos.recovery_p99_s"] = percentile_nearest_rank(recovery_seconds(rec), 99);
    L["obs.spans"] = static_cast<double>(rec.spans().size());
    L["obs.trace_bytes"] = static_cast<double>(rec.to_chrome_json().size());
    for (const chaos::OracleFinding& finding : chaos::check_fault_recovery(rec)) {
      r.findings.push_back(finding.check + ": " + finding.detail);
    }
  }
  return r;
}

// ----- layer probes -----

/// Minimum over `reps` timed blocks of CPU seconds per call of `fn`, each
/// block long enough (`per_block` calls) to dwarf the timer.
double min_cpu_per_call(int reps, int per_block, const std::function<void()>& fn) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = process_cpu_seconds();
    for (int i = 0; i < per_block; ++i) fn();
    best = std::min(best, (process_cpu_seconds() - t0) / per_block);
  }
  return best;
}

/// Times the hot primitives at the sizes the run just used.  Real CPU
/// varies ~6% from run to run, so each probe reports min-of-N.
void run_probes(const RunResult& r, std::map<std::string, double>& L) {
  const size_t blob = std::max<size_t>(r.queue_blob_max, 1);
  const size_t table2 = std::max<size_t>(r.table2_bytes, 1);
  const Bytes key(16, 0x2a);
  const Bytes iv(crypto::kGcmIvSize, 0x01);
  const Bytes payload(blob, 0x5c);
  // Accumulates each probed call's result so none of them is dead code.
  volatile size_t sink = 0;
  L["crypto.gcm_ns_per_byte"] =
      min_cpu_per_call(9, 4, [&] {
        sink = sink + crypto::gcm_encrypt(key, iv, {}, payload).ciphertext.size();
      }) * 1e9 / static_cast<double>(blob);

  crypto::Ed25519Seed seed{};
  seed[0] = 7;
  const crypto::Ed25519KeyPair pair = crypto::Ed25519KeyPair::from_seed(seed);
  const Bytes message(64, 0x33);
  const crypto::Ed25519Signature signature = pair.sign(message);
  L["crypto.ed25519_verify_us"] =
      min_cpu_per_call(9, 8, [&] {
        sink = sink + (crypto::ed25519_verify(pair.public_key(), message, signature) ? 1 : 0);
      }) * 1e6;

  crypto::X25519Key scalar{};
  scalar[0] = 9;
  const crypto::X25519Key point = crypto::x25519_base(scalar);
  L["crypto.x25519_us"] =
      min_cpu_per_call(9, 8, [&] { sink = sink + crypto::x25519(scalar, point)[0]; }) * 1e6;

  std::array<uint8_t, 32> secret{};
  secret[0] = 3;
  const sgx::SimCpu cpu(secret);
  const sgx::EnclaveIdentity self{};
  crypto::CtrDrbg drbg(Bytes(48, 0x11));
  const Bytes table(table2, 0x42);
  L["sgx.seal_us"] =
      min_cpu_per_call(9, 16, [&] {
        sink = sink + sgx::seal_data(cpu, self, drbg, sgx::KeyPolicy::kMrEnclave, {}, table)
                    .value()
                    .size();
      }) * 1e6;

  VirtualClock clock;
  const CostModel costs;
  platform::UntrustedStore store(clock, costs);
  L["platform.put_versioned_us"] =
      min_cpu_per_call(9, 16, [&] { store.put_versioned("probe", payload); }) * 1e6;
}

// ----- output -----

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string render_json(bool correct, uint64_t attempted, uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i != 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " + value +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  out += "}}";
  return out;
}

struct Args {
  Workload workload = Workload::kEvacWide;
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <evac_wide|precopy_live|"
               "evac_faults> --seed <n> --seconds <s> --trace <0|1>\n"
               "       perfbench --self-test\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const WorkloadName& w : kWorkloads) {
        if (value == w.name) {
          args.workload = w.kind;
          args.workload_name = w.name;
          have_workload = true;
        }
      }
      if (!have_workload) usage("unknown workload");
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      usage("unknown flag");
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");
  return args;
}

void print_quantile(const char* name, const std::vector<double>& s, double p,
                    double scale, const char* unit) {
  if (s.empty()) {
    std::printf("  %-16s n/a (no samples on this workload)\n", name);
    return;
  }
  const Quantile q = quantile(s, p);
  std::printf("  %-16s %12.6f %-3s (n=%zu, %zu beyond)\n", name, q.value * scale,
              unit, q.samples, q.beyond);
}

/// The per-layer metrics of a traced run, in print order, with units.
/// The name's prefix is the layer; GLOSSARY.md says which end-to-end
/// metric each should move and on which workload.  moves_per_cpu_s is the
/// whole simulator's throughput; it is listed here because real CPU on a
/// shared host spreads too widely to gate on.
struct LayerMetric {
  const char* name;
  const char* unit;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"moves_per_cpu_s", "1/s"},
    {"crypto.gcm_ns_per_byte", "ns/B"},
    {"crypto.ed25519_verify_us", "us"},
    {"crypto.x25519_us", "us"},
    {"sgx.seal_us", "us"},
    {"sgx.counters_created", "count"},
    {"sgx.retired_backlog", "count"},
    {"net.rpcs", "count"},
    {"net.bytes_per_move", "B"},
    {"net.posts", "count"},
    {"net.drops", "count"},
    {"net.transit_p99_ms", "ms"},
    {"net.pending_max", "count"},
    {"platform.add_machine_ms", "ms"},
    {"platform.put_versioned_us", "us"},
    {"platform.storage_bytes", "B"},
    {"platform.pse_reclaim_s", "s"},
    {"migration.counter_create_ms", "ms"},
    {"migration.client_op_cpu_us", "us"},
    {"migration.persist_commits_per_move", "count"},
    {"migration.flush_fences", "count"},
    {"migration.enqueue_wait_p99_s", "s"},
    {"migration.restore_p50_ms", "ms"},
    {"migration.restore_p99_ms", "ms"},
    {"migration.transfer_bytes_per_move", "B"},
    {"migration.precopy_rounds_per_move", "count"},
    {"migration.precopy_round_p50_ms", "ms"},
    {"migration.finalize_p99_ms", "ms"},
    {"migration.root_self_share", "ratio"},
    {"migration.me_attest_p50_ms", "ms"},
    {"migration.me_await_arm_p99_s", "s"},
    {"migration.me_await_accept_p99_ms", "ms"},
    {"migration.me_handshakes_full", "count"},
    {"migration.me_handshakes_resumed", "count"},
    {"migration.me_resume_ratio", "ratio"},
    {"migration.me_queue_writes_per_move", "count"},
    {"migration.me_queue_blob_max_bytes", "B"},
    {"migration.me_requeued", "count"},
    {"migration.me_failed_steps", "count"},
    {"migration.settle_s", "s"},
    {"migration.settle_sweeps", "count"},
    {"orchestrator.launch_ms", "ms"},
    {"orchestrator.waves", "count"},
    {"orchestrator.task_touches_per_move", "count"},
    {"orchestrator.admission_checks", "count"},
    {"orchestrator.pump_kicks", "count"},
    {"orchestrator.attempts_per_move", "count"},
    {"orchestrator.retries", "count"},
    {"orchestrator.peak_inflight", "count"},
    {"orchestrator.control_plane_bytes", "B"},
    {"obs.trace_cpu_ratio", "ratio"},
    {"obs.trace_bytes", "B"},
    {"obs.spans", "count"},
    {"chaos.injected", "count"},
    {"chaos.forks", "count"},
    {"chaos.epoch_guard_refusals", "count"},
    {"chaos.recovery_p99_s", "s"},
    {"client.blocked_p50_s", "s"},
    {"client.blocked_p99_s", "s"},
    {"client.write_p50_ms", "ms"},
    {"client.write_p99_ms", "ms"},
    {"client.read_p99_ms", "ms"},
};

int run(const Args& args) {
  // A traced process first runs the workload untraced: the traced run must
  // reproduce its virtual timings bit for bit, and the pair prices the
  // tracing in real CPU.  The traced world is the one the probes size to.
  RunResult plain;
  if (args.trace) plain = run_workload(args.workload, args.seed, false);
  const RunResult r = run_workload(args.workload, args.seed, args.trace);
  std::vector<std::string> findings = plain.findings;
  findings.insert(findings.end(), r.findings.begin(), r.findings.end());
  // setup_s is the median of several setups, each in its own world.
  std::vector<double> setups = {r.cost.total_s};
  double setup_total = r.cost.total_s;
  while (!args.trace && static_cast<int>(setups.size()) < kMaxSetups &&
         setup_total + r.cost.total_s <= args.seconds / 2) {
    setups.push_back(build_fleet(args.workload, args.seed)->cost.total_s);
    setup_total += setups.back();
  }
  const double setup_s = percentile_nearest_rank(setups, 50);
  const VirtualE2E& v = r.e2e;
  const uint64_t attempted = r.planned + r.client_issued;
  const uint64_t failed = r.failed_moves + r.client_failed;
  const double fail_rate =
      static_cast<double>(failed) / static_cast<double>(std::max<uint64_t>(1, attempted));
  // From the untraced execute: tracing costs real CPU.
  const RunResult& untraced = args.trace ? plain : r;
  const double moves_per_cpu_s =
      static_cast<double>(untraced.planned - untraced.failed_moves) /
      untraced.execute_cpu_s;

  std::printf("perfbench %s seed %llu (%s)\n", args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced");
  std::printf("  %-16s %12.6f s\n", "drain_wall_s", to_seconds(v.wall));
  print_quantile("freeze_p50_ms", v.freeze_s, 50, 1e3, "ms");
  print_quantile("freeze_p99_ms", v.freeze_s, 99, 1e3, "ms");
  print_quantile("move_p50_s", v.move_s, 50, 1, "s");
  print_quantile("move_p99_s", v.move_s, 99, 1, "s");
  print_quantile("blocked_p50_s", v.blocked_s, 50, 1, "s");
  print_quantile("blocked_p99_s", v.blocked_s, 99, 1, "s");
  print_quantile("write_p50_ms", v.write_s, 50, 1e3, "ms");
  print_quantile("write_p99_ms", v.write_s, 99, 1e3, "ms");
  print_quantile("read_p99_ms", v.read_s, 99, 1e3, "ms");
  std::printf("  %-16s %12.6f     (%llu of %llu)\n", "fail_rate", fail_rate,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  for (const std::vector<double>* tail :
       {&v.freeze_s, &v.move_s, &v.blocked_s, &v.write_s, &v.read_s}) {
    if (!tail->empty() && !tail_resolved(tail->size(), 99)) {
      findings.push_back("a p99 over " + std::to_string(tail->size()) +
                         " samples has fewer than ten beyond it");
    }
  }

  std::printf("  %-16s %12.3f 1/s (execute CPU %.3f s)\n", "moves_per_cpu_s",
              moves_per_cpu_s, untraced.execute_cpu_s);

  std::vector<Metric> metrics;
  if (!args.trace) {
    const double rss_mb = static_cast<double>(process_peak_rss_bytes()) / (1024.0 * 1024.0);
    std::printf("  %-16s %12.3f s   (median of %zu setups)\n", "setup_s", setup_s,
                setups.size());
    std::printf("  %-16s %12.1f MB\n", "peak_rss_mb", rss_mb);
    metrics = {
        {"drain_wall_s", to_seconds(v.wall), "s"},
        {"freeze_p50_ms", percentile_nearest_rank(v.freeze_s, 50) * 1e3, "ms"},
        {"freeze_p99_ms", percentile_nearest_rank(v.freeze_s, 99) * 1e3, "ms"},
        {"move_p50_s", percentile_nearest_rank(v.move_s, 50), "s"},
        {"move_p99_s", percentile_nearest_rank(v.move_s, 99), "s"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    if (!(plain.e2e == v)) {
      findings.push_back("traced run's virtual-time metrics differ from the untraced run");
    }
    std::map<std::string, double> L = r.layer;
    run_probes(r, L);
    L["platform.add_machine_ms"] = r.cost.add_machine_s * 1e3 / r.cost.machines;
    L["orchestrator.launch_ms"] = r.cost.launch_s * 1e3 / r.cost.launches;
    L["migration.counter_create_ms"] = r.cost.counter_create_s * 1e3 / r.cost.counters;
    L["migration.client_op_cpu_us"] =
        r.client_issued == 0 ? 0.0
                             : r.client_op_cpu_s * 1e6 / static_cast<double>(r.client_issued);
    L["migration.me_queue_blob_max_bytes"] = static_cast<double>(r.queue_blob_max);
    L["obs.trace_cpu_ratio"] = r.execute_cpu_s / plain.execute_cpu_s;
    L["moves_per_cpu_s"] = moves_per_cpu_s;
    L["client.blocked_p50_s"] = percentile_nearest_rank(v.blocked_s, 50);
    L["client.blocked_p99_s"] = percentile_nearest_rank(v.blocked_s, 99);
    L["client.write_p50_ms"] = percentile_nearest_rank(v.write_s, 50) * 1e3;
    L["client.write_p99_ms"] = percentile_nearest_rank(v.write_s, 99) * 1e3;
    L["client.read_p99_ms"] = percentile_nearest_rank(v.read_s, 99) * 1e3;
    for (const LayerMetric& m : kLayerMetrics) {
      const auto it = L.find(m.name);
      if (it == L.end()) {
        findings.push_back(std::string("per-layer metric ") + m.name + " was not computed");
        continue;
      }
      metrics.push_back({m.name, it->second, m.unit});
      std::printf("  %-40s %16.6f %s\n", m.name, it->second, m.unit);
    }
  }

  const bool correct = findings.empty();
  for (const std::string& finding : findings) {
    std::printf("CHECK FAILED: %s\n", finding.c_str());
  }
  if (!correct) {
    std::printf("replay: python3 perfbench/run.py --workload %s --seed %llu --seconds %g "
                "--trace %d\n",
                args.workload_name.c_str(), static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0);
  }
  std::printf("%s\n", render_json(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace sgxmig::perfbench

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) {
    return sgxmig::perfbench::run_self_test();
  }
  return sgxmig::perfbench::run(sgxmig::perfbench::parse_args(argc, argv));
}
