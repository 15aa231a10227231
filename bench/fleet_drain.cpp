// Orchestrated-drain scaling bench: virtual-time cost of evacuating a
// whole machine through the fleet orchestrator as the number of hosted
// enclaves grows, plus failure variants (least-loaded destination's ME
// dark; source-ME crash/restart mid-drain resuming from the durable
// transfer queue), a max_inflight_per_machine cap sweep locating the knee
// where source-ME contention stops paying, and live pre-copy drain rows
// (including the ME-restart fault) that must converge with zero failures.
//
// Emits BENCH_fleet_drain.json (one row per configuration + a cap-knee
// summary row) for the CI perf-trajectory artifact.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "migration/migration_enclave.h"
#include "orchestrator/orchestrator.h"

namespace sgxmig {
namespace {

using orchestrator::FleetRegistry;
using orchestrator::LaunchOptions;
using orchestrator::Orchestrator;
using orchestrator::OrchestratorOptions;
using orchestrator::OrchestratorReport;
using orchestrator::Plan;
using orchestrator::Scheduler;
using orchestrator::TransferMode;

struct DrainResult {
  OrchestratorReport report;
  Duration wall;
  /// ME<->ME attestation handshakes summed over every machine's ME: full
  /// RA handshakes vs one-round-trip cached-session resumes.
  uint64_t full_handshakes = 0;
  uint64_t resumed_handshakes = 0;
  /// Deferred counter teardown: pre-copy sources RETIRE their counters
  /// (one cheap logical op) during the drain; the per-slot flash reclaim
  /// runs after the measurement window.  Honest accounting: this is real
  /// work, it just never sits on any migration's critical path.
  size_t reclaimed_slots = 0;
  Duration reclaim_cost{};
};

enum class Fault { kNone, kMeDown, kMeRestart };

const char* fault_name(Fault fault) {
  switch (fault) {
    case Fault::kNone: return "none";
    case Fault::kMeDown: return "me-down";
    case Fault::kMeRestart: return "me-restart";
  }
  return "?";
}

DrainResult drain(int enclaves, int machines, uint32_t cap, Fault fault,
                  TransferMode mode, bool pipelined = false,
                  bool freeze_aware = false, bool traced = false,
                  std::string* trace_json = nullptr) {
  platform::World world(/*seed=*/9100 + enclaves +
                        (static_cast<int>(fault) * 7) +
                        (static_cast<int>(mode) * 31) +
                        (pipelined ? 101 : 0));
  // `traced` deliberately does NOT perturb the seed: a traced run must be
  // the SAME simulation as its untraced twin, observed rather than
  // changed (the tracing_overhead gate compares their walls bit-exactly).
  if (traced) world.observability().set_enabled(true);
  // Durable-queue MEs in every machine's management-enclave slot: the
  // me-restart variant kills and revives them mid-drain.
  world.install_management_enclaves(
      migration::durable_me_factory(world.provider()));
  for (int i = 0; i < machines; ++i) {
    world.add_machine("m" + std::to_string(i));
  }
  if (pipelined && mode == TransferMode::kPrecopy) {
    // Pipelined pre-copy hops rounds through the deferred-delivery pump
    // instead of the blocking rpc: rounds for different enclaves overlap.
    for (platform::Machine* m : world.machines()) {
      if (auto* me = migration::me_on(*m)) me->set_async_precopy(true);
    }
  }

  FleetRegistry fleet(world);
  LaunchOptions launch;
  launch.live_transfer = mode == TransferMode::kPrecopy;
  for (int i = 0; i < enclaves; ++i) {
    const std::string name = "drain-app-" + std::to_string(i);
    const auto image = sgx::EnclaveImage::create(name, 1, "bench");
    const uint64_t id = fleet.launch("m0", name, image, launch).value();
    auto* enclave = fleet.enclave(id);
    const uint32_t counter =
        enclave->ecall_create_migratable_counter().value().counter_id;
    enclave->ecall_increment_migratable_counter(counter);
  }

  if (fault == Fault::kMeDown) {
    // The scheduler's first pick goes dark: every migration that selects
    // it fails the remote-attestation RPCs and must re-select.
    world.network().set_endpoint_down("m1/me", true);
  }

  Scheduler scheduler(fleet);  // least-loaded
  OrchestratorOptions options;
  options.max_inflight_per_machine = cap;
  options.max_inflight_total = 2 * cap;
  options.max_attempts = 6;
  options.transfer_mode = mode;
  options.pipelined = pipelined;
  options.freeze_aware = freeze_aware;
  if (freeze_aware) {
    // Slot-live arming concentrates transfers at whichever destinations
    // go live first; the per-destination cap keeps that bounded.
    options.max_inflight_per_destination = cap;
  }
  Orchestrator orch(fleet, scheduler, options);
  size_t completions = 0;
  if (fault == Fault::kMeRestart) {
    // The source ME crashes MID-completion-wave, while other admitted
    // migrations still hold retained entries in its transfer queue (a
    // wave-boundary kill would find the queue already drained), and is
    // revived at the top of the next wave, restoring the sealed queue.
    fleet.set_completion_callback(
        [&world, &completions](const orchestrator::EnclaveRecord&) {
          if (++completions == 2) world.machine("m0")->kill_management_enclave();
        });
    orch.set_wave_hook([&world, waves_down = 0u](uint32_t) mutable {
      if (world.machine("m0")->has_management_enclave()) return;
      // Stay dark for two waves so queued migrations genuinely fail
      // against the dead ME before the revival restores the queue.
      if (++waves_down >= 3) world.machine("m0")->restart_management_enclave();
    });
  }

  const Duration t0 = world.clock().now();
  DrainResult result;
  result.report = orch.execute(Plan::drain("m0"));
  result.wall = world.clock().now() - t0;
  for (platform::Machine* m : world.machines()) {
    if (auto* me = migration::me_on(*m)) {
      result.full_handshakes += me->full_handshake_count();
      result.resumed_handshakes += me->resumed_handshake_count();
    }
  }
  // Post-drain firmware sweep over retired counter slots, OUTSIDE the
  // measured wall (that is the whole point of retire-then-reclaim).
  const Duration sweep0 = world.clock().now();
  for (platform::Machine* m : world.machines()) {
    result.reclaimed_slots += m->reclaim_retired_counters();
  }
  result.reclaim_cost = world.clock().now() - sweep0;
  if (traced) {
    result.report.metrics_json = world.observability().metrics.to_json();
    if (trace_json != nullptr) {
      *trace_json = world.observability().trace.to_chrome_json();
    }
  }
  return result;
}

bool write_text_file(const char* path, const std::string& body) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  return std::fclose(f) == 0 && written == body.size();
}

void run() {
  std::printf("\n================================================================\n");
  std::printf("Fleet drain — orchestrated evacuation of one machine\n");
  std::printf("================================================================\n");
  std::printf("%9s %9s %5s %8s %14s %10s %12s %12s %8s %13s %11s\n",
              "enclaves", "machines", "cap", "faults", "mode", "wall [s]",
              "mean lat [s]", "max lat [s]", "retries", "peak inflight",
              "freeze [s]");

  bench::JsonBench json("fleet_drain");
  const auto row = [&](int enclaves, int machines, uint32_t cap, Fault fault,
                       TransferMode mode, bool pipelined = false,
                       bool freeze_aware = false) -> DrainResult {
    const DrainResult r = drain(enclaves, machines, cap, fault, mode,
                                pipelined, freeze_aware);
    const auto& rep = r.report;
    std::printf("%9d %9d %5u %8s %14s%2s %8.3f %12.3f %12.3f %8u %13u %11.3f\n",
                enclaves, machines, cap, fault_name(fault),
                orchestrator::transfer_mode_name(mode),
                freeze_aware ? "**" : pipelined ? "*" : "",
                to_seconds(r.wall),
                rep.mean_latency_seconds(), rep.max_latency_seconds(),
                rep.total_retries(), rep.peak_inflight_total,
                rep.mean_freeze_window_seconds());
    json.begin_row()
        .field("enclaves", enclaves)
        .field("machines", machines)
        .field("cap", static_cast<uint64_t>(cap))
        .field("faults", std::string(fault_name(fault)))
        .field("mode", std::string(orchestrator::transfer_mode_name(mode)))
        .field("engine",
               std::string(freeze_aware  ? "pipelined-freeze-aware"
                           : pipelined   ? "pipelined"
                                         : "blocking"))
        .field("wall_seconds", to_seconds(r.wall))
        .field("mean_latency_seconds", rep.mean_latency_seconds())
        .field("max_latency_seconds", rep.max_latency_seconds())
        .field("mean_freeze_window_seconds", rep.mean_freeze_window_seconds())
        .field("p50_freeze_window_seconds",
               rep.freeze_window_percentile_seconds(50.0))
        .field("p99_freeze_window_seconds",
               rep.freeze_window_percentile_seconds(99.0))
        .field("p50_enqueue_wait_seconds",
               rep.enqueue_wait_percentile_seconds(50.0))
        .field("p99_enqueue_wait_seconds",
               rep.enqueue_wait_percentile_seconds(99.0))
        .field("full_handshakes", r.full_handshakes)
        .field("resumed_handshakes", r.resumed_handshakes)
        .field("retries", static_cast<uint64_t>(rep.total_retries()))
        .field("peak_inflight",
               static_cast<uint64_t>(rep.peak_inflight_total))
        .field("succeeded", static_cast<uint64_t>(rep.succeeded()))
        .field("failed", static_cast<uint64_t>(rep.failed()));
    if (rep.failed() != 0) {
      std::printf("UNEXPECTED: %zu migrations failed\n", rep.failed());
      std::exit(1);
    }
    return r;
  };

  for (const int enclaves : {8, 16, 32, 64}) {
    row(enclaves, /*machines=*/5, /*cap=*/4, Fault::kNone,
        TransferMode::kFullSnapshot);
  }
  // Failure storm: m1's ME is down; drains re-route to m2..m4.
  row(/*enclaves=*/16, /*machines=*/5, /*cap=*/4, Fault::kMeDown,
      TransferMode::kFullSnapshot);
  // ME crash/restart mid-drain: the drain resumes from the source ME's
  // durable transfer queue with zero failed migrations.
  row(/*enclaves=*/32, /*machines=*/5, /*cap=*/4, Fault::kMeRestart,
      TransferMode::kFullSnapshot);

  // --- cap sweeps (ROADMAP): blocking as the baseline, pipelined as the
  // engine that makes the cap a real throughput lever.
  const auto sweep_knee = [&](bool pipelined, double* best_out,
                              double* cap1_out) -> uint32_t {
    std::printf("\ncap sweep, 32 enclaves / 5 machines (full snapshot, %s):\n",
                pipelined ? "pipelined" : "blocking");
    std::vector<std::pair<uint32_t, double>> sweep;
    for (const uint32_t cap : {1u, 2u, 4u, 8u, 16u}) {
      const DrainResult r =
          row(/*enclaves=*/32, /*machines=*/5, cap, Fault::kNone,
              TransferMode::kFullSnapshot, pipelined);
      sweep.emplace_back(cap, to_seconds(r.wall));
    }
    double best_wall = sweep.front().second;
    for (const auto& [cap, wall] : sweep) {
      best_wall = std::min(best_wall, wall);
    }
    // Knee = smallest cap within 5% of the best wall time: raising the
    // cap past it buys no further overlap.
    uint32_t knee_cap = sweep.back().first;
    for (const auto& [cap, wall] : sweep) {
      if (wall <= best_wall * 1.05) {
        knee_cap = cap;
        break;
      }
    }
    std::printf("cap-sweep knee (%s): cap=%u (within 5%% of best wall %.3fs; "
                "cap-1 wall %.3fs)\n",
                pipelined ? "pipelined" : "blocking", knee_cap, best_wall,
                sweep.front().second);
    *best_out = best_wall;
    *cap1_out = sweep.front().second;
    return knee_cap;
  };

  double blocking_best = 0.0, blocking_cap1 = 0.0;
  const uint32_t blocking_knee =
      sweep_knee(/*pipelined=*/false, &blocking_best, &blocking_cap1);
  json.begin_row()
      .field("sweep", std::string("max_inflight_per_machine-blocking"))
      .field("knee_cap", static_cast<uint64_t>(blocking_knee))
      .field("best_wall_seconds", blocking_best)
      .field("cap1_wall_seconds", blocking_cap1);

  double pipelined_best = 0.0, pipelined_cap1 = 0.0;
  const uint32_t pipelined_knee =
      sweep_knee(/*pipelined=*/true, &pipelined_best, &pipelined_cap1);
  json.begin_row()
      .field("sweep", std::string("max_inflight_per_machine"))
      .field("engine", std::string("pipelined"))
      .field("knee_cap", static_cast<uint64_t>(pipelined_knee))
      .field("best_wall_seconds", pipelined_best)
      .field("cap1_wall_seconds", pipelined_cap1)
      .field("speedup_vs_cap1", pipelined_cap1 / pipelined_best);

  // CI gate: the pipelined engine must move the knee off 1 — the best
  // cap's wall time must beat the cap-1 (serial) wall by >= 20%.  If this
  // regresses, raising max_inflight_per_machine stopped buying overlap.
  if (pipelined_knee < 2 || pipelined_best > 0.8 * pipelined_cap1) {
    std::printf("GATE FAILED: pipelined knee=%u best=%.3fs cap1=%.3fs "
                "(need knee >= 2 and best <= 0.8x cap1)\n",
                pipelined_knee, pipelined_best, pipelined_cap1);
    std::exit(1);
  }

  // Pipelined drain through a source-ME crash mid-pipeline: in-flight
  // TransferTasks resume from the durable queue with zero failures
  // (the row lambda exits non-zero on any failed migration).
  row(/*enclaves=*/32, /*machines=*/5, /*cap=*/4, Fault::kMeRestart,
      TransferMode::kFullSnapshot, /*pipelined=*/true);

  // --- freeze-aware scheduling (** rows): reserve keeps the enclave
  // LIVE in the source ME's queue; only the slot-live poll freezes it.
  // The freeze window stops growing with the queue depth the cap builds.
  std::printf("\nfreeze-aware, 32 enclaves / 5 machines (pipelined full "
              "snapshot):\n");
  const DrainResult legacy_cap8 =
      row(/*enclaves=*/32, /*machines=*/5, /*cap=*/8, Fault::kNone,
          TransferMode::kFullSnapshot, /*pipelined=*/true);
  const DrainResult fa_cap1 =
      row(/*enclaves=*/32, /*machines=*/5, /*cap=*/1, Fault::kNone,
          TransferMode::kFullSnapshot, /*pipelined=*/true,
          /*freeze_aware=*/true);
  const DrainResult fa_cap8 =
      row(/*enclaves=*/32, /*machines=*/5, /*cap=*/8, Fault::kNone,
          TransferMode::kFullSnapshot, /*pipelined=*/true,
          /*freeze_aware=*/true);
  const double legacy8_freeze =
      legacy_cap8.report.mean_freeze_window_seconds();
  const double fa1_freeze = fa_cap1.report.mean_freeze_window_seconds();
  const double fa8_freeze = fa_cap8.report.mean_freeze_window_seconds();
  std::printf("freeze-aware vs legacy at cap 8: mean freeze %.4fs vs %.4fs "
              "(%.1fx smaller); cap-8/cap-1 freeze ratio %.2fx (legacy held "
              "queue time IN the freeze); handshakes %llu full + %llu "
              "resumed\n",
              fa8_freeze, legacy8_freeze,
              fa8_freeze > 0 ? legacy8_freeze / fa8_freeze : 0.0,
              fa1_freeze > 0 ? fa8_freeze / fa1_freeze : 0.0,
              static_cast<unsigned long long>(fa_cap8.full_handshakes),
              static_cast<unsigned long long>(fa_cap8.resumed_handshakes));
  json.begin_row()
      .field("comparison", std::string("freeze_aware_vs_legacy"))
      .field("cap", static_cast<uint64_t>(8))
      .field("legacy_mean_freeze_window_seconds", legacy8_freeze)
      .field("freeze_aware_mean_freeze_window_seconds", fa8_freeze)
      .field("freeze_aware_cap1_mean_freeze_window_seconds", fa1_freeze)
      .field("freeze_ratio_cap8_over_cap1",
             fa1_freeze > 0 ? fa8_freeze / fa1_freeze : 0.0)
      .field("legacy_wall_seconds", to_seconds(legacy_cap8.wall))
      .field("freeze_aware_wall_seconds", to_seconds(fa_cap8.wall))
      .field("p99_enqueue_wait_seconds",
             fa_cap8.report.enqueue_wait_percentile_seconds(99.0))
      .field("full_handshakes", fa_cap8.full_handshakes)
      .field("resumed_handshakes", fa_cap8.resumed_handshakes);
  // CI gate: with freeze-aware on, deepening the queue (cap 1 -> 8) may
  // grow the mean freeze window at most 2x (the queue wait lives in
  // enqueue_wait now, not in the freeze), at equal-or-better wall than
  // the legacy pipelined engine at the same cap.
  if (fa8_freeze > 2.0 * fa1_freeze ||
      to_seconds(fa_cap8.wall) > 1.05 * to_seconds(legacy_cap8.wall)) {
    std::printf("GATE FAILED: freeze-aware cap8 freeze=%.4fs cap1=%.4fs "
                "wall=%.3fs legacy wall=%.3fs (need freeze(cap8) <= 2x "
                "freeze(cap1) and wall <= 1.05x legacy)\n",
                fa8_freeze, fa1_freeze, to_seconds(fa_cap8.wall),
                to_seconds(legacy_cap8.wall));
    std::exit(1);
  }
  // CI gate: the session cache must measurably replace full handshakes
  // with one-round-trip resumes (32 transfers over 4 destinations needs
  // only ~4 full handshakes).
  if (fa_cap8.resumed_handshakes <= fa_cap8.full_handshakes) {
    std::printf("GATE FAILED: attestation cache ineffective (%llu full vs "
                "%llu resumed handshakes)\n",
                static_cast<unsigned long long>(fa_cap8.full_handshakes),
                static_cast<unsigned long long>(fa_cap8.resumed_handshakes));
    std::exit(1);
  }

  // --- live pre-copy drains: same fleet, freeze window shrinks to the
  // final delta; the ME-restart variant must still converge cleanly from
  // the durable queue (pre-copy attempts and staging are part of it).
  const DrainResult blocking_precopy =
      row(/*enclaves=*/32, /*machines=*/5, /*cap=*/4, Fault::kNone,
          TransferMode::kPrecopy);
  row(/*enclaves=*/32, /*machines=*/5, /*cap=*/4, Fault::kMeRestart,
      TransferMode::kPrecopy);
  // Pipelined pre-copy: rounds hop through the deferred-delivery pump
  // (async round shipping), so rounds for different enclaves overlap and
  // restores overlap across destination lanes.
  row(/*enclaves=*/32, /*machines=*/5, /*cap=*/4, Fault::kNone,
      TransferMode::kPrecopy, /*pipelined=*/true);
  const DrainResult precopy_cap8 =
      row(/*enclaves=*/32, /*machines=*/5, /*cap=*/8, Fault::kNone,
          TransferMode::kPrecopy, /*pipelined=*/true);
  const double precopy8_freeze =
      precopy_cap8.report.mean_freeze_window_seconds();
  const double blocking_precopy_freeze =
      blocking_precopy.report.mean_freeze_window_seconds();
  const double freeze_ratio_vs_blocking =
      blocking_precopy_freeze > 0 ? precopy8_freeze / blocking_precopy_freeze
                                  : 0.0;
  std::printf("pipelined pre-copy vs full-snapshot at cap 8: wall %.3fs vs "
              "%.3fs (%.2fx); mean freeze %.4fs, %.2fx the blocking "
              "pre-copy cap-4 freeze; deferred counter reclaim %.3fs over "
              "%zu retired slots, off the drain wall\n",
              to_seconds(precopy_cap8.wall), to_seconds(legacy_cap8.wall),
              to_seconds(precopy_cap8.wall) / to_seconds(legacy_cap8.wall),
              precopy8_freeze, freeze_ratio_vs_blocking,
              to_seconds(precopy_cap8.reclaim_cost),
              precopy_cap8.reclaimed_slots);
  json.begin_row()
      .field("comparison", std::string("pipelined_precopy_vs_full_snapshot"))
      .field("cap", static_cast<uint64_t>(8))
      .field("precopy_wall_seconds", to_seconds(precopy_cap8.wall))
      .field("full_snapshot_wall_seconds", to_seconds(legacy_cap8.wall))
      .field("wall_ratio", to_seconds(precopy_cap8.wall) /
                               to_seconds(legacy_cap8.wall))
      .field("precopy_mean_freeze_window_seconds", precopy8_freeze)
      .field("freeze_ratio_vs_blocking_precopy", freeze_ratio_vs_blocking)
      .field("deferred_reclaim_seconds", to_seconds(precopy_cap8.reclaim_cost))
      .field("reclaimed_counter_slots",
             static_cast<uint64_t>(precopy_cap8.reclaimed_slots));
  // CI gate: async round hops must keep the pipelined pre-copy drain
  // within 1.4x of the pipelined full-snapshot wall at cap 8 (the sync
  // round rpcs used to hold it near 1.85x).
  if (to_seconds(precopy_cap8.wall) > 1.4 * to_seconds(legacy_cap8.wall)) {
    std::printf("GATE FAILED: pipelined pre-copy wall %.3fs > 1.4x pipelined "
                "full-snapshot wall %.3fs at cap 8\n",
                to_seconds(precopy_cap8.wall), to_seconds(legacy_cap8.wall));
    std::exit(1);
  }
  // CI gate: pipelining must not cost freeze time.  A frozen enclave's
  // finalize is driven to its accept before other enclaves' live rounds
  // on the source lane, so its freeze is the final delta, as in the
  // blocking pre-copy engine (cap-8 mean within 1.5x of the blocking
  // cap-4 row; it sat near 5.9x while the accept queued behind them).
  if (freeze_ratio_vs_blocking > 1.5) {
    std::printf("GATE FAILED: pipelined pre-copy mean freeze %.4fs > 1.5x "
                "blocking pre-copy mean freeze %.4fs\n",
                precopy8_freeze, blocking_precopy_freeze);
    std::exit(1);
  }

  // --- traced rerun (observability): the SAME cap-8 pipelined pre-copy
  // drain as precopy_cap8 — same seed, same config — with the per-World
  // trace recorder + metrics on.  Emits the Perfetto timeline
  // (TRACE_fleet_drain.json: machines as processes, one span tree per
  // migration) and the report+metrics file trace_check.py audits in CI.
  std::printf("\ntraced rerun, 32 enclaves / 5 machines (pipelined pre-copy, "
              "cap 8):\n");
  std::string trace_json;
  const DrainResult traced =
      drain(/*enclaves=*/32, /*machines=*/5, /*cap=*/8, Fault::kNone,
            TransferMode::kPrecopy, /*pipelined=*/true, /*freeze_aware=*/false,
            /*traced=*/true, &trace_json);
  std::printf("tracing overhead: traced wall %.6fs vs untraced %.6fs "
              "(virtual-time delta %+lld ns); %zu bytes of Chrome trace "
              "JSON\n",
              to_seconds(traced.wall), to_seconds(precopy_cap8.wall),
              static_cast<long long>((traced.wall - precopy_cap8.wall).count()),
              trace_json.size());
  json.begin_row()
      .field("comparison", std::string("tracing_overhead"))
      .field("cap", static_cast<uint64_t>(8))
      .field("untraced_wall_seconds", to_seconds(precopy_cap8.wall))
      .field("traced_wall_seconds", to_seconds(traced.wall))
      .field("wall_delta_ns",
             static_cast<uint64_t>(
                 std::llabs((traced.wall - precopy_cap8.wall).count())))
      .field("trace_json_bytes", static_cast<uint64_t>(trace_json.size()))
      .field("succeeded", static_cast<uint64_t>(traced.report.succeeded()))
      .field("failed", static_cast<uint64_t>(traced.report.failed()));
  // CI gate: zero overhead IN VIRTUAL TIME, exactly.  The recorder reads
  // the clock and never advances it or draws randomness, so the traced
  // run must reproduce the untraced wall bit-for-bit; any drift means an
  // instrumentation site perturbed the simulation.
  if (traced.wall != precopy_cap8.wall || traced.report.failed() != 0) {
    std::printf("GATE FAILED: traced wall %lld ns != untraced wall %lld ns "
                "(or traced run had failures) — tracing must not perturb "
                "virtual time\n",
                static_cast<long long>(traced.wall.count()),
                static_cast<long long>(precopy_cap8.wall.count()));
    std::exit(1);
  }
  if (trace_json.empty() ||
      !write_text_file("TRACE_fleet_drain.json", trace_json) ||
      !write_text_file("TRACE_REPORT_fleet_drain.json",
                       traced.report.to_json(/*include_events=*/true))) {
    std::printf("FAILED to write TRACE_fleet_drain.json artifacts\n");
    std::exit(1);
  }

  std::printf(
      "\nexpected shape: blocking wall time grows ~linearly with the fleet\n"
      "and is FLAT in the cap (the source ME serializes transfers, knee=1);\n"
      "the pipelined engine (* rows) moves the knee off 1 — wall time drops\n"
      "with the cap until the source machine's serial work dominates.\n"
      "Freeze-aware rows (**) keep the mean freeze window nearly flat in\n"
      "the cap (the queue wait moved into enqueue_wait) and replace most\n"
      "full ME<->ME handshakes with cached-session resumes.  The me-down\n"
      "row shows one retry per migration initially routed at the dead\n"
      "machine, the me-restart rows converge with zero failures from the\n"
      "durable transfer queue (including mid-pipeline TransferTasks), and\n"
      "the precopy rows freeze only for the final delta, below the\n"
      "full-snapshot rows.  Pipelining pre-copy buys wall time without\n"
      "costing freeze time: the pipelined (*) precopy rows freeze within\n"
      "1.5x of the blocking precopy rows.\n");
  if (!json.write_file("BENCH_fleet_drain.json")) {
    std::printf("FAILED to write BENCH_fleet_drain.json\n");
    std::exit(1);
  }
}

}  // namespace
}  // namespace sgxmig

int main() {
  sgxmig::run();
  return 0;
}
