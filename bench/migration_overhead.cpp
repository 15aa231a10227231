// Reproduces the §VII-B migration-overhead measurement and extends it
// with the freeze-window matrix for live pre-copy migration.
//
//   "We migrated an enclave 1000 times and calculated the average time of
//    one migration.  The extra time for local attestation, communicating
//    with ME and sending over the sealed data is 0.47 (±0.035) seconds.
//    Since migrating the VM usually takes in the order of seconds, the
//    overhead of migrating an enclave is small by comparison."
//
// Sections:
//   (a) the paper's 1000-trial protocol-time measurement (unchanged);
//   (b) freeze window vs. Table II state size and live dirty rate,
//       full-snapshot vs. iterative pre-copy — the full-snapshot freeze
//       pays one read + one destroy per active counter, while pre-copy
//       finalize ships only the last dirty delta and retires every
//       counter in one constant-time PSE op;
//   (c) a plain 2 GiB VM live migration for scale.
//
// Emits BENCH_migration_overhead.json (paper series + freeze matrix) and
// EXITS NON-ZERO if the pre-copy freeze window at the largest benched
// state is not at least 5x smaller than the full-snapshot baseline — the
// CI bench-smoke regression gate for the pre-copy headline number — or if
// a paper-comparable blocking number leaves its anchor: the (a) rows at
// 120 or 1000 trials and the full-snapshot (b) rows must
// reproduce the recorded values to the printed precision (6 decimals).
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "migration/migratable_enclave.h"
#include "migration/migration_enclave.h"
#include "platform/world.h"
#include "vm/live_migration.h"

namespace sgxmig {
namespace {

using migration::InitState;
using migration::MigratableEnclave;
using migration::MigrationEnclave;

constexpr double kRequiredFreezeShrink = 5.0;

// ----- virtual-time anchors for the blocking start (paper Listing 1) ----
//
// The simulation is deterministic, so these numbers move only when the
// blocking protocol's pricing moves.  A change that means to keep it (a
// refactor of the ME's outgoing engine, say) must reproduce them; one
// that means to change it re-records them here with the reason.

struct PaperAnchor {
  int trials;
  const char* metric;
  double mean_seconds;
  double ci99_half_seconds;
};
constexpr PaperAnchor kPaperAnchors[] = {
    {120, "source_side", 0.365871, 0.004876},
    {120, "destination_side", 0.273703, 0.002424},
    {120, "end_to_end", 0.639574, 0.005482},
    {1000, "source_side", 0.364375, 0.001044},
    {1000, "destination_side", 0.273032, 0.000799},
    {1000, "end_to_end", 0.637407, 0.001333},
};

// Full-snapshot freeze_matrix rows (dirty_per_round 8).
struct FreezeAnchor {
  int counters;
  double freeze_seconds;
  double protocol_seconds;
  double restore_seconds;
  uint64_t transfer_bytes;
};
constexpr FreezeAnchor kFullSnapshotAnchors[] = {
    {8, 2.876179, 2.877475, 2.012015, 1347},
    {64, 22.149525, 22.150808, 15.936012, 1347},
    {240, 82.061227, 82.062473, 60.489005, 1347},
};

int g_anchor_misses = 0;

/// Compares `value` with `anchor` at the JSON rows' printed precision.
void check_anchor(const std::string& what, double value, double anchor) {
  char got[32];
  char want[32];
  std::snprintf(got, sizeof(got), "%.6f", value);
  std::snprintf(want, sizeof(want), "%.6f", anchor);
  if (std::string(got) == want) return;
  std::printf("ANCHOR MISS: %s = %s, anchored at %s\n", what.c_str(), got,
              want);
  ++g_anchor_misses;
}

void run_paper_section(bench::JsonBench& json, int trials) {
  platform::World world(/*seed=*/20180603);
  auto& m0 = world.add_machine("m0");
  auto& m1 = world.add_machine("m1");
  MigrationEnclave me0(m0, MigrationEnclave::standard_image(),
                       world.provider());
  MigrationEnclave me1(m1, MigrationEnclave::standard_image(),
                       world.provider());
  const auto image = sgx::EnclaveImage::create("bench-app", 1, "bench");
  const auto& clock = world.clock();

  std::vector<double> outgoing, incoming, total;
  outgoing.reserve(static_cast<size_t>(trials));

  platform::Machine* src = &m0;
  platform::Machine* dst = &m1;
  for (int i = 0; i < trials; ++i) {
    auto enclave = std::make_unique<MigratableEnclave>(*src, image);
    enclave->set_persist_callback([src](ByteView state) {
      src->storage().put("bench.mlstate", state);
    });
    enclave->ecall_migration_init(ByteView(), InitState::kNew, src->address());
    // One active counter and some sealed data, as a realistic enclave
    // would have (the paper's enclaves persist at least once).
    enclave->ecall_create_migratable_counter();
    enclave->ecall_seal_migratable_data(
        ByteView(), Bytes(4096, static_cast<uint8_t>(i)));

    const Duration t0 = clock.now();
    const Status status = enclave->ecall_migration_start(dst->address());
    const Duration t1 = clock.now();
    if (status != Status::kOk) {
      std::printf("migration failed: %s\n",
                  std::string(status_name(status)).c_str());
      std::exit(1);
    }
    enclave.reset();
    auto moved = std::make_unique<MigratableEnclave>(*dst, image);
    moved->set_persist_callback([dst](ByteView state) {
      dst->storage().put("bench.mlstate", state);
    });
    moved->ecall_migration_init(ByteView(), InitState::kMigrate,
                                dst->address());
    const Duration t2 = clock.now();

    outgoing.push_back(to_seconds(t1 - t0));
    incoming.push_back(to_seconds(t2 - t1));
    total.push_back(to_seconds(t2 - t0));
    // Clean up the destination instance so the next trial starts fresh
    // (the migratable counter would otherwise accumulate).
    moved->ecall_destroy_migratable_counter(0);
    moved.reset();
    dst->storage().remove("bench.mlstate");
    std::swap(src, dst);  // alternate directions, as repeated migration would
  }

  const Summary out = summarize(outgoing);
  const Summary in = summarize(incoming);
  const Summary tot = summarize(total);

  std::printf("\n================================================================\n");
  std::printf("§VII-B — enclave migration overhead (%d migrations)\n", trials);
  std::printf("================================================================\n");
  std::printf("%-44s %9.3f ± %.3f s\n",
              "source side (LA + destroy counters + RA + transfer):", out.mean,
              out.ci99_half);
  std::printf("%-44s %9.3f ± %.3f s\n",
              "destination side (LA + fetch + recreate counters):", in.mean,
              in.ci99_half);
  std::printf("%-44s %9.3f ± %.3f s\n", "end to end:", tot.mean, tot.ci99_half);
  std::printf("\npaper reports: 0.47 (±0.035) s for the source-side overhead\n");

  const auto paper_row = [&](const char* metric, const Summary& s) {
    json.begin_row()
        .field("section", std::string("paper_vii_b"))
        .field("metric", std::string(metric))
        .field("mean_seconds", s.mean)
        .field("ci99_half_seconds", s.ci99_half)
        .field("trials", static_cast<uint64_t>(trials));
  };
  paper_row("source_side", out);
  paper_row("destination_side", in);
  paper_row("end_to_end", tot);
  for (const PaperAnchor& anchor : kPaperAnchors) {
    if (anchor.trials != trials) continue;
    const std::string metric = anchor.metric;
    const Summary& s = metric == "source_side"        ? out
                       : metric == "destination_side" ? in
                                                      : tot;
    check_anchor("paper_vii_b " + metric + " mean", s.mean,
                 anchor.mean_seconds);
    check_anchor("paper_vii_b " + metric + " ci99_half", s.ci99_half,
                 anchor.ci99_half_seconds);
  }

  // --- scale: plain VM migration of a 2 GiB guest ---
  vm::Hypervisor hv0(m0), hv1(m1);
  hv0.create_vm("guest", 2ull << 30, 50e6);
  vm::LiveMigrationEngine engine(world);
  const auto vm_report = engine.migrate(hv0, hv1, "guest").value();
  std::printf("\nVM live migration of a 2 GiB guest (no enclaves): %.2f s "
              "(downtime %.0f ms, %d pre-copy rounds)\n",
              to_seconds(vm_report.total_time),
              to_seconds(vm_report.downtime) * 1000.0,
              vm_report.precopy_rounds);
  std::printf("enclave overhead / VM migration time = %.2fx\n",
              out.mean / to_seconds(vm_report.total_time));
}

// ----- freeze-window matrix: state size x dirty rate x mode -------------

struct FreezeResult {
  double freeze_seconds = 0.0;    // source freeze -> transfer accepted
  double protocol_seconds = 0.0;  // first round -> transfer accepted
  double restore_seconds = 0.0;   // destination init(kMigrate)
  uint64_t transfer_bytes = 0;
  uint32_t rounds = 0;
};

/// Runs one migration of an enclave with `counters` active counters under
/// a live workload that increments `dirty_per_round` counters between
/// pre-copy rounds (full-snapshot mode has no between-round window; its
/// workload happened before the freeze by construction).
FreezeResult run_freeze_case(bool precopy, int counters,
                             int dirty_per_round) {
  platform::World world(/*seed=*/7100 + counters + (precopy ? 1 : 0) +
                        dirty_per_round);
  auto& m0 = world.add_machine("m0");
  auto& m1 = world.add_machine("m1");
  MigrationEnclave me0(m0, MigrationEnclave::standard_image(),
                       world.provider());
  MigrationEnclave me1(m1, MigrationEnclave::standard_image(),
                       world.provider());
  const auto image = sgx::EnclaveImage::create("freeze-app", 1, "bench");
  const auto& clock = world.clock();

  // Pre-copy enclaves carry the epoch guard; the full-snapshot baseline
  // runs the exact paper configuration.
  auto enclave = std::make_unique<MigratableEnclave>(
      m0, image, /*live_transfer_capable=*/precopy);
  enclave->set_persist_callback(
      [&m0](ByteView state) { m0.storage().put("freeze.ml", state); });
  enclave->ecall_migration_init(ByteView(), InitState::kNew, "m0");
  for (int i = 0; i < counters; ++i) {
    enclave->ecall_create_migratable_counter();
  }
  // Warm values: every counter has been incremented at least once.
  for (int i = 0; i < counters; ++i) {
    enclave->ecall_increment_migratable_counter(static_cast<uint32_t>(i));
  }
  // The anchored rows were recorded with one more (no-op) ECALL here: its
  // two transitions are two jittered charges on m0's clock and RNG stream.
  // Replaying them keeps every row's virtual time and random draws.
  m0.charge(m0.costs().ecall);
  m0.charge(m0.costs().ecall);

  FreezeResult result;
  const Duration protocol_start = clock.now();
  uint32_t workload_cursor = 0;
  const auto live_mutations = [&] {
    // Stride across the counter array so the dirty set spans chunks, the
    // way independent hot counters would.
    for (int d = 0; d < dirty_per_round; ++d) {
      const uint32_t id = (workload_cursor++ * 17u) %
                          static_cast<uint32_t>(counters);
      enclave->ecall_increment_migratable_counter(id);
    }
  };

  if (precopy) {
    while (true) {
      auto round = enclave->ecall_migration_precopy_round("m1");
      if (!round.ok()) {
        std::printf("pre-copy round failed: %s\n",
                    std::string(status_name(round.status())).c_str());
        std::exit(1);
      }
      live_mutations();  // the enclave is NOT frozen between rounds
      if (round.value().converged()) break;
    }
    const auto fin = enclave->ecall_migration_finalize_detailed("m1");
    if (!fin.ok()) {
      std::printf("finalize failed: %s\n", fin.message.c_str());
      std::exit(1);
    }
  } else {
    const Status status = enclave->ecall_migration_start("m1");
    if (status != Status::kOk) {
      std::printf("migration_start failed: %s\n",
                  std::string(status_name(status)).c_str());
      std::exit(1);
    }
  }
  result.protocol_seconds = to_seconds(clock.now() - protocol_start);
  result.freeze_seconds = to_seconds(enclave->last_freeze_window());
  result.transfer_bytes = enclave->last_transfer_bytes();
  result.rounds = enclave->last_precopy_rounds();
  enclave.reset();

  const Duration restore_start = clock.now();
  auto moved = std::make_unique<MigratableEnclave>(
      m1, image, /*live_transfer_capable=*/precopy);
  moved->set_persist_callback(
      [&m1](ByteView state) { m1.storage().put("freeze.ml", state); });
  const Status restored =
      moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1");
  if (restored != Status::kOk) {
    std::printf("destination restore failed: %s\n",
                std::string(status_name(restored)).c_str());
    std::exit(1);
  }
  result.restore_seconds = to_seconds(clock.now() - restore_start);
  return result;
}

void run_freeze_matrix(bench::JsonBench& json) {
  std::printf("\n================================================================\n");
  std::printf("Freeze window — full snapshot vs. live pre-copy\n");
  std::printf("(freeze = source freeze -> transfer accepted; live workload\n");
  std::printf(" increments `dirty` counters between pre-copy rounds)\n");
  std::printf("================================================================\n");
  std::printf("%-13s %9s %6s %11s %13s %7s %10s %11s\n", "mode", "counters",
              "dirty", "freeze [s]", "protocol [s]", "rounds", "bytes",
              "restore [s]");

  const int sizes[] = {8, 64, 240};
  const int kLargest = 240;
  const int dirty_rates[] = {2, 8, 32};
  const int kDefaultDirty = 8;
  // Every row persists synchronously; the field keeps the rows comparable
  // with artifacts of earlier runs.
  const std::string engine = "sync";

  const auto row = [&](bool precopy, int counters, int dirty) -> FreezeResult {
    const FreezeResult r = run_freeze_case(precopy, counters, dirty);
    std::printf("%-13s %9d %6d %11.3f %13.3f %7u %10llu %11.3f\n",
                precopy ? "precopy" : "full-snapshot", counters, dirty,
                r.freeze_seconds, r.protocol_seconds, r.rounds,
                static_cast<unsigned long long>(r.transfer_bytes),
                r.restore_seconds);
    json.begin_row()
        .field("section", std::string("freeze_matrix"))
        .field("engine", engine)
        .field("mode", std::string(precopy ? "precopy" : "full-snapshot"))
        .field("counters", counters)
        .field("dirty_per_round", dirty)
        .field("freeze_seconds", r.freeze_seconds)
        .field("protocol_seconds", r.protocol_seconds)
        .field("restore_seconds", r.restore_seconds)
        .field("rounds", static_cast<uint64_t>(r.rounds))
        .field("transfer_bytes", r.transfer_bytes);
    for (const FreezeAnchor& anchor : kFullSnapshotAnchors) {
      if (precopy || anchor.counters != counters || dirty != kDefaultDirty) {
        continue;
      }
      const std::string what =
          "freeze_matrix full-snapshot " + std::to_string(counters);
      check_anchor(what + " freeze", r.freeze_seconds, anchor.freeze_seconds);
      check_anchor(what + " protocol", r.protocol_seconds,
                   anchor.protocol_seconds);
      check_anchor(what + " restore", r.restore_seconds,
                   anchor.restore_seconds);
      check_anchor(what + " bytes", static_cast<double>(r.transfer_bytes),
                   static_cast<double>(anchor.transfer_bytes));
    }
    return r;
  };

  FreezeResult full_at_largest, precopy_at_largest;
  for (const int counters : sizes) {
    const FreezeResult full = row(/*precopy=*/false, counters, kDefaultDirty);
    const FreezeResult pre = row(/*precopy=*/true, counters, kDefaultDirty);
    if (counters == kLargest) {
      full_at_largest = full;
      precopy_at_largest = pre;
    }
  }
  for (const int dirty : dirty_rates) {
    if (dirty == kDefaultDirty) continue;
    row(/*precopy=*/true, kLargest, dirty);
  }
  const double ratio = precopy_at_largest.freeze_seconds > 0.0
                           ? full_at_largest.freeze_seconds /
                                 precopy_at_largest.freeze_seconds
                           : 1e12;
  std::printf("  -> freeze-window shrink at %d counters = %.1fx\n", kLargest,
              ratio);
  json.begin_row()
      .field("section", std::string("freeze_gate"))
      .field("engine", engine)
      .field("counters", kLargest)
      .field("full_freeze_seconds", full_at_largest.freeze_seconds)
      .field("precopy_freeze_seconds", precopy_at_largest.freeze_seconds)
      .field("shrink_factor", ratio);

  std::printf(
      "\nexpected shape: the full-snapshot freeze window grows with the\n"
      "active-counter count (one read + one 280ms destroy each), while\n"
      "pre-copy freezes only for the final dirty delta plus one counter\n"
      "retire — flat in state size, mildly rising with dirty rate.\n");
  if (ratio < kRequiredFreezeShrink) {
    std::printf(
        "REGRESSION: pre-copy freeze window only %.2fx smaller than the\n"
        "full-snapshot baseline at the largest state (need %.1fx)\n",
        ratio, kRequiredFreezeShrink);
    std::exit(1);
  }
}

void run(int trials) {
  bench::JsonBench json("migration_overhead");
  run_paper_section(json, trials);
  run_freeze_matrix(json);
  if (!json.write_file("BENCH_migration_overhead.json")) {
    std::printf("FAILED to write BENCH_migration_overhead.json\n");
    std::exit(1);
  }
  if (g_anchor_misses != 0) {
    std::printf("REGRESSION: %d blocking-start anchor value(s) moved\n",
                g_anchor_misses);
    std::exit(1);
  }
}

}  // namespace
}  // namespace sgxmig

int main(int argc, char** argv) {
  // The paper runs 1000 trials; the CI smoke invocation passes a smaller
  // count so the regression gate stays fast.
  int trials = 1000;
  if (argc > 1) trials = std::atoi(argv[1]);
  if (trials <= 0) trials = 1000;
  sgxmig::run(trials);
  return 0;
}
