// Orchestrator wave-driver tests: the driver and every structure it leans
// on must be exactly reproducible.
//   * driver pins — on pipelined, pre-copy and two ME-restart drains the
//     driver's OrchestratorReport JSON, virtual wall and work counters
//     (waves, task touches, pump kicks) match pinned values, task touches
//     stay far below a full scan's tasks x waves, the event log matches
//     a pinned rendering, and a traced rerun's orch.* transition
//     instants are that log one for one;
//   * placement-index determinism — the incrementally-updated index
//     (ledger reservations, region shards) picks the same destination as
//     the brute-force full scan (per-query reservation map) across
//     randomized fleets, exclusions, avoids and reservation churn, for
//     both indexed policies;
//   * event-log ring — a capped log retains exactly the newest events
//     and counts the dropped prefix;
//   * ME completed-history cap — long drains hold the exactly-once dedup
//     history flat, and the retained window still dedups (a lost migrate
//     reply resumes without a double transfer after the history cycled).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "chaos/chaos_executor.h"
#include "crypto/sha256.h"
#include "migration/migratable_enclave.h"
#include "migration/migration_enclave.h"
#include "orchestrator/fleet_builder.h"
#include "orchestrator/orchestrator.h"
#include "platform/world.h"

namespace sgxmig {
namespace {

using migration::InitState;
using migration::MigratableEnclave;
using migration::MigrationEnclave;
using migration::OutgoingState;
using orchestrator::DriverStats;
using orchestrator::FleetRegistry;
using orchestrator::Orchestrator;
using orchestrator::OrchestratorOptions;
using orchestrator::OrchestratorReport;
using orchestrator::PlacementPolicy;
using orchestrator::PlacementQuery;
using orchestrator::Plan;
using orchestrator::Scheduler;
using orchestrator::TransferMode;
using platform::World;
using sgx::EnclaveImage;

// ----- driver pins -----

struct DrainOutcome {
  std::string report_json;
  Duration wall{};
  DriverStats stats;
  size_t succeeded = 0;
  size_t failed = 0;
  /// One "t_ns enclave_id orch.<kind> detail" line per entry of the
  /// report's event log, and (traced runs) the same rendering of the
  /// trace's transition instants and the count of deferred finalizes.
  std::string event_log;
  std::string transitions;
  size_t await_destination = 0;
};

enum class DrainConfig {
  kPipelined,
  kPrecopy,
  kMeRestart,
  kFreezeAwareMeRestart,
};

constexpr uint64_t kDrainEnclaves = 16;

/// One 16-enclave drain of m0 across 3 destinations.  Worlds are rebuilt
/// per call with a per-config seed, so every run starts from the same
/// state.
DrainOutcome run_drain(DrainConfig config, bool traced = false) {
  const TransferMode mode = config == DrainConfig::kPrecopy
                                ? TransferMode::kPrecopy
                                : TransferMode::kFullSnapshot;
  World world(7801 + static_cast<int>(config));
  world.install_management_enclaves(migration::durable_me_factory(
      world.provider(), [mode](MigrationEnclave& me) {
        if (mode == TransferMode::kPrecopy) me.set_async_precopy(true);
      }));
  orchestrator::add_machines(world, 4);
  world.observability().set_enabled(traced);

  FleetRegistry fleet(world);
  orchestrator::AppSpec apps{.count = kDrainEnclaves, .prefix = "eq-app-"};
  apps.options.live_transfer = mode == TransferMode::kPrecopy;
  EXPECT_TRUE(orchestrator::launch_apps(fleet, apps).ok());

  Scheduler scheduler(fleet);
  OrchestratorOptions options;
  options.max_inflight_per_machine = 4;
  options.max_inflight_total = 6;
  options.max_attempts = 6;
  options.transfer_mode = mode;
  options.pipelined = true;
  options.freeze_aware = config == DrainConfig::kFreezeAwareMeRestart;
  Orchestrator orch(fleet, scheduler, options);
  if (config == DrainConfig::kFreezeAwareMeRestart) {
    // m0's ME dies after the first wave's admissions and comes back two
    // waves later.  The restart resumes its durable queue with no lane
    // traffic of its own, so only the hooked-run re-seed of the pump's
    // kick set wakes it that wave.
    orch.set_wave_hook([&world](uint32_t wave) {
      if (wave == 1) world.machine("m0")->kill_management_enclave();
      if (wave == 3) world.machine("m0")->restart_management_enclave();
    });
  }
  chaos::ChaosExecutor executor(
      world, chaos::crash_at_completion({"m0"}, /*completion=*/2,
                                        /*revive_after_waves=*/3));
  if (config == DrainConfig::kMeRestart) executor.arm(orch);

  DrainOutcome outcome;
  const Duration t0 = world.clock().now();
  const OrchestratorReport report = orch.execute(Plan::drain("m0"));
  outcome.wall = world.clock().now() - t0;
  outcome.report_json = report.to_json();
  outcome.stats = orch.last_driver_stats();
  outcome.succeeded = report.succeeded();
  outcome.failed = report.failed();
  for (const orchestrator::OrchestratorEvent& event : report.events) {
    outcome.event_log += std::to_string(event.at.count()) + " " +
                         std::to_string(event.enclave_id) + " " +
                         orchestrator::event_kind_name(event.kind) + " " +
                         event.detail + "\n";
  }
  for (const obs::TraceInstant& instant :
       world.observability().trace.instants()) {
    if (instant.name == "orch.await_destination") {
      ++outcome.await_destination;
    } else if (instant.name.rfind("orch.", 0) == 0) {
      outcome.transitions += std::to_string(instant.at.count()) + " " +
                             instant.args.at(0).second + " " + instant.name +
                             " " + instant.args.at(1).second + "\n";
    }
  }
  return outcome;
}

struct DrainPin {
  DrainConfig config;
  int64_t wall_ns;
  uint64_t waves;
  uint64_t task_touches;
  uint64_t pump_kicks;
  const char* report_sha256;  // of report.to_json()
  const char* event_log_sha256;  // of DrainOutcome::event_log
  size_t await_destination;
};

// Recorded while this driver was still checked bit-for-bit against a
// full scan of every task and machine each wave, so the pins carry the
// full scan's visit order: any change to what a wave visits, or in what
// order, shows up here as a diff.  The two ME-restart pins were
// re-recorded when pipelined retries moved to the lane clock (backoff on
// the source lane, retries behind their source's first attempts).  The
// pre-copy pin was re-recorded when the finalize started retiring the
// source's counters inside the freeze (25 ms) instead of incrementing the
// epoch guard (160 ms) and retiring after the accept, and converged
// rounds stopped finalizing toward a destination lane still busy with
// another restore: the freezes shrink, two tasks ship one more round
// each, and the drain takes one more wave (two more touches, two pump
// kicks) for a shorter wall.  It was re-recorded again when the pre-copy
// freeze lost two of its four disk fences (the freeze-flag write after
// the guard retire, and the source ME's persist of the staged finalize):
// each freeze ends 40 ms sooner, with the same waves, touches and kicks.
// All four report digests were re-recorded when the report lost its two
// freeze-budget keys; walls, waves, touches and kicks stayed.  The
// pre-copy pin was re-recorded once more when the source ME's fence moved
// from after the destination's ack to the finalize's ship, where it
// overlaps the destination's fence, and the durable pre-copy task lost
// its channel: each freeze ends ~20 ms sooner, the wall falls 81 ms, and
// waves, touches and kicks stay.  The finalize record's one-byte resumed
// flag then added 8 ns of wire time to that wall; nothing else moved.
// It was re-recorded when async pre-copy rounds stopped writing the source
// ME's queue: m0 writes 32 queue fences instead of 50 (two per move, the
// finalize record and the DONE erase), 360.4 ms less lane time, and the
// wall falls 163.6 ms; waves, touches and kicks stay.
// When the report JSON lost its "events" section (the transitions are
// also trace instants), the report digests were re-pinned to the bytes
// the earlier report wrote without events, and the event log got a
// digest of its own.
// The pre-copy pin was re-recorded when a task facing a busy destination
// lane stopped shipping another round per wave and instead waits for that
// lane's end: its apps hold one counter, so round 0 converges and nothing
// warms up, and the two waits (still two orch.await_destination instants)
// no longer ship a round each, so m0's lane runs two library exchanges
// fewer and its ME two pump kicks fewer (2 -> 0).  The wall falls
// 221.7 ms; waves and touches stay.
constexpr DrainPin kDrainPins[] = {
    {DrainConfig::kPipelined, 8568586627, 4, 48, 4,
     "c5720a13079c772471e05b0c2dc799e07b9ee970421108e1b5db83a108ac5149",
     "2db19406ef43c09e52fc72aff269c50d73d66382d947a41689d1816c8e9a30d3", 0},
    {DrainConfig::kPrecopy, 5603974344, 5, 50, 0,
     "80abffa42366a7b1b284b80c9c4e07bcca358660d965cd18b61c284185071d4a",
     "a0f03302dc07d94447fee3fda70fd31121dc69eff3b4770b6717369955c7fe0d", 2},
    {DrainConfig::kMeRestart, 8633161061, 6, 60, 4,
     "7d9a00c5307c754b20af0093ce58d311d5faaa6e19940e09a89fbd66cce5b12a",
     "f4e583e9eab9df59e5d7cc9a7f7633879045d5ede3d8ea25b5b7169055269d87", 0},
    {DrainConfig::kFreezeAwareMeRestart, 7991848204, 12, 74, 10,
     "63896a5328acd32911dd7e47fc6a9c22d003ac7176f70aaa1b316eb9eaeb4c37",
     "e8f8ff37eb70e5de74439223aca8fc7c0b3a658ec34e6fc93e66e200864082be", 0},
};

void PrintTo(const DrainPin& pin, std::ostream* os) {
  *os << "DrainConfig " << static_cast<int>(pin.config);
}

class DriverPins : public ::testing::TestWithParam<DrainPin> {};

TEST_P(DriverPins, ReportWallAndDriverWorkMatchPins) {
  const DrainPin& pin = GetParam();
  const DrainOutcome outcome = run_drain(pin.config);
  EXPECT_EQ(outcome.succeeded, kDrainEnclaves);
  EXPECT_EQ(outcome.failed, 0u);
  EXPECT_EQ(outcome.wall.count(), pin.wall_ns);
  EXPECT_EQ(outcome.stats.waves, pin.waves);
  EXPECT_EQ(outcome.stats.task_touches, pin.task_touches);
  EXPECT_EQ(outcome.stats.pump_kicks, pin.pump_kicks);
  EXPECT_EQ(hex_encode(crypto::Sha256::hash(to_bytes(outcome.report_json))),
            pin.report_sha256);
  EXPECT_EQ(hex_encode(crypto::Sha256::hash(to_bytes(outcome.event_log))),
            pin.event_log_sha256);
  // A full scan visits every task every wave; this driver visits only
  // tasks whose lane fired or whose retry ripened.
  EXPECT_LT(outcome.stats.task_touches, kDrainEnclaves * outcome.stats.waves);

  // Tracing observes the same run: the report and its event log are
  // byte-identical, and the transition instants are that log, one for
  // one.
  const DrainOutcome traced = run_drain(pin.config, /*traced=*/true);
  EXPECT_EQ(traced.report_json, outcome.report_json);
  EXPECT_EQ(traced.wall, outcome.wall);
  EXPECT_EQ(traced.event_log, outcome.event_log);
  EXPECT_EQ(traced.transitions, outcome.event_log);
  EXPECT_TRUE(outcome.transitions.empty());
  EXPECT_EQ(traced.await_destination, pin.await_destination);
}

INSTANTIATE_TEST_SUITE_P(Configs, DriverPins, ::testing::ValuesIn(kDrainPins));

// ----- placement-index determinism -----

/// Deterministic splitmix64 — fleets and queries must reproduce per seed
/// (simlint forbids wall-clock-seeded RNGs repo-wide).
uint64_t splitmix(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

class PlacementIndexDeterminism : public ::testing::Test {
 protected:
  /// 18 machines over 5 regions with mixed core counts and an uneven
  /// resident-enclave spread.
  void build_fleet(uint64_t seed) {
    rng_ = seed;
    for (int i = 0; i < 18; ++i) {
      world_.add_machine(std::string("m").append(std::to_string(i)),
                         std::string("r").append(std::to_string(i % 5)),
                         /*cpu_cores=*/8u << (i % 3));
    }
    fleet_ = std::make_unique<FleetRegistry>(world_);
    for (int i = 0; i < 40; ++i) {
      const std::string host = random_machine();
      const std::string name = "ix-app-" + std::to_string(i);
      ASSERT_TRUE(fleet_
                      ->launch(host, name,
                               EnclaveImage::create(name, 1, "acme"), {})
                      .ok());
    }
  }

  /// One of the 18 machines, drawn from the fleet's stream.
  std::string random_machine() {
    return std::string("m").append(std::to_string(splitmix(rng_) % 18));
  }

  PlacementQuery random_query() {
    PlacementQuery query;
    query.source = random_machine();
    for (int i = 0; i < 3; ++i) {
      if (splitmix(rng_) % 3 == 0) {
        query.excluded.push_back(random_machine());
      }
    }
    if (splitmix(rng_) % 4 == 0) {
      query.excluded_regions.push_back(
          std::string("r").append(std::to_string(splitmix(rng_) % 5)));
    }
    if (splitmix(rng_) % 3 == 0) {
      query.avoid.push_back(random_machine());
    }
    return query;
  }

  void expect_identical_picks(std::unique_ptr<PlacementPolicy> policy,
                              uint64_t seed) {
    build_fleet(seed);
    Scheduler scheduler(*fleet_, std::move(policy));
    ASSERT_TRUE(scheduler.index_active());
    std::map<std::string, uint32_t> ledger;
    for (int round = 0; round < 200; ++round) {
      // Churn the reservation ledger: add one, sometimes release one.
      const std::string reserve_on = random_machine();
      scheduler.note_reservation(reserve_on, +1);
      ledger[reserve_on] += 1;
      if (splitmix(rng_) % 2 == 0 && !ledger.empty()) {
        auto it = ledger.begin();
        std::advance(it, splitmix(rng_) % ledger.size());
        scheduler.note_reservation(it->first, -1);
        if (--it->second == 0) ledger.erase(it);
      }

      const PlacementQuery query = random_query();
      const auto indexed = scheduler.pick_destination(query);
      const auto brute = scheduler.rank_destinations(query);
      ASSERT_EQ(indexed.ok(), !brute.empty()) << "round " << round;
      if (indexed.ok()) {
        EXPECT_EQ(indexed.value(), brute.front()) << "round " << round;
      } else {
        EXPECT_EQ(indexed.status(), Status::kNoEligibleDestination) << round;
      }
    }
  }

  World world_{/*seed=*/6001};
  std::unique_ptr<FleetRegistry> fleet_;
  uint64_t rng_ = 0;
};

TEST_F(PlacementIndexDeterminism, LeastLoadedMatchesBruteForce) {
  expect_identical_picks(orchestrator::make_least_loaded_policy(), 11);
}

TEST_F(PlacementIndexDeterminism, HierarchicalMatchesBruteForce) {
  expect_identical_picks(orchestrator::make_hierarchical_policy(), 12);
}

// Scheduler(fleet), the path precopy_live and the bench drains take:
// least-loaded through the index.
TEST_F(PlacementIndexDeterminism, DefaultSchedulerIsIndexedLeastLoaded) {
  expect_identical_picks(nullptr, 13);
  const Scheduler scheduler(*fleet_);
  EXPECT_STREQ(scheduler.policy().name(), "least-loaded");
  EXPECT_TRUE(scheduler.index_active());
}

// ----- event-log ring -----

OrchestratorReport ring_drain(size_t event_log_limit) {
  World world(7901);
  world.install_management_enclaves(
      migration::durable_me_factory(world.provider()));
  orchestrator::add_machines(world, 3);
  FleetRegistry fleet(world);
  EXPECT_TRUE(orchestrator::launch_apps(
                  fleet, {.count = 8, .prefix = "ring-app-", .counters = 0})
                  .ok());
  Scheduler scheduler(fleet);
  OrchestratorOptions options;
  options.pipelined = true;
  options.event_log_limit = event_log_limit;
  Orchestrator orch(fleet, scheduler, options);
  return orch.execute(Plan::drain("m0"));
}

TEST(EventLogRing, CapRetainsNewestAndCountsDropped) {
  const OrchestratorReport full = ring_drain(/*event_log_limit=*/0);
  ASSERT_EQ(full.failed(), 0u);
  ASSERT_GT(full.events.size(), 5u);
  EXPECT_EQ(full.events_dropped, 0u);

  const OrchestratorReport capped = ring_drain(/*event_log_limit=*/5);
  ASSERT_EQ(capped.events.size(), 5u);
  EXPECT_EQ(capped.events_dropped, full.events.size() - 5u);
  // The ring drops the OLDEST entries: the retained window is exactly the
  // uncapped log's tail.
  const size_t offset = full.events.size() - 5;
  for (size_t i = 0; i < 5; ++i) {
    const auto& kept = capped.events[i];
    const auto& original = full.events[offset + i];
    EXPECT_EQ(kept.at, original.at) << "retained event " << i;
    EXPECT_EQ(kept.enclave_id, original.enclave_id) << "retained event " << i;
    EXPECT_EQ(kept.kind, original.kind) << "retained event " << i;
    EXPECT_EQ(kept.detail, original.detail) << "retained event " << i;
  }
}

// ----- ME completed-history cap -----

class MeHistoryCap : public ::testing::Test {
 protected:
  MeHistoryCap() {
    world_.install_management_enclaves(
        migration::durable_me_factory(world_.provider()));
  }
  MigrationEnclave* me(const std::string& address) {
    return migration::me_on(*world_.machine(address));
  }
  World world_{/*seed=*/7777};
};

TEST_F(MeHistoryCap, LongDrainHoldsHistoryFlat) {
  const size_t kCap = 4;
  world_.install_management_enclaves(migration::durable_me_factory(
      world_.provider(),
      [](MigrationEnclave& me) { me.set_completed_history_limit(kCap); }));
  orchestrator::add_machines(world_, 4);
  FleetRegistry fleet(world_);
  ASSERT_TRUE(orchestrator::launch_apps(
                  fleet, {.count = 24, .prefix = "flat-app-", .counters = 0})
                  .ok());
  Scheduler scheduler(fleet);
  OrchestratorOptions options;
  options.pipelined = true;
  Orchestrator orch(fleet, scheduler, options);
  const OrchestratorReport report = orch.execute(Plan::drain("m0"));
  EXPECT_EQ(report.succeeded(), 24u);
  EXPECT_EQ(report.failed(), 0u);
  // 24 completed outgoing transfers on m0, 24 confirmed incoming spread
  // over the destinations — both dedup histories stay at the cap instead
  // of growing with the drain.
  for (platform::Machine* m : world_.machines()) {
    auto* management = migration::me_on(*m);
    EXPECT_LE(management->completed_history_size(), kCap) << m->address();
    EXPECT_LE(management->confirmed_incoming_size(), kCap) << m->address();
  }
  EXPECT_GT(me("m0")->completed_history_size(), 0u);
}

TEST_F(MeHistoryCap, RetainedWindowStillDedupsLostReply) {
  world_.add_machine("m0");
  world_.add_machine("m1");
  me("m0")->set_completed_history_limit(2);
  me("m1")->set_completed_history_limit(2);

  auto image = EnclaveImage::create("cap-app", 1, "acme");
  auto make_app = [&](platform::Machine& m,
                      std::shared_ptr<const EnclaveImage> img) {
    auto enclave = std::make_unique<MigratableEnclave>(m, img);
    enclave->set_persist_callback(
        [&m, img](ByteView s) { m.storage().put(img->name(), s); });
    return enclave;
  };

  // Cycle the history past the cap with three complete migrations first,
  // so the upcoming nonce lives in a TRIMMED window.
  for (int i = 0; i < 3; ++i) {
    auto filler_image =
        EnclaveImage::create("cap-filler-" + std::to_string(i), 1, "acme");
    auto filler = make_app(*world_.machine("m0"), filler_image);
    ASSERT_EQ(filler->ecall_migration_init(ByteView(), InitState::kNew, "m0"),
              Status::kOk);
    ASSERT_EQ(filler->ecall_migration_start("m1"), Status::kOk);
    filler.reset();
    auto moved = make_app(*world_.machine("m1"), filler_image);
    ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate,
                                          "m1"),
              Status::kOk);
  }
  EXPECT_LE(me("m0")->completed_history_size(), 2u);

  // Now the lost-reply scenario: the migrate request is processed but the
  // library never hears the reply; the nonce-scoped re-query must find
  // the staged attempt in the retained window — exactly one transfer.
  auto enclave = make_app(*world_.machine("m0"), image);
  ASSERT_EQ(enclave->ecall_migration_init(ByteView(), InitState::kNew, "m0"),
            Status::kOk);
  const uint32_t counter =
      enclave->ecall_create_migratable_counter().value().counter_id;
  enclave->ecall_increment_migratable_counter(counter);
  ASSERT_TRUE(enclave->ecall_query_migration_status().ok());
  bool dropped = false;
  world_.network().set_response_tamper_hook(
      [&](const std::string& to, Bytes&) {
        if (to == "m0/me" && !dropped) {
          dropped = true;
          return false;
        }
        return true;
      });
  EXPECT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
  world_.network().clear_response_tamper_hook();
  EXPECT_TRUE(dropped);
  EXPECT_EQ(me("m0")->outgoing_count(), 1u);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);

  enclave.reset();
  auto moved = make_app(*world_.machine("m1"), image);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(moved->ecall_read_migratable_counter(counter).value(), 1u);
  EXPECT_EQ(me("m0")->outgoing_state(image->mr_enclave()),
            OutgoingState::kCompleted);
}

}  // namespace
}  // namespace sgxmig
