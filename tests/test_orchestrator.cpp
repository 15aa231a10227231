// Fleet orchestrator tests: plan expansion, bounded parallelism, retry
// with destination re-selection, placement policies, structured failure
// classification, the report, and the orch.* trace instants that record
// every task transition.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "migration/migration_enclave.h"
#include "orchestrator/fleet_builder.h"
#include "orchestrator/orchestrator.h"

namespace sgxmig {
namespace {

using migration::MigrationEnclave;
using migration::MigrationFailureClass;
using orchestrator::FleetRegistry;
using orchestrator::LaunchOptions;
using orchestrator::Orchestrator;
using orchestrator::OrchestratorOptions;
using orchestrator::Plan;
using orchestrator::PlacementQuery;
using orchestrator::Scheduler;
using platform::World;
using sgx::EnclaveImage;

class OrchestratorTest : public ::testing::Test {
 protected:
  /// Machines m0..m(n-1); first `central` of them in eu-central, the rest
  /// in eu-west.  Every machine gets a Migration Enclave.
  void build_world(int machines, int central) {
    for (int i = 0; i < machines; ++i) {
      auto& m = world_.add_machine(std::string("m").append(std::to_string(i)),
                                   i < central ? "eu-central" : "eu-west");
      mes_.push_back(std::make_unique<MigrationEnclave>(
          m, MigrationEnclave::standard_image(), world_.provider()));
    }
  }

  /// Launches `count` enclaves on `machine`, each with one counter
  /// incremented (index + 1) times.
  std::vector<uint64_t> launch_fleet(const std::string& machine, int count,
                                     const LaunchOptions& options = {},
                                     const std::string& prefix = "app") {
    auto ids = orchestrator::launch_apps(
        fleet_, {.count = count,
                 .prefix = prefix + "-",
                 .hosts = {machine},
                 .options = options,
                 .increments = [](int i) { return i + 1u; }});
    EXPECT_TRUE(ids.ok());
    return ids.value_or({});
  }

  void expect_counters_survived(const std::vector<uint64_t>& ids) {
    for (size_t i = 0; i < ids.size(); ++i) {
      auto value = fleet_.enclave(ids[i])->ecall_read_migratable_counter(0);
      ASSERT_TRUE(value.ok()) << "enclave " << ids[i];
      EXPECT_EQ(value.value(), static_cast<uint32_t>(i + 1))
          << "enclave " << ids[i];
    }
  }

  World world_{/*seed=*/2026};
  std::vector<std::unique_ptr<MigrationEnclave>> mes_;
  FleetRegistry fleet_{world_};
};

// ----- acceptance: a big drain with bounded parallelism -----

TEST_F(OrchestratorTest, DrainsThirtyTwoEnclavesWithBoundedParallelism) {
  build_world(/*machines=*/5, /*central=*/5);
  const auto ids = launch_fleet("m0", 32);
  EXPECT_EQ(fleet_.count_on("m0"), 32u);

  Scheduler scheduler(fleet_);
  OrchestratorOptions options;
  options.max_inflight_per_machine = 4;
  options.max_inflight_total = 8;
  Orchestrator orch(fleet_, scheduler, options);
  const auto report = orch.execute(Plan::drain("m0"));

  EXPECT_EQ(report.succeeded(), 32u);
  EXPECT_EQ(report.failed(), 0u);
  EXPECT_EQ(report.total_retries(), 0u);
  // The caps were respected AND reached (parallelism is real).
  ASSERT_TRUE(report.peak_inflight_per_machine.count("m0"));
  EXPECT_EQ(report.peak_inflight_per_machine.at("m0"), 4u);
  EXPECT_LE(report.peak_inflight_total, 8u);
  // m0 is empty; the fleet spread over the four destinations.
  EXPECT_EQ(fleet_.count_on("m0"), 0u);
  for (const char* m : {"m1", "m2", "m3", "m4"}) {
    EXPECT_EQ(fleet_.count_on(m), 8u) << m;
  }
  expect_counters_survived(ids);
  // Every source-machine hardware counter was destroyed by the protocol.
  for (const uint64_t id : ids) {
    EXPECT_EQ(world_.machine("m0")->counter_service().count_for(
                  fleet_.find(id)->image->mr_enclave()),
              0u);
  }
}

TEST_F(OrchestratorTest, CapOfOneSerializesTheDrain) {
  build_world(/*machines=*/3, /*central=*/3);
  launch_fleet("m0", 6);
  Scheduler scheduler(fleet_);
  OrchestratorOptions options;
  options.max_inflight_per_machine = 1;
  Orchestrator orch(fleet_, scheduler, options);
  const auto report = orch.execute(Plan::drain("m0"));
  EXPECT_EQ(report.succeeded(), 6u);
  EXPECT_EQ(report.peak_inflight_total, 1u);
}

// ----- retry and destination re-selection -----

TEST_F(OrchestratorTest, DeadDestinationMeRetriesOntoAlternateMachine) {
  build_world(/*machines=*/4, /*central=*/4);
  const auto ids = launch_fleet("m0", 6);
  // The least-loaded tie-break would route everything at m1 first.
  world_.network().set_endpoint_down("m1/me", true);

  Scheduler scheduler(fleet_);
  Orchestrator orch(fleet_, scheduler, {});
  world_.observability().set_enabled(true);
  const auto report = orch.execute(Plan::drain("m0"));

  EXPECT_EQ(report.succeeded(), 6u);
  EXPECT_GT(report.total_retries(), 0u);
  EXPECT_EQ(fleet_.count_on("m0"), 0u);
  EXPECT_EQ(fleet_.count_on("m1"), 0u);  // nobody landed on the dead machine
  EXPECT_EQ(fleet_.count_on("m2") + fleet_.count_on("m3"), 6u);
  expect_counters_survived(ids);
  // The failures were classified retryable-network in the trace.
  bool saw_retryable_network = false;
  for (const obs::TraceInstant& instant :
       world_.observability().trace.instants()) {
    if (instant.name == "orch.start_failed" &&
        instant.args.at(1).second.find("retryable-network") !=
            std::string::npos) {
      saw_retryable_network = true;
    }
  }
  EXPECT_TRUE(saw_retryable_network);
}

// The C++ twin of trace_check.py's ledger invariant, on a pipelined drain
// around the dead m1/me: each enclave's orch.* instants run planned ->
// admitted -> (start_failed -> backoff -> admitted)* -> start_ok ->
// restored -> done, and its admitted count equals its report attempts.
TEST_F(OrchestratorTest, TransitionInstantsFollowEachTaskLifecycle) {
  build_world(/*machines=*/4, /*central=*/4);
  launch_fleet("m0", 6);
  world_.network().set_endpoint_down("m1/me", true);

  Scheduler scheduler(fleet_);
  OrchestratorOptions options;
  options.pipelined = true;
  Orchestrator orch(fleet_, scheduler, options);
  world_.observability().set_enabled(true);
  const auto report = orch.execute(Plan::drain("m0"));
  ASSERT_EQ(report.succeeded(), 6u);
  ASSERT_GT(report.total_retries(), 0u);

  std::map<uint64_t, std::vector<std::string>> kinds;
  for (const obs::TraceInstant& instant :
       world_.observability().trace.instants()) {
    if (instant.name.rfind("orch.", 0) != 0) continue;
    EXPECT_EQ(instant.lane, "");
    ASSERT_EQ(instant.args.at(0).first, "enclave_id");
    ASSERT_EQ(instant.args.at(1).first, "detail");
    kinds[std::stoull(instant.args[0].second)].push_back(instant.name);
  }
  ASSERT_EQ(kinds.size(), report.migrations.size());
  for (const auto& m : report.migrations) {
    SCOPED_TRACE(m.name);
    const std::vector<std::string>& seq = kinds[m.enclave_id];
    ASSERT_GE(seq.size(), 5u);
    EXPECT_EQ(seq[0], "orch.planned");
    EXPECT_EQ(seq[1], "orch.admitted");
    size_t i = 2;
    uint32_t admitted = 1;
    while (i + 2 < seq.size() && seq[i] == "orch.start_failed") {
      EXPECT_EQ(seq[i + 1], "orch.backoff");
      EXPECT_EQ(seq[i + 2], "orch.admitted");
      i += 3;
      ++admitted;
    }
    EXPECT_EQ(std::vector<std::string>(seq.begin() + i, seq.end()),
              (std::vector<std::string>{"orch.start_ok", "orch.restored",
                                        "orch.done"}));
    EXPECT_EQ(admitted, m.attempts);
  }
}

TEST_F(OrchestratorTest, PolicyDenialTriesEachDestinationAtMostOnce) {
  build_world(/*machines=*/3, /*central=*/3);
  LaunchOptions options;
  options.policy.allowed_regions = {"mars"};  // no machine qualifies
  const auto ids = launch_fleet("m0", 1, options);

  Scheduler scheduler(fleet_);
  OrchestratorOptions orch_options;
  orch_options.max_attempts = 8;
  Orchestrator orch(fleet_, scheduler, orch_options);
  const auto report = orch.execute(Plan::drain("m0"));

  ASSERT_EQ(report.migrations.size(), 1u);
  EXPECT_FALSE(report.migrations[0].success);
  // Each denied destination is hard-excluded: one attempt per machine
  // (m1, m2), then the task fails for lack of eligible destinations —
  // never a blind retry against a machine whose certified attributes
  // already failed the policy.
  EXPECT_EQ(report.migrations[0].attempts, 2u);
  EXPECT_EQ(report.migrations[0].final_status,
            Status::kNoEligibleDestination);
  // The enclave stays registered on the source (frozen, but not lost).
  EXPECT_EQ(fleet_.find(ids[0])->machine, "m0");
}

TEST_F(OrchestratorTest, PolicyDenialReroutesToAnEligibleRegion) {
  // The least-loaded scheduler knows nothing about migration policies:
  // its first pick (same-region m1) is denied by the source ME.  The
  // orchestrator must hard-exclude the denied machine and land the
  // enclave on the policy-compliant m2 instead of stranding it frozen.
  build_world(/*machines=*/3, /*central=*/2);  // m0,m1 central; m2 west
  LaunchOptions options;
  options.policy.allowed_regions = {"eu-west"};
  const auto ids = launch_fleet("m0", 1, options);

  Scheduler scheduler(fleet_);
  Orchestrator orch(fleet_, scheduler, {});
  const auto report = orch.execute(Plan::drain("m0"));

  ASSERT_EQ(report.migrations.size(), 1u);
  EXPECT_TRUE(report.migrations[0].success);
  EXPECT_EQ(fleet_.find(ids[0])->machine, "m2");
  expect_counters_survived(ids);
}

TEST_F(OrchestratorTest, NoEligibleDestinationFailsTheTask) {
  build_world(/*machines=*/1, /*central=*/1);  // nowhere to go
  launch_fleet("m0", 1);
  Scheduler scheduler(fleet_);
  Orchestrator orch(fleet_, scheduler, {});
  const auto report = orch.execute(Plan::drain("m0"));
  ASSERT_EQ(report.migrations.size(), 1u);
  EXPECT_FALSE(report.migrations[0].success);
  EXPECT_EQ(report.migrations[0].final_status,
            Status::kNoEligibleDestination);
}

// ----- plans -----

TEST_F(OrchestratorTest, EvacuateRegionLandsEveryoneOutsideIt) {
  build_world(/*machines=*/5, /*central=*/2);  // m0,m1 central; m2..m4 west
  const auto ids_a = launch_fleet("m0", 3, {}, "a");
  const auto ids_b = launch_fleet("m1", 3, {}, "b");

  Scheduler scheduler(fleet_);
  Orchestrator orch(fleet_, scheduler, {});
  const auto report = orch.execute(Plan::evacuate("eu-central"));

  EXPECT_EQ(report.succeeded(), 6u);
  EXPECT_EQ(fleet_.count_on("m0"), 0u);
  EXPECT_EQ(fleet_.count_on("m1"), 0u);
  for (const uint64_t id : fleet_.all_ids()) {
    EXPECT_EQ(world_.machine(fleet_.find(id)->machine)->region(), "eu-west");
  }
  expect_counters_survived(ids_a);
  expect_counters_survived(ids_b);
}

TEST_F(OrchestratorTest, TargetedMoveUsesTheFixedDestination) {
  build_world(/*machines=*/3, /*central=*/3);
  const auto ids = launch_fleet("m0", 2);
  Scheduler scheduler(fleet_);
  Orchestrator orch(fleet_, scheduler, {});
  const auto report = orch.execute(Plan::move_one(ids[1], "m2"));
  ASSERT_EQ(report.migrations.size(), 1u);
  EXPECT_TRUE(report.migrations[0].success);
  EXPECT_EQ(fleet_.find(ids[1])->machine, "m2");
  EXPECT_EQ(fleet_.find(ids[0])->machine, "m0");  // untouched
}

// ----- registry bookkeeping -----

TEST_F(OrchestratorTest, CompletionCallbackObservesEveryMove) {
  build_world(/*machines=*/3, /*central=*/3);
  const auto ids = launch_fleet("m0", 4);
  size_t observed = 0;
  fleet_.set_completion_callback(
      [&](const orchestrator::EnclaveRecord& record) {
        ++observed;
        EXPECT_NE(record.machine, "m0");
        EXPECT_EQ(record.completed_migrations, 1u);
      });
  Scheduler scheduler(fleet_);
  Orchestrator orch(fleet_, scheduler, {});
  const auto report = orch.execute(Plan::drain("m0"));
  EXPECT_EQ(report.succeeded(), 4u);
  EXPECT_EQ(observed, 4u);
  (void)ids;
}

// The store keeps the library's sealed Table II buffer by reference: one
// allocation per enclave, after launch, after every persist OCALL and
// after the move.  An adversary's corrupt() writes a copy.
TEST_F(OrchestratorTest, StoreSharesTheSealedBufferWithTheEnclave) {
  build_world(/*machines=*/2, /*central=*/2);
  const auto image = EnclaveImage::create("app", 1, "acme");
  const uint64_t id = fleet_.launch("m0", "app", image).value();
  const auto stored = [this](const std::string& machine) {
    return world_.machine(machine)->storage().snapshot().at("app.ml");
  };
  EXPECT_EQ(stored("m0").data(), fleet_.enclave(id)->sealed_state().data());
  ASSERT_TRUE(fleet_.enclave(id)->ecall_create_migratable_counter().ok());
  EXPECT_EQ(stored("m0").data(), fleet_.enclave(id)->sealed_state().data());

  Scheduler scheduler(fleet_);
  Orchestrator orch(fleet_, scheduler, {});
  ASSERT_EQ(orch.execute(Plan::drain("m0")).succeeded(), 1u);
  EXPECT_EQ(fleet_.find(id)->machine, "m1");
  const SharedBytes sealed = fleet_.enclave(id)->sealed_state();
  EXPECT_EQ(stored("m1").data(), sealed.data());

  const Bytes before = sealed;
  ASSERT_TRUE(world_.machine("m1")->storage().corrupt("app.ml", 7));
  EXPECT_EQ(fleet_.enclave(id)->sealed_state(), before);
  EXPECT_NE(stored("m1"), before);
}

TEST_F(OrchestratorTest, RetireDropsLoadAndRecord) {
  build_world(/*machines=*/2, /*central=*/2);
  const auto ids = launch_fleet("m0", 2);
  EXPECT_EQ(fleet_.count_on("m0"), 2u);
  ASSERT_EQ(fleet_.retire(ids[0]), Status::kOk);
  EXPECT_EQ(fleet_.size(), 1u);
  EXPECT_EQ(fleet_.count_on("m0"), 1u);
  EXPECT_EQ(fleet_.retire(ids[0]), Status::kInvalidParameter);
}

TEST_F(OrchestratorTest, LaunchRejectsDuplicateNamesAndUnknownMachines) {
  build_world(/*machines=*/2, /*central=*/2);
  const auto image = EnclaveImage::create("dup", 1, "acme");
  ASSERT_TRUE(fleet_.launch("m0", "dup", image).ok());
  EXPECT_EQ(fleet_.launch("m1", "dup", image).status(),
            Status::kAlreadyExists);
  EXPECT_EQ(fleet_.launch("nope", "other", image).status(),
            Status::kInvalidParameter);
}

// ----- placement policies -----

TEST_F(OrchestratorTest, LeastLoadedPolicyCountsReservations) {
  build_world(/*machines=*/3, /*central=*/3);
  launch_fleet("m1", 1);  // m1 has registry load 1, m2 none
  Scheduler scheduler(fleet_);
  PlacementQuery query;
  query.source = "m0";
  EXPECT_EQ(scheduler.pick_destination(query).value(), "m2");
  // Two in-flight reservations flip the ranking.
  scheduler.note_reservation("m2", 2);
  EXPECT_EQ(scheduler.pick_destination(query).value(), "m1");
}

TEST_F(OrchestratorTest, AntiAffinitySpreadsReplicasOfOneImage) {
  build_world(/*machines=*/3, /*central=*/3);
  const auto image = EnclaveImage::create("replica-app", 1, "acme");
  ASSERT_TRUE(fleet_.launch("m1", "replica-0", image).ok());
  Scheduler scheduler(fleet_, orchestrator::make_anti_affinity_policy());
  PlacementQuery query;
  query.source = "m0";
  query.image = image.get();
  // m1 hosts the same image; m2 is empty of it.
  EXPECT_EQ(scheduler.pick_destination(query).value(), "m2");
  // Without image affinity information it degrades to least-loaded.
  query.image = nullptr;
  EXPECT_EQ(scheduler.pick_destination(query).value(), "m2");
}

TEST_F(OrchestratorTest, AvoidedDestinationsRankLastButStayEligible) {
  build_world(/*machines=*/3, /*central=*/3);
  Scheduler scheduler(fleet_);
  PlacementQuery query;
  query.source = "m0";
  query.avoid = {"m1"};
  EXPECT_EQ(scheduler.pick_destination(query).value(), "m2");
  query.avoid = {"m1", "m2"};  // everything avoided: still picks one
  ASSERT_TRUE(scheduler.pick_destination(query).ok());
}

// ----- structured failure reporting (satellite) -----

TEST_F(OrchestratorTest, MigrationStartDetailedReportsRetryableNetwork) {
  build_world(/*machines=*/2, /*central=*/2);
  const auto ids = launch_fleet("m0", 1);
  world_.network().set_endpoint_down("m1/me", true);
  const auto result =
      fleet_.enclave(ids[0])->ecall_migration_start_detailed("m1");
  EXPECT_EQ(result.status, Status::kNetworkUnreachable);
  EXPECT_EQ(result.failure_class, MigrationFailureClass::kRetryableNetwork);
  EXPECT_TRUE(
      migration::migration_failure_is_retryable(result.failure_class));
  EXPECT_NE(result.message.find("kNetworkUnreachable"), std::string::npos);
}

TEST_F(OrchestratorTest, MigrationStartDetailedReportsFatalState) {
  build_world(/*machines=*/2, /*central=*/2);
  const auto ids = launch_fleet("m0", 1);
  ASSERT_EQ(fleet_.enclave(ids[0])->ecall_migration_start("m1"), Status::kOk);
  // Second start after the data left: fatal, not retryable.
  const auto result =
      fleet_.enclave(ids[0])->ecall_migration_start_detailed("m1");
  EXPECT_EQ(result.status, Status::kMigrationFrozen);
  EXPECT_EQ(result.failure_class, MigrationFailureClass::kFatalState);
  EXPECT_FALSE(
      migration::migration_failure_is_retryable(result.failure_class));
}

TEST_F(OrchestratorTest, FailureClassificationTable) {
  using migration::classify_migration_failure;
  EXPECT_EQ(classify_migration_failure(Status::kOk),
            MigrationFailureClass::kNone);
  EXPECT_EQ(classify_migration_failure(Status::kNetworkUnreachable),
            MigrationFailureClass::kRetryableNetwork);
  EXPECT_EQ(classify_migration_failure(Status::kAlreadyExists),
            MigrationFailureClass::kRetryableBusy);
  EXPECT_EQ(classify_migration_failure(Status::kServiceUnavailable),
            MigrationFailureClass::kRetryableBusy);
  EXPECT_EQ(classify_migration_failure(Status::kPolicyViolation),
            MigrationFailureClass::kFatalPolicy);
  EXPECT_EQ(classify_migration_failure(Status::kMigrationFrozen),
            MigrationFailureClass::kFatalState);
  EXPECT_EQ(classify_migration_failure(Status::kAttestationFailure),
            MigrationFailureClass::kFatalInternal);
}

// ----- report -----

TEST_F(OrchestratorTest, ReportJsonCarriesTheAggregates) {
  build_world(/*machines=*/3, /*central=*/3);
  launch_fleet("m0", 2);
  Scheduler scheduler(fleet_);
  Orchestrator orch(fleet_, scheduler, {});
  const auto report = orch.execute(Plan::drain("m0"));
  const std::string json = report.to_json();
  for (const char* key :
       {"\"plan\"", "\"drain-machine\"", "\"succeeded\": 2", "\"failed\": 0",
        "\"peak_inflight_per_machine\"", "\"migrations\"",
        "\"latency_seconds\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

TEST_F(OrchestratorTest, DrainIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    World world(seed);
    std::vector<std::unique_ptr<MigrationEnclave>> mes;
    for (int i = 0; i < 3; ++i) {
      auto& m = world.add_machine("m" + std::to_string(i));
      mes.push_back(std::make_unique<MigrationEnclave>(
          m, MigrationEnclave::standard_image(), world.provider()));
    }
    FleetRegistry fleet(world);
    orchestrator::launch_apps(fleet,
                              {.count = 4, .prefix = "det-", .counters = 0});
    Scheduler scheduler(fleet);
    Orchestrator orch(fleet, scheduler, {});
    world.observability().set_enabled(true);
    const auto report = orch.execute(Plan::drain("m0"));
    // The trace carries the orch.* transitions, so their order is held
    // to the seed as well.
    return std::pair{world.clock().now(),
                     report.to_json() +
                         world.observability().trace.to_chrome_json()};
  };
  const auto first = run(99);
  const auto second = run(99);
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

// ----- the fleet builder -----

TEST(FleetBuilder, BuildsMachinesAndAppsInOrder) {
  World world(/*seed=*/31);
  orchestrator::add_machines(world, 5, /*regions=*/3);
  ASSERT_EQ(world.machine_count(), 5u);
  for (int i = 0; i < 5; ++i) {
    const platform::Machine& m = *world.machines()[i];
    EXPECT_EQ(m.address(), "m" + std::to_string(i));
    EXPECT_EQ(m.region(), "r" + std::to_string(i % 3));
    EXPECT_EQ(m.cpu_cores(), 16u + 16u * (i % 2)) << i;
  }

  FleetRegistry fleet(world);
  const auto ids = orchestrator::launch_apps(
      fleet, {.count = 5,
              .prefix = "built-",
              .vendor = "vendor-x",
              .hosts = {"m3", "m1"},
              .options = {.live_transfer = true},
              .counters = 2,
              .increments = [](int i) { return 2u * i; }});
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(fleet.all_ids(), ids.value());  // ids in launch order
  for (int i = 0; i < 5; ++i) {
    const auto* record = fleet.find(ids.value()[i]);
    const std::string name = "built-" + std::to_string(i);
    EXPECT_EQ(record->name, name);
    EXPECT_EQ(record->machine, i % 2 == 0 ? "m3" : "m1");
    EXPECT_TRUE(record->options.live_transfer);
    EXPECT_EQ(record->image->mr_enclave(),
              EnclaveImage::create(name, 1, "vendor-x")->mr_enclave());
    auto* enclave = fleet.enclave(record->id);
    EXPECT_EQ(enclave->ecall_read_migratable_counter(0).value(), 2u * i);
    EXPECT_EQ(enclave->ecall_read_migratable_counter(1).value(), 0u);
    EXPECT_FALSE(enclave->ecall_read_migratable_counter(2).ok());
  }
  // A batch stops at its first failed launch, with that launch's status.
  EXPECT_EQ(orchestrator::launch_apps(fleet, {.count = 2, .prefix = "built-"})
                .status(),
            Status::kAlreadyExists);
  EXPECT_EQ(
      orchestrator::launch_apps(fleet, {.count = 1, .hosts = {}}).status(),
      Status::kInvalidParameter);
  EXPECT_EQ(fleet.size(), 5u);
}

}  // namespace
}  // namespace sgxmig
