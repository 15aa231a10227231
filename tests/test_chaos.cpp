// Chaos-engine tests (ISSUE 9): the completion-triggered drill and the
// storm generator build the plans they name, the executor fires scheduled faults at
// the exact virtual instants / waves the plan names, each invariant
// oracle catches a deliberately seeded violation (a forced fork via the
// disabled epoch guard, a forced silent stall), chaos stats serialize
// into the orchestrator report, and a full 32-enclave seeded storm drain
// converges with zero forks in both transfer modes (the sanitizer jobs
// run this binary, so the storm doubles as the ASan/UBSan chaos soak
// where benches are off).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos_executor.h"
#include "chaos/chaos_plan.h"
#include "chaos/oracles.h"
#include "migration/migration_enclave.h"
#include "orchestrator/fleet_builder.h"
#include "orchestrator/orchestrator.h"
#include "platform/world.h"

namespace sgxmig {
namespace {

using chaos::ChaosExecutor;
using chaos::ChaosPlan;
using chaos::ConvergenceOracle;
using chaos::FaultEvent;
using chaos::FaultKind;
using orchestrator::AppSpec;
using orchestrator::FleetRegistry;
using orchestrator::LaunchOptions;
using orchestrator::Orchestrator;
using orchestrator::OrchestratorOptions;
using orchestrator::OrchestratorReport;
using orchestrator::Plan;
using orchestrator::Scheduler;
using orchestrator::TransferMode;
using platform::World;

// SGXMIG_SEED reseeds the storm test so a failing run can be replayed
// exactly (tests/ are exempt from the determinism lint; the fallback
// keeps CI deterministic).
uint64_t seed_from_env(uint64_t fallback) {
  const char* text = std::getenv("SGXMIG_SEED");
  return text != nullptr ? std::strtoull(text, nullptr, 10) : fallback;
}

// ---- plans ----

TEST(ChaosPlanTest, CompletionTriggerBuildsTheDrill) {
  const ChaosPlan plan =
      chaos::crash_at_completion({"m0", "m1"}, /*completion=*/2,
                                 /*revive_after_waves=*/3);
  // Crashes first, then restarts, each in target order; every event
  // carries the completion trigger and only the restarts a wave.
  const ChaosPlan expected{
      .events = {
          {.kind = FaultKind::kMeCrash, .target = "m0", .at_completion = 2},
          {.kind = FaultKind::kMeCrash, .target = "m1", .at_completion = 2},
          {.kind = FaultKind::kMeRestart,
           .target = "m0",
           .at_wave = 3,
           .at_completion = 2},
          {.kind = FaultKind::kMeRestart,
           .target = "m1",
           .at_wave = 3,
           .at_completion = 2},
      }};
  EXPECT_EQ(plan, expected);
}

TEST(ChaosPlanTest, GeneratorIsDeterministicPerSeed) {
  const std::vector<std::string> destinations = {"m1", "m2", "m3"};
  const ChaosPlan a =
      chaos::generate_storm(7, chaos::mixed_profile(), "m0", destinations);
  const ChaosPlan b =
      chaos::generate_storm(7, chaos::mixed_profile(), "m0", destinations);
  EXPECT_EQ(a, b);

  // A different seed draws a different schedule (compare under the same
  // embedded seed so only the sampled events differ).
  ChaosPlan c =
      chaos::generate_storm(8, chaos::mixed_profile(), "m0", destinations);
  c.seed = a.seed;
  EXPECT_NE(a, c);
}

// ---- the executor against a live world ----

class ChaosTest : public ::testing::Test {
 protected:
  ChaosTest() {
    world_.install_management_enclaves(migration::durable_me_factory(
        world_.provider(), [this](migration::MigrationEnclave& me) {
          me.set_delivery_takeover_timeout(std::chrono::seconds(2));
          me.set_async_precopy(async_precopy_);
        }));
  }

  void build_world(int machines) {
    destinations_ = orchestrator::add_machines(world_, machines);
    destinations_.erase(destinations_.begin());
  }

  uint64_t launch(const std::string& machine, const std::string& name,
                  bool live_transfer = false, int ticks = 1) {
    LaunchOptions options;
    options.live_transfer = live_transfer;
    const auto image = sgx::EnclaveImage::create(name, 1, "test");
    const uint64_t id =
        fleet_.launch(machine, name, image, options).value();
    auto* enclave = fleet_.enclave(id);
    const uint32_t counter =
        enclave->ecall_create_migratable_counter().value().counter_id;
    for (int t = 0; t < ticks; ++t) {
      enclave->ecall_increment_migratable_counter(counter);
    }
    return id;
  }

  // Drains one live-transfer enclave whose epoch guard is disabled
  // (chaos_disable_epoch_guard) off m0 in pre-copy mode; true when the
  // oracle reports the resulting fork.  Only the post-drain buffer (its
  // freeze flag set) may be refused: the pre-drain snapshot restores
  // because the drill keeps its counters alive.  `corrupt_stored` flips a
  // byte of the stored buffer right after the capture, which the oracle's
  // captured buffer (shared with the store) must not see.
  bool fork_drill_reports_fork(bool async_precopy,
                               bool corrupt_stored = false) {
    async_precopy_ = async_precopy;
    build_world(2);
    const uint64_t id = launch("m0", "fork-app", /*live_transfer=*/true, 3);
    fleet_.enclave(id)->chaos_disable_epoch_guard();

    ConvergenceOracle oracle(fleet_, "m0");
    oracle.capture();
    if (corrupt_stored) {
      const Bytes sealed = fleet_.enclave(id)->sealed_state();
      EXPECT_TRUE(world_.machine("m0")->storage().corrupt("fork-app.ml", 40));
      EXPECT_EQ(fleet_.enclave(id)->sealed_state(), sealed);
    }
    Scheduler scheduler(fleet_);
    OrchestratorOptions options;
    options.transfer_mode = TransferMode::kPrecopy;
    options.pipelined = async_precopy;
    Orchestrator orch(fleet_, scheduler, options);
    const OrchestratorReport report = orch.execute(Plan::drain("m0"));
    EXPECT_EQ(report.failed(), 0u);

    bool fork_reported = false;
    for (const auto& finding : oracle.verify(report)) {
      if (finding.check == "fork") fork_reported = true;
    }
    EXPECT_EQ(oracle.epoch_guard_refusals(), 1u);
    return fork_reported;
  }

  void strand_precopy_attempt_then_settle(int machines,
                                          const std::string& drain_to,
                                          const std::string& m1_finding);

  void TearDown() override {
    if (HasFailure()) {
      std::printf("ChaosTest: replay with SGXMIG_SEED=%llu\n",
                  static_cast<unsigned long long>(seed_));
    }
  }

  // Read by every ME the factory builds, restarted ones included.
  bool async_precopy_ = false;
  const uint64_t seed_ = seed_from_env(101);
  World world_{seed_};
  FleetRegistry fleet_{world_};
  std::vector<std::string> destinations_;
};

TEST_F(ChaosTest, FlapsFireAtExactVirtualInstants) {
  build_world(2);
  world_.observability().set_enabled(true);
  Scheduler scheduler(fleet_);
  Orchestrator orch(fleet_, scheduler, OrchestratorOptions{});

  ChaosPlan plan;
  plan.seed = 1;
  FaultEvent flap;
  flap.kind = FaultKind::kEndpointFlap;
  flap.target = "m1/me";
  flap.at = seconds(1.0);  // offset from the arm instant
  flap.duration = seconds(0.5);
  plan.events.push_back(flap);

  ChaosExecutor executor(world_, plan);
  const Duration base = world_.clock().now();
  executor.arm(orch);

  auto& net = world_.network();
  EXPECT_FALSE(net.endpoint_down_at("m1/me", base + seconds(0.999)));
  EXPECT_TRUE(net.endpoint_down_at("m1/me", base + seconds(1.0)));
  EXPECT_TRUE(net.endpoint_down_at("m1/me", base + seconds(1.499)));
  EXPECT_FALSE(net.endpoint_down_at("m1/me", base + seconds(1.5)));

  // The fault/heal instants are stamped at the exact window edges.
  Duration fault_at{-1}, heal_at{-1};
  for (const auto& instant : world_.observability().trace.instants()) {
    if (instant.name == "chaos.fault") fault_at = instant.at;
    if (instant.name == "chaos.heal") heal_at = instant.at;
  }
  EXPECT_EQ(fault_at, base + seconds(1.0));
  EXPECT_EQ(heal_at, base + seconds(1.5));

  executor.disarm();  // clears the scheduled windows
  EXPECT_FALSE(net.endpoint_down_at("m1/me", base + seconds(1.25)));
}

TEST_F(ChaosTest, CrashRestartFireAtTheirWavesExactlyOnce) {
  build_world(3);
  const AppSpec apps{.count = 4, .prefix = "wave-app-", .vendor = "test"};
  ASSERT_TRUE(orchestrator::launch_apps(fleet_, apps).ok());

  Scheduler scheduler(fleet_);
  OrchestratorOptions options;
  options.max_inflight_total = 1;  // many waves, so wave 1 and 2 exist
  options.max_attempts = 8;
  options.pipelined = true;
  Orchestrator orch(fleet_, scheduler, options);

  ChaosPlan plan;
  plan.seed = 2;
  FaultEvent crash;
  crash.kind = FaultKind::kMeCrash;
  crash.target = "m0";
  crash.at_wave = 1;
  plan.events.push_back(crash);
  FaultEvent restart;
  restart.kind = FaultKind::kMeRestart;
  restart.target = "m0";
  restart.at_wave = 2;
  plan.events.push_back(restart);
  FaultEvent never;  // a wave the drain never reaches must never fire
  never.kind = FaultKind::kMeCrash;
  never.target = "m0";
  never.at_wave = 1000000;
  plan.events.push_back(never);

  ChaosExecutor executor(world_, plan);
  executor.arm(orch);
  const OrchestratorReport report = orch.execute(Plan::drain("m0"));
  executor.disarm();
  chaos::settle_queues(world_);

  // Despite losing its source ME mid-drain, the fleet converges; the
  // crash and its paired restart each fired exactly once.
  EXPECT_EQ(report.failed(), 0u);
  const auto stats = executor.report_stats();
  EXPECT_EQ(stats.at("injected.me-crash"), 1u);
  EXPECT_EQ(stats.at("healed.me-restart"), 1u);
  EXPECT_EQ(stats.at("injected.total"), executor.injected_total());
}

TEST_F(ChaosTest, CompletionCrashRestartsWavesLater) {
  build_world(3);
  const AppSpec apps{.count = 8, .prefix = "done-app-", .vendor = "test"};
  ASSERT_TRUE(orchestrator::launch_apps(fleet_, apps).ok());

  Scheduler scheduler(fleet_);
  OrchestratorOptions options;
  options.max_inflight_total = 4;
  options.max_attempts = 8;
  options.pipelined = true;
  Orchestrator orch(fleet_, scheduler, options);

  ChaosExecutor executor(world_, chaos::crash_at_completion(
                                     {"m0"}, /*completion=*/2,
                                     /*revive_after_waves=*/3));
  executor.arm(orch);
  world_.observability().set_enabled(true);
  const OrchestratorReport report = orch.execute(Plan::drain("m0"));
  executor.disarm();
  chaos::settle_queues(world_);

  EXPECT_EQ(report.failed(), 0u);
  EXPECT_EQ(fleet_.count_on("m0"), 0u);
  EXPECT_EQ(executor.injected().at("injected.me-crash"), 1u);
  EXPECT_EQ(executor.injected().at("healed.me-restart"), 1u);
  // The crash follows exactly two completed moves, and the restart
  // follows the crash.  (Recording order: the completion runs on a
  // destination lane whose clock is ahead of the wave's.)
  std::vector<std::string> sequence;
  for (const auto& instant : world_.observability().trace.instants()) {
    if (instant.name == "migration.done" || instant.name == "chaos.fault" ||
        instant.name == "chaos.heal") {
      sequence.push_back(instant.name);
    }
  }
  ASSERT_GE(sequence.size(), 4u);
  EXPECT_EQ(sequence[0], "migration.done");
  EXPECT_EQ(sequence[1], "migration.done");
  EXPECT_EQ(sequence[2], "chaos.fault");
  EXPECT_EQ(std::count(sequence.begin(), sequence.end(), "chaos.heal"), 1);
  EXPECT_NE(std::find(sequence.begin() + 3, sequence.end(), "chaos.heal"),
            sequence.end());
}

TEST_F(ChaosTest, PlanWithoutCompletionEventsLeavesTheFleetCallback) {
  build_world(2);
  const AppSpec apps{.count = 3, .prefix = "kept-app-", .vendor = "test"};
  ASSERT_TRUE(orchestrator::launch_apps(fleet_, apps).ok());
  size_t completions = 0;
  fleet_.set_completion_callback(
      [&completions](const orchestrator::EnclaveRecord&) { ++completions; });

  Scheduler scheduler(fleet_);
  Orchestrator orch(fleet_, scheduler, OrchestratorOptions{});
  ChaosPlan plan;
  FaultEvent crash;
  crash.kind = FaultKind::kMeCrash;
  crash.target = "m1";
  crash.at_wave = 1000000;  // never reached
  plan.events.push_back(crash);
  ChaosExecutor executor(world_, plan);
  executor.arm(orch);
  const OrchestratorReport report = orch.execute(Plan::drain("m0"));
  executor.disarm();
  EXPECT_EQ(report.failed(), 0u);
  EXPECT_EQ(completions, 3u);
}

TEST_F(ChaosTest, ForkOracleCatchesDisabledEpochGuard) {
  // The seeded violation: without the epoch guard, migrating away no
  // longer invalidates the pre-drain sealed snapshot, so replaying it
  // afterwards yields a second live instance — exactly what the oracle
  // exists to catch.
  EXPECT_TRUE(fork_drill_reports_fork(/*async_precopy=*/false));
}

// The same drill through the async pre-copy transport: the finalize is
// queued at the source ME and its accept lands in a poll, whose success
// tail must honour the drill exactly like the synchronous finalize's.
TEST_F(ChaosTest, ForkOracleCatchesDisabledEpochGuardAsync) {
  EXPECT_TRUE(fork_drill_reports_fork(/*async_precopy=*/true));
}

// The oracle's captured buffer shares the store's allocation.  A byte the
// adversary flips in the store after the capture must not reach it: the
// drill's fork is found only if the captured buffer still unseals.
TEST_F(ChaosTest, CorruptStoreLeavesTheCapturedSnapshotIntact) {
  EXPECT_TRUE(fork_drill_reports_fork(/*async_precopy=*/false,
                                      /*corrupt_stored=*/true));
}

TEST_F(ChaosTest, ForkOracleCleanWhenEpochGuardArmed) {
  build_world(2);
  launch("m0", "guarded-app", /*live_transfer=*/true, 3);

  ConvergenceOracle oracle(fleet_, "m0");
  oracle.capture();
  Scheduler scheduler(fleet_);
  OrchestratorOptions options;
  options.transfer_mode = TransferMode::kPrecopy;
  Orchestrator orch(fleet_, scheduler, options);
  const OrchestratorReport report = orch.execute(Plan::drain("m0"));
  ASSERT_EQ(report.failed(), 0u);

  EXPECT_TRUE(oracle.verify(report).empty());
  EXPECT_EQ(oracle.forks(), 0u);
  // The cross-check: the clean verdict came from the anti-fork machinery
  // actually refusing the stale restores, not from the oracle not probing.
  EXPECT_GT(oracle.epoch_guard_refusals(), 0u);
}

// A pre-copy attempt abandoned by a re-route whose kAbortStale was lost
// stays on the source ME after the identity completes under a fresh
// nonce, and its staged record stays at m1.  The durable-queue oracle
// must see both (`m1_finding`: what it reports for m1 after the drain,
// empty for nothing), and the settle's janitors must expire both: the
// superseded sweep at the source, the reconcile at m1.
void ChaosTest::strand_precopy_attempt_then_settle(
    int machines, const std::string& drain_to, const std::string& m1_finding) {
  build_world(machines);
  const uint64_t id = launch("m0", "stranded-app", /*live_transfer=*/true, 3);
  ConvergenceOracle oracle(fleet_, "m0");
  oracle.capture();

  auto* enclave = fleet_.enclave(id);
  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());
  // Re-route: the library aborts the m1 attempt before its first round
  // toward m2.  That abort is the next record to m0's ME; lose it.
  bool dropped = false;
  world_.network().set_tamper_hook(
      [&dropped](const std::string& to, Bytes&) {
        if (to != "m0/me" || dropped) return true;
        dropped = true;
        return false;
      });
  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m2").ok());
  world_.network().clear_tamper_hook();
  ASSERT_TRUE(dropped);
  ASSERT_EQ(migration::me_on(*world_.machine("m0"))->transfer_task_count(),
            2u);
  ASSERT_EQ(migration::me_on(*world_.machine("m1"))->precopy_staging_count(),
            1u);

  Scheduler scheduler(fleet_);
  OrchestratorOptions options;
  options.transfer_mode = TransferMode::kPrecopy;
  Orchestrator orch(fleet_, scheduler, options);
  const OrchestratorReport report = orch.execute(
      drain_to.empty() ? Plan::drain("m0") : Plan::move_one(id, drain_to));
  ASSERT_EQ(report.failed(), 0u);

  bool stranded_reported = false;
  bool m1_reported = false;
  for (const auto& finding : oracle.verify(report)) {
    if (finding.check != "durable-queue") continue;
    if (finding.detail == "m0 ME holds 1 unfinished transfer tasks") {
      stranded_reported = true;
    } else if (finding.detail == m1_finding) {
      m1_reported = true;
    }
  }
  EXPECT_TRUE(stranded_reported);
  EXPECT_EQ(m1_reported, !m1_finding.empty());

  EXPECT_GE(chaos::settle_queues(world_), 1u);
  const auto findings = oracle.verify(report);
  for (const auto& finding : findings) {
    ADD_FAILURE() << "oracle violation [" << finding.check
                  << "]: " << finding.detail;
  }
  EXPECT_EQ(migration::me_on(*world_.machine("m0"))->transfer_task_count(),
            0u);
  EXPECT_EQ(migration::me_on(*world_.machine("m1"))->precopy_staging_count(),
            0u);
}

// The drain picks m1, whose new attempt supersedes the staged record.
TEST_F(ChaosTest, StrandedPrecopyAttemptIsReportedThenSettled) {
  strand_precopy_attempt_then_settle(3, /*drain_to=*/"", /*m1_finding=*/"");
}

// The identity completes on m3, so only the settle's reconcile can expire
// the staged record at m1: the source ME vouches the identity completed
// under another nonce.
TEST_F(ChaosTest, StrandedPrecopyStagingIsReportedThenReconciled) {
  strand_precopy_attempt_then_settle(4, "m3",
                                     "m1 ME holds 1 staged incoming records");
}

TEST_F(ChaosTest, RecoveryOracleFlagsSilentStall) {
  obs::TraceRecorder recorder(world_.clock());
  recorder.set_enabled(true);
  recorder.instant_at(seconds(1.0), "chaos.fault", "m0", 0,
                      {{"kind", "drop"}});

  // A fault with no traced activity after it is a silent stall.
  auto findings = chaos::check_fault_recovery(recorder);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "fault-recovery");

  // Any later traffic instant is recovery evidence and clears it.
  recorder.instant_at(seconds(2.0), "net.deliver", "m1");
  EXPECT_TRUE(chaos::check_fault_recovery(recorder).empty());
}

TEST_F(ChaosTest, ChaosStatsSerializeIntoReportJson) {
  OrchestratorReport report;
  report.chaos_stats["seed"] = 101;
  report.chaos_stats["injected.total"] = 5;
  report.chaos_stats["forks"] = 0;
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"chaos\""), std::string::npos);
  EXPECT_NE(json.find("\"injected.total\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 101"), std::string::npos);
  // Without chaos stats the block is absent entirely.
  EXPECT_EQ(OrchestratorReport().to_json().find("\"chaos\""),
            std::string::npos);
}

// The full storm: a 32-enclave pipelined drain under the mixed seeded
// storm converges with zero forks and every oracle clean, in both
// transfer modes — mirrors bench_chaos_storm's gate inside the test suite
// so the sanitizer jobs (which build with benches off) still soak the
// chaos paths, the async pre-copy source and destination paths included.
class ChaosStormTest : public ChaosTest,
                       public ::testing::WithParamInterface<TransferMode> {};

TEST_P(ChaosStormTest, SeededStormDrainConvergesWithoutForks) {
  const bool precopy = GetParam() == TransferMode::kPrecopy;
  async_precopy_ = precopy;
  build_world(5);
  AppSpec apps{.count = 32, .prefix = "storm-app-", .vendor = "test"};
  apps.options.live_transfer = precopy;
  apps.increments = [](int i) { return i % 3 + 1u; };
  ASSERT_TRUE(orchestrator::launch_apps(fleet_, apps).ok());

  Scheduler scheduler(fleet_);
  OrchestratorOptions options;
  options.transfer_mode = GetParam();
  options.max_inflight_per_machine = 4;
  options.max_inflight_total = 8;
  options.max_attempts = 16;
  options.pipelined = true;
  Orchestrator orch(fleet_, scheduler, options);

  const ChaosPlan plan =
      chaos::generate_storm(seed_, chaos::mixed_profile(), "m0",
                            destinations_);
  ChaosExecutor executor(world_, plan);
  ConvergenceOracle oracle(fleet_, "m0");
  oracle.capture();
  executor.arm(orch);
  const OrchestratorReport report = orch.execute(Plan::drain("m0"));
  executor.disarm();
  chaos::settle_queues(world_);

  const auto findings = oracle.verify(report);
  for (const auto& finding : findings) {
    ADD_FAILURE() << "oracle violation [" << finding.check
                  << "]: " << finding.detail;
  }
  EXPECT_EQ(report.failed(), 0u);
  EXPECT_EQ(oracle.forks(), 0u);
  EXPECT_GT(oracle.epoch_guard_refusals(), 0u);
  EXPECT_GT(executor.injected_total(), 0u);
  EXPECT_EQ(fleet_.count_on("m0"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ChaosStormTest,
    ::testing::Values(TransferMode::kFullSnapshot, TransferMode::kPrecopy),
    [](const ::testing::TestParamInfo<TransferMode>& mode) {
      return std::string(mode.param == TransferMode::kPrecopy
                             ? "AsyncPrecopy"
                             : "FullSnapshot");
    });

}  // namespace
}  // namespace sgxmig
