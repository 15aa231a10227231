// Pipelined ME transfer-engine tests: the source ME's TransferTask step
// machine (enqueue/pump/poll), deferred-delivery interleaving, durable
// resume of in-flight pipelines across source-ME restarts, exactly-once
// completion per nonce under response loss, orchestrated pipelined drains
// under mixed fault storms (tamper + reply loss + ME crashes) with zero
// forks, the cap actually buying wall time, async pre-copy freezes
// staying at the final delta under a live client stream, and the
// proactive re-route abort + staging age sweep.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "migration/migratable_enclave.h"
#include "migration/migration_enclave.h"
#include "orchestrator/orchestrator.h"
#include "platform/world.h"

namespace sgxmig {
namespace {

// SGXMIG_SEED reseeds the fault-storm worlds so a failing run can be
// replayed exactly (tests/ are exempt from the determinism lint; the
// fallback keeps CI deterministic).
uint64_t seed_from_env(uint64_t fallback) {
  const char* text = std::getenv("SGXMIG_SEED");
  return text != nullptr ? std::strtoull(text, nullptr, 10) : fallback;
}

using migration::InitState;
using migration::MeMsgType;
using migration::MeRequest;
using migration::MigratableEnclave;
using migration::MigrationEnclave;
using migration::MigrationFailureClass;
using migration::MigrationStartResult;
using platform::World;
using sgx::EnclaveImage;

bool in_flight(const MigrationStartResult& r) {
  return r.status == Status::kMigrationInProgress &&
         r.failure_class == MigrationFailureClass::kNone;
}

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() {
    world_.install_management_enclaves(
        migration::durable_me_factory(world_.provider()));
  }

  platform::Machine& machine(const std::string& address) {
    return *world_.machine(address);
  }
  MigrationEnclave* me(const std::string& address) {
    return migration::me_on(machine(address));
  }
  void restart_me(const std::string& address) {
    machine(address).kill_management_enclave();
    ASSERT_TRUE(machine(address).restart_management_enclave());
  }

  std::unique_ptr<MigratableEnclave> make_app(
      platform::Machine& m, std::shared_ptr<const EnclaveImage> image,
      bool live_transfer = false) {
    auto enclave = std::make_unique<MigratableEnclave>(
        m, std::move(image), migration::PersistenceMode::kSync,
        migration::GroupCommitOptions{}, live_transfer);
    enclave->set_persist_callback(
        [&m](ByteView s) { m.storage().put("ml", s); });
    return enclave;
  }
  std::unique_ptr<MigratableEnclave> start_new(
      platform::Machine& m, std::shared_ptr<const EnclaveImage> image,
      bool live_transfer = false) {
    auto enclave = make_app(m, std::move(image), live_transfer);
    EXPECT_EQ(enclave->ecall_migration_init(ByteView(), InitState::kNew,
                                            m.address()),
              Status::kOk);
    return enclave;
  }

  /// Polls until terminal, pumping the source ME and the network between
  /// polls.  Returns the terminal result.
  MigrationStartResult pump_until_resolved(MigratableEnclave& enclave,
                                           const std::string& source) {
    for (int i = 0; i < 16; ++i) {
      me(source)->pump();
      world_.network().pump_all();
      const MigrationStartResult r = enclave.ecall_migration_poll_transfer();
      if (!in_flight(r)) return r;
    }
    MigrationStartResult stuck;
    stuck.status = Status::kMigrationInProgress;
    return stuck;
  }

  void TearDown() override {
    if (HasFailure()) {
      std::printf("PipelineTest: replay with SGXMIG_SEED=%llu\n",
                  static_cast<unsigned long long>(seed_));
    }
  }

  const uint64_t seed_ = seed_from_env(6060);
  World world_{seed_};
  platform::Machine& m0_ = world_.add_machine("m0");
  platform::Machine& m1_ = world_.add_machine("m1");
  platform::Machine& m2_ = world_.add_machine("m2");
  std::shared_ptr<const EnclaveImage> image_ =
      EnclaveImage::create("pipe-app", 1, "acme");
};

// ----- the step machine end to end -----

TEST_F(PipelineTest, EnqueuePollCompletesTransfer) {
  auto enclave = start_new(m0_, image_);
  const uint32_t id =
      enclave->ecall_create_migratable_counter().value().counter_id;
  enclave->ecall_increment_migratable_counter(id);
  enclave->ecall_increment_migratable_counter(id);

  ASSERT_TRUE(enclave->ecall_migration_enqueue_detailed("m1").ok());
  EXPECT_TRUE(enclave->transfer_enqueued());
  EXPECT_EQ(me("m0")->transfer_task_count(), 1u);
  // Queued, not yet shipped: the destination knows nothing.
  EXPECT_EQ(me("m1")->pending_incoming_count(), 0u);
  // Before any pumping the poll reports in-flight.
  EXPECT_TRUE(in_flight(enclave->ecall_migration_poll_transfer()));

  const MigrationStartResult result = pump_until_resolved(*enclave, "m0");
  ASSERT_TRUE(result.ok()) << result.message;
  EXPECT_FALSE(enclave->transfer_enqueued());
  EXPECT_GT(to_seconds(enclave->last_freeze_window()), 0.0);
  EXPECT_EQ(me("m0")->transfer_task_count(), 0u);
  EXPECT_EQ(me("m0")->outgoing_count(), 1u);  // retained until DONE
  ASSERT_EQ(me("m1")->pending_incoming_count(), 1u);

  // Destination instance restores the exact values and the DONE clears
  // the retained copy — the §V-D machinery is untouched by the pipeline.
  enclave.reset();
  auto moved = make_app(m1_, image_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(moved->ecall_read_migratable_counter(id).value(), 2u);
  EXPECT_EQ(me("m0")->outgoing_count(), 0u);
}

TEST_F(PipelineTest, ConcurrentTransfersInterleaveOverIndependentChannels) {
  constexpr int kEnclaves = 4;
  std::vector<std::shared_ptr<const EnclaveImage>> images;
  std::vector<std::unique_ptr<MigratableEnclave>> enclaves;
  for (int i = 0; i < kEnclaves; ++i) {
    images.push_back(
        EnclaveImage::create("pipe-" + std::to_string(i), 1, "acme"));
    enclaves.push_back(start_new(m0_, images.back()));
    const uint32_t id =
        enclaves.back()->ecall_create_migratable_counter().value().counter_id;
    for (int j = 0; j <= i; ++j) {
      enclaves.back()->ecall_increment_migratable_counter(id);
    }
    // All four transfers enter the pipeline BEFORE any conversation
    // advances: the blocking path could never hold this state.
    ASSERT_TRUE(enclaves[i]->ecall_migration_enqueue_detailed("m1").ok());
  }
  EXPECT_EQ(me("m0")->transfer_task_count(), 4u);
  world_.network().pump_all();
  EXPECT_EQ(me("m0")->transfer_task_count(), 0u);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 4u);
  for (int i = 0; i < kEnclaves; ++i) {
    ASSERT_TRUE(enclaves[i]->ecall_migration_poll_transfer().ok());
    enclaves[i].reset();
    auto moved = make_app(m1_, images[i]);
    ASSERT_EQ(
        moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
        Status::kOk);
    EXPECT_EQ(moved->ecall_read_migratable_counter(0).value(),
              static_cast<uint32_t>(i + 1));
  }
  EXPECT_EQ(me("m0")->outgoing_count(), 0u);
}

// ----- durable resume: source-ME crash mid-pipeline -----

TEST_F(PipelineTest, SourceMeRestartMidPipelineResumesFromDurableQueue) {
  auto a = start_new(m0_, image_);
  const auto image_b = EnclaveImage::create("pipe-b", 1, "acme");
  auto b = start_new(m0_, image_b);
  a->ecall_increment_migratable_counter(
      a->ecall_create_migratable_counter().value().counter_id);
  b->ecall_increment_migratable_counter(
      b->ecall_create_migratable_counter().value().counter_id);
  ASSERT_TRUE(a->ecall_migration_enqueue_detailed("m1").ok());
  ASSERT_TRUE(b->ecall_migration_enqueue_detailed("m2").ok());
  ASSERT_EQ(me("m0")->transfer_task_count(), 2u);

  // Advance the pipelines partway (attestation underway, nothing
  // retained yet), then crash the source ME: in-flight replies must not
  // resume into the dead object, and the durable queue must carry both
  // tasks into the next incarnation.
  world_.network().pump_one();
  world_.network().pump_one();
  world_.network().pump_one();
  restart_me("m0");
  EXPECT_EQ(me("m0")->transfer_task_count(), 2u);  // restored, re-queued

  // The revived ME re-kicks both tasks (fresh attest, same nonces); the
  // libraries re-attest their LA sessions and learn the fate.
  const MigrationStartResult ra = pump_until_resolved(*a, "m0");
  ASSERT_TRUE(ra.ok()) << ra.message;
  const MigrationStartResult rb = pump_until_resolved(*b, "m0");
  ASSERT_TRUE(rb.ok()) << rb.message;

  // Exactly once per nonce: one pending entry per identity, no forks.
  EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);
  EXPECT_EQ(me("m2")->pending_incoming_count(), 1u);
  a.reset();
  b.reset();
  auto moved_a = make_app(m1_, image_);
  ASSERT_EQ(
      moved_a->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
      Status::kOk);
  EXPECT_EQ(moved_a->ecall_read_migratable_counter(0).value(), 1u);
  auto moved_b = make_app(m2_, image_b);
  ASSERT_EQ(
      moved_b->ecall_migration_init(ByteView(), InitState::kMigrate, "m2"),
      Status::kOk);
  EXPECT_EQ(moved_b->ecall_read_migratable_counter(0).value(), 1u);
  EXPECT_EQ(me("m0")->outgoing_count(), 0u);
}

TEST_F(PipelineTest, LostShipAckRetriesExactlyOnce) {
  auto enclave = start_new(m0_, image_);
  enclave->ecall_increment_migratable_counter(
      enclave->ecall_create_migratable_counter().value().counter_id);

  // Drop the reply to the sealed kTransfer record: the destination
  // durably stores the pending copy but the source task sees a transport
  // failure — the classic lost-ACCEPTED ambiguity, now inside the pump.
  bool arm = false;
  world_.network().set_tamper_hook(
      [&arm](const std::string& to, Bytes& request) {
        auto parsed = MeRequest::deserialize(request);
        if (to == "m1/me" && parsed.ok() &&
            parsed.value().type == MeMsgType::kTransfer) {
          arm = true;
        }
        return true;
      });
  world_.network().set_response_tamper_hook(
      [&arm](const std::string& to, Bytes&) {
        if (arm && to == "m1/me") {
          arm = false;
          return false;
        }
        return true;
      });
  ASSERT_TRUE(enclave->ecall_migration_enqueue_detailed("m1").ok());
  const MigrationStartResult failed = pump_until_resolved(*enclave, "m0");
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.retryable()) << failed.message;
  world_.network().clear_tamper_hook();
  world_.network().clear_response_tamper_hook();
  ASSERT_EQ(me("m1")->pending_incoming_count(), 1u);  // it DID land
  EXPECT_EQ(me("m0")->outgoing_count(), 0u);          // but nothing retained

  // Retry toward the same destination: same nonce, so the re-ship
  // supersedes the orphaned pending entry instead of forking it.
  ASSERT_TRUE(enclave->ecall_migration_enqueue_detailed("m1").ok());
  const MigrationStartResult retried = pump_until_resolved(*enclave, "m0");
  ASSERT_TRUE(retried.ok()) << retried.message;
  EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);  // exactly one
  EXPECT_EQ(me("m0")->outgoing_count(), 1u);

  enclave.reset();
  auto moved = make_app(m1_, image_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(moved->ecall_read_migratable_counter(0).value(), 1u);
}

// ----- the cap as a throughput lever -----

TEST_F(PipelineTest, HigherCapCutsPipelinedDrainWallTime) {
  const auto drain_wall = [](uint32_t cap) {
    World world(/*seed=*/7070);
    world.install_management_enclaves(
        migration::durable_me_factory(world.provider()));
    for (int i = 0; i < 5; ++i) world.add_machine("m" + std::to_string(i));
    orchestrator::FleetRegistry fleet(world);
    for (int i = 0; i < 16; ++i) {
      const std::string name = "knee-" + std::to_string(i);
      auto* enclave = fleet.enclave(
          fleet.launch("m0", name, EnclaveImage::create(name, 1, "acme"))
              .value());
      enclave->ecall_increment_migratable_counter(
          enclave->ecall_create_migratable_counter().value().counter_id);
    }
    orchestrator::Scheduler scheduler(fleet);
    orchestrator::OrchestratorOptions options;
    options.max_inflight_per_machine = cap;
    options.max_inflight_total = 2 * cap;
    options.pipelined = true;
    orchestrator::Orchestrator orch(fleet, scheduler, options);
    const Duration t0 = world.clock().now();
    const auto report = orch.execute(orchestrator::Plan::drain("m0"));
    EXPECT_EQ(report.failed(), 0u);
    EXPECT_EQ(report.succeeded(), 16u);
    return world.clock().now() - t0;
  };
  const Duration serial = drain_wall(1);
  const Duration overlapped = drain_wall(4);
  // The whole point of the refactor: the cap now buys wall time.
  EXPECT_LT(to_seconds(overlapped), 0.9 * to_seconds(serial))
      << "cap-4 " << to_seconds(overlapped) << "s vs cap-1 "
      << to_seconds(serial) << "s";
}

// ----- a frozen enclave never waits behind live work on its lane -----

TEST_F(PipelineTest, AsyncPrecopyFreezeIsTheFinalDeltaUnderLiveLoad) {
  // 16 enclaves with 17 counters each drain from m0 with async pre-copy,
  // while a client issues 2 counter increments on the source lane after
  // every round.  Each of those rounds costs ~0.4 s of lane time; a
  // finalize whose accept queued behind the other in-flight enclaves'
  // rounds froze its enclave for seconds.  The final delta alone is
  // ~0.25 s.
  world_.add_machine("m3");
  for (platform::Machine* m : world_.machines()) {
    me(m->address())->set_async_precopy(true);
  }
  orchestrator::FleetRegistry fleet(world_);
  orchestrator::LaunchOptions launch;
  launch.live_transfer = true;
  constexpr uint32_t kCounters = 17;
  std::map<uint64_t, std::map<uint32_t, uint32_t>> expected;
  for (int i = 0; i < 16; ++i) {
    const std::string name = "live-" + std::to_string(i);
    const uint64_t id =
        fleet.launch("m0", name, EnclaveImage::create(name, 1, "acme"), launch)
            .value();
    for (uint32_t c = 0; c < kCounters; ++c) {
      const uint32_t counter =
          fleet.enclave(id)->ecall_create_migratable_counter().value().counter_id;
      expected[id][counter] = 0;
    }
  }

  orchestrator::Scheduler scheduler(fleet);
  orchestrator::OrchestratorOptions options;
  options.pipelined = true;
  options.transfer_mode = orchestrator::TransferMode::kPrecopy;
  options.max_inflight_per_machine = 8;
  options.max_inflight_total = 16;
  // One migration per destination at a time: a finalize that reaches a
  // destination still restoring another enclave (~4.5 s of PSE counter
  // creates) waits for that restore on the destination's lane.  That is
  // destination contention, not the source-lane ordering tested here.
  options.max_inflight_per_destination = 1;
  orchestrator::Orchestrator orch(fleet, scheduler, options);
  orch.set_round_hook([&fleet, &expected](uint64_t id, uint32_t round) {
    std::map<uint32_t, uint32_t>& values = expected[id];
    for (uint32_t op = 0; op < 2; ++op) {
      const uint32_t counter =
          static_cast<uint32_t>(id * 3 + round * 2 + op) % kCounters;
      const Result<uint32_t> written =
          fleet.enclave(id)->ecall_increment_migratable_counter(counter);
      ASSERT_TRUE(written.ok());
      values[counter] = written.value();
    }
  });

  const auto report = orch.execute(orchestrator::Plan::drain("m0"));
  EXPECT_EQ(report.succeeded(), 16u);
  EXPECT_EQ(report.failed(), 0u);
  for (const auto& migration : report.migrations) {
    if (!migration.success) continue;
    EXPECT_LE(to_seconds(migration.freeze_window), 0.5)
        << migration.name << " froze behind other enclaves' live rounds";
  }
  uint32_t writes = 0;
  for (const auto& [id, values] : expected) {
    auto* enclave = fleet.enclave(id);
    ASSERT_NE(enclave, nullptr);
    for (const auto& [counter, value] : values) {
      EXPECT_EQ(enclave->ecall_read_migratable_counter(counter).value(), value)
          << "enclave " << id << " counter " << counter;
      writes += value;
    }
  }
  EXPECT_GE(writes, 2u * 16u);  // every enclave ran at least one round
}

// ----- mixed fault storm: tamper + reply loss + ME crashes -----

TEST_F(PipelineTest, PipelinedDrainConvergesThroughMixedFaultStorm) {
  for (const char* address : {"m3", "m4"}) world_.add_machine(address);
  orchestrator::FleetRegistry fleet(world_);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 12; ++i) {
    const std::string name = "storm-" + std::to_string(i);
    auto launched =
        fleet.launch("m0", name, EnclaveImage::create(name, 1, "acme"));
    ASSERT_TRUE(launched.ok());
    ids.push_back(launched.value());
    auto* enclave = fleet.enclave(ids.back());
    const uint32_t counter =
        enclave->ecall_create_migratable_counter().value().counter_id;
    for (int j = 0; j <= i; ++j) {
      enclave->ecall_increment_migratable_counter(counter);
    }
  }

  // Storm: every 11th sealed record bound for an ME is corrupted in
  // flight (failing its channel MAC — the retryable kind of tamper; a
  // corrupted attestation HANDSHAKE is classified fatal by design),
  // every 13th reply is dropped after processing, and the source ME
  // crashes mid-drain (revived two waves later).
  uint64_t requests = 0;
  world_.network().set_tamper_hook([&](const std::string& to, Bytes& request) {
    if (to.find("/me") == std::string::npos) return true;
    auto parsed = MeRequest::deserialize(request);
    if (!parsed.ok()) return true;
    const MeMsgType type = parsed.value().type;
    const bool sealed_record =
        type == MeMsgType::kLaRecord || type == MeMsgType::kTransfer ||
        type == MeMsgType::kDone || type == MeMsgType::kPrecopyChunk;
    if (sealed_record && ++requests % 11 == 0 && !request.empty()) {
      request[request.size() - 1] ^= 0x40;  // inside the sealed payload
    }
    return true;
  });
  uint64_t replies = 0;
  world_.network().set_response_tamper_hook(
      [&](const std::string& to, Bytes&) {
        return to.find("/me") == std::string::npos || ++replies % 13 != 0;
      });

  // Reply loss can kill a destination instance AFTER it fetched: the
  // replacement instance is then pin-blocked.  Shorten the takeover dial
  // so the storm's retry cadence (bounded virtual-time backoff) can
  // reach it — the paper-strict default would strand the migration for
  // 120 virtual seconds.
  for (const char* address : {"m1", "m2", "m3", "m4"}) {
    me(address)->set_delivery_takeover_timeout(seconds(2));
  }

  orchestrator::Scheduler scheduler(fleet);
  orchestrator::OrchestratorOptions options;
  options.max_inflight_per_machine = 4;
  options.max_inflight_total = 8;
  options.max_attempts = 10;
  options.pipelined = true;
  orchestrator::Orchestrator orch(fleet, scheduler, options);
  size_t completions = 0;
  fleet.set_completion_callback([&](const orchestrator::EnclaveRecord&) {
    if (++completions == 2) machine("m0").kill_management_enclave();
  });
  uint32_t waves_down = 0;
  orch.set_wave_hook([&](uint32_t) {
    if (machine("m0").has_management_enclave()) return;
    if (++waves_down >= 3) machine("m0").restart_management_enclave();
  });
  const auto report = orch.execute(orchestrator::Plan::drain("m0"));
  world_.network().clear_tamper_hook();
  world_.network().clear_response_tamper_hook();

  EXPECT_EQ(report.succeeded(), 12u);
  EXPECT_EQ(report.failed(), 0u);
  EXPECT_GT(report.total_retries(), 0u);  // the storm was actually felt
  EXPECT_EQ(fleet.count_on("m0"), 0u);

  // No lost state, no forks: every counter exact, every queue drained.
  for (size_t i = 0; i < ids.size(); ++i) {
    auto value = fleet.enclave(ids[i])->ecall_read_migratable_counter(0);
    ASSERT_TRUE(value.ok()) << "enclave " << ids[i];
    EXPECT_EQ(value.value(), static_cast<uint32_t>(i + 1));
  }
  for (const uint64_t id : ids) {
    EXPECT_EQ(machine("m0").counter_service().count_for(
                  fleet.find(id)->image->mr_enclave()),
              0u);
  }
  for (const char* address : {"m0", "m1", "m2", "m3", "m4"}) {
    EXPECT_EQ(me(address)->retry_done_relays(), 0u) << address;
    EXPECT_EQ(me(address)->pending_incoming_count(), 0u) << address;
    EXPECT_EQ(me(address)->transfer_task_count(), 0u) << address;
  }
  EXPECT_EQ(me("m0")->outgoing_count(), 0u);
}

// ----- proactive abort on re-route + staging age sweep -----

TEST_F(PipelineTest, RerouteAbortsOrphanedPendingEntryImmediately) {
  auto enclave = start_new(m0_, image_);
  enclave->ecall_increment_migratable_counter(
      enclave->ecall_create_migratable_counter().value().counter_id);

  // Manufacture the lost-ACCEPTED orphan at m1.
  bool arm = false;
  world_.network().set_tamper_hook(
      [&arm](const std::string& to, Bytes& request) {
        auto parsed = MeRequest::deserialize(request);
        if (to == "m1/me" && parsed.ok() &&
            parsed.value().type == MeMsgType::kTransfer) {
          arm = true;
        }
        return true;
      });
  world_.network().set_response_tamper_hook(
      [&arm](const std::string& to, Bytes&) {
        if (arm && to == "m1/me") {
          arm = false;
          return false;
        }
        return true;
      });
  EXPECT_NE(enclave->ecall_migration_start("m1"), Status::kOk);
  world_.network().clear_tamper_hook();
  world_.network().clear_response_tamper_hook();
  ASSERT_EQ(me("m1")->pending_incoming_count(), 1u);

  // Re-route to m2: the library notifies its ME, which sends kAbort to
  // m1 over a fresh attested channel — the orphan dies NOW, not at the
  // next reconcile sweep for this enclave->machine pair.
  ASSERT_EQ(enclave->ecall_migration_start("m2"), Status::kOk);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 0u);

  enclave.reset();
  auto moved = make_app(m2_, image_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m2"),
            Status::kOk);
  EXPECT_EQ(moved->ecall_read_migratable_counter(0).value(), 1u);
}

TEST_F(PipelineTest, AbandonedPrecopyStagingIsSweptByAge) {
  auto enclave = start_new(m0_, image_, /*live_transfer=*/true);
  enclave->ecall_increment_migratable_counter(
      enclave->ecall_create_migratable_counter().value().counter_id);
  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());
  ASSERT_EQ(me("m1")->precopy_staging_count(), 1u);

  // The source never finalizes (operator abandoned the migration; no
  // abort ever reaches m1).  Well past the age bound, the sweep expires
  // the staging and its orphaned inbound channel.
  world_.clock().advance(seconds(601));
  EXPECT_EQ(me("m1")->sweep_stale_precopy_staging(), 1u);
  EXPECT_EQ(me("m1")->precopy_staging_count(), 0u);

  // A migration attempted later still lands: the finalize manifest
  // misses, the source answers kPrecopyIncomplete by re-shipping the
  // full staged set, and the transfer completes.
  ASSERT_EQ(enclave->ecall_migration_finalize("m1"), Status::kOk);
  ASSERT_EQ(me("m1")->pending_incoming_count(), 1u);
  enclave.reset();
  auto moved = make_app(m1_, image_, /*live_transfer=*/true);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(moved->ecall_read_migratable_counter(0).value(), 1u);
}

}  // namespace
}  // namespace sgxmig
