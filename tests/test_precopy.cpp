// Live pre-copy migration tests: iterative dirty-chunk rounds while the
// enclave keeps serving, a finalize that freezes only for the last delta
// and one PSE retire of the source's counters and epoch guard, and the
// chaos paths — dropped mid-round chunks, lost acks, ME restarts between
// rounds, lost finalize replies — all of which must resume or supersede
// with no forked state.  Also covers the pending-entry reconciliation
// sweep (lost-ACCEPTED re-route orphan) and the orchestrated 32-enclave
// pre-copy drain through ME restarts.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "migration/migratable_enclave.h"
#include "migration/migration_enclave.h"
#include "obs/observability.h"
#include "orchestrator/orchestrator.h"
#include "platform/world.h"

namespace sgxmig {
namespace {

using migration::InitState;
using migration::MeMsgType;
using migration::MeRequest;
using migration::MigratableEnclave;
using migration::MigrationEnclave;
using migration::MigrationStartResult;
using migration::OutgoingState;
using platform::World;
using sgx::EnclaveImage;

class PrecopyTest : public ::testing::Test {
 protected:
  PrecopyTest() {
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

  std::unique_ptr<MigratableEnclave> make_app(platform::Machine& m,
                                              bool live_transfer = true) {
    auto enclave = std::make_unique<MigratableEnclave>(
        m, image_, migration::PersistenceMode::kSync,
        migration::GroupCommitOptions{}, live_transfer);
    enclave->set_persist_callback(
        [&m](ByteView s) { m.storage().put("ml", s); });
    return enclave;
  }
  std::unique_ptr<MigratableEnclave> start_new(platform::Machine& m,
                                               bool live_transfer = true) {
    auto enclave = make_app(m, live_transfer);
    EXPECT_EQ(enclave->ecall_migration_init(ByteView(), InitState::kNew,
                                            m.address()),
              Status::kOk);
    return enclave;
  }

  // A pre-copy round toward `round_destination`, live writes, then a
  // full-snapshot start toward m1.  The start supersedes the pre-copy
  // attempt and aborts its nonce like any superseded nonce, so neither ME
  // keeps the round's state (no janitor runs here), and the snapshot
  // restores the values written after the round.
  void start_after_round(const std::string& round_destination) {
    auto enclave = start_new(m0_);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
    }
    enclave->ecall_increment_migratable_counter(0);
    ASSERT_TRUE(enclave->ecall_migration_precopy_round(round_destination).ok());
    ASSERT_EQ(me("m0")->transfer_task_count(), 1u);
    ASSERT_EQ(me(round_destination)->precopy_staging_count(), 1u);
    enclave->ecall_increment_migratable_counter(2);
    enclave->ecall_increment_migratable_counter(2);

    ASSERT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
    EXPECT_EQ(enclave->last_precopy_rounds(), 0u);
    EXPECT_EQ(me("m0")->transfer_task_count(), 0u);
    EXPECT_EQ(me(round_destination)->precopy_staging_count(), 0u);
    enclave.reset();

    auto moved = make_app(m1_);
    ASSERT_EQ(
        moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
        Status::kOk);
    EXPECT_EQ(moved->active_counters(), 3u);
    EXPECT_EQ(moved->ecall_read_migratable_counter(0).value(), 1u);
    EXPECT_EQ(moved->ecall_read_migratable_counter(1).value(), 0u);
    EXPECT_EQ(moved->ecall_read_migratable_counter(2).value(), 2u);
  }

  // Pumps the async source ME and the network, then polls, until the
  // queued finalize resolves (or 16 tries pass).
  MigrationStartResult drive_queued_finalize(MigratableEnclave& enclave,
                                             MigrationStartResult fin) {
    for (int i = 0; i < 16 && fin.status == Status::kMigrationInProgress;
         ++i) {
      me("m0")->pump();
      world_.network().pump_all();
      fin = enclave.ecall_migration_poll_transfer();
    }
    return fin;
  }

  // The newest Table II buffer on m0's disk (what a restart reloads).
  Bytes source_disk_buffer() { return m0_.storage().get("ml").value(); }

  // The persist.fence spans wholly inside the last freeze span, in the
  // order they opened.
  std::vector<obs::TraceSpan> fences_in_last_freeze() {
    const obs::TraceRecorder& trace = world_.observability().trace;
    const obs::TraceSpan* freeze = nullptr;
    for (const obs::TraceSpan& span : trace.spans()) {
      if (span.name == "freeze") freeze = &span;
    }
    std::vector<obs::TraceSpan> fences;
    if (freeze == nullptr) return fences;
    for (const obs::TraceSpan& span : trace.spans()) {
      if (span.name == "persist.fence" && span.start >= freeze->start &&
          span.end <= freeze->end) {
        fences.push_back(span);
      }
    }
    return fences;
  }

  // A pre-copy round, a final delta on counter 1, then a finalize toward
  // m1, driven to the accept; returns m0's disk buffer from just before
  // the finalize.
  Bytes finalize_after_round(MigratableEnclave& enclave) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(enclave.ecall_create_migratable_counter().ok());
    }
    enclave.ecall_increment_migratable_counter(0);
    EXPECT_TRUE(enclave.ecall_migration_precopy_round("m1").ok());
    me("m0")->pump();
    world_.network().pump_all();
    enclave.ecall_increment_migratable_counter(1);
    const Bytes before = source_disk_buffer();
    const auto fin = drive_queued_finalize(
        enclave, enclave.ecall_migration_finalize_detailed("m1"));
    EXPECT_TRUE(fin.ok()) << fin.message;
    return before;
  }

  // The restored instance on m1 holds the rounds and the final delta.
  void expect_moved_with_final_delta() {
    auto moved = make_app(m1_);
    ASSERT_EQ(
        moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
        Status::kOk);
    EXPECT_EQ(moved->active_counters(), 3u);
    EXPECT_EQ(moved->ecall_read_migratable_counter(0).value(), 1u);
    EXPECT_EQ(moved->ecall_read_migratable_counter(1).value(), 1u);
    EXPECT_EQ(moved->ecall_read_migratable_counter(2).value(), 0u);
  }

  // A pre-copy finalize writes no freeze flag: the retire killed the
  // epoch guard first, so m0's newest buffer is the pre-freeze one, and
  // it refuses to restore all the same.
  void latest_buffer_refused_after_finalize(bool async_precopy) {
    me("m0")->set_async_precopy(async_precopy);
    auto enclave = start_new(m0_);
    const Bytes before = finalize_after_round(*enclave);
    const Bytes latest = source_disk_buffer();
    EXPECT_EQ(latest, before);
    EXPECT_EQ(enclave->sealed_state(), latest);
    enclave.reset();
    auto forked = make_app(m0_);
    EXPECT_EQ(forked->ecall_migration_init(latest, InitState::kRestore, "m0"),
              Status::kMigrationFrozen);
    expect_moved_with_final_delta();
  }

  World world_{/*seed=*/4243};
  platform::Machine& m0_ = world_.add_machine("m0");
  platform::Machine& m1_ = world_.add_machine("m1");
  platform::Machine& m2_ = world_.add_machine("m2");
  std::shared_ptr<const EnclaveImage> image_ =
      EnclaveImage::create("pc-app", 1, "acme");
};

// ----- basic protocol -----

TEST_F(PrecopyTest, RoundsShipOnlyDirtyChunksAndPreserveValues) {
  auto enclave = start_new(m0_);
  // 20 counters span two 16-slot chunks.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  }
  for (uint32_t i = 0; i < 5; ++i) {
    enclave->ecall_increment_migratable_counter(i);
  }

  auto r0 = enclave->ecall_migration_precopy_round("m1");
  ASSERT_TRUE(r0.ok());
  EXPECT_EQ(r0.value().round, 0u);
  EXPECT_EQ(r0.value().chunks_shipped, 2u);  // both populated chunks
  EXPECT_EQ(me("m1")->precopy_staging_count(), 1u);

  // The enclave is NOT frozen between rounds: live mutations continue.
  EXPECT_FALSE(enclave->migration_frozen());
  EXPECT_TRUE(enclave->ecall_increment_migratable_counter(5).ok());

  auto r1 = enclave->ecall_migration_precopy_round("m1");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value().round, 1u);
  EXPECT_EQ(r1.value().chunks_shipped, 1u);  // only chunk 0 was dirtied

  // One more live mutation becomes the finalize delta.
  EXPECT_TRUE(enclave->ecall_increment_migratable_counter(17).ok());
  const auto fin = enclave->ecall_migration_finalize_detailed("m1");
  ASSERT_TRUE(fin.ok()) << fin.message;
  EXPECT_TRUE(enclave->migration_frozen());
  EXPECT_EQ(enclave->ecall_increment_migratable_counter(0).status(),
            Status::kMigrationFrozen);
  // Freeze window = final delta + one counter retire + persist, way
  // below the 20 reads + 21 destroys a full snapshot would pay while
  // frozen.
  EXPECT_LT(to_seconds(enclave->last_freeze_window()), 1.0);
  EXPECT_EQ(enclave->last_precopy_rounds(), 2u);
  EXPECT_EQ(me("m1")->precopy_staging_count(), 0u);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);
  EXPECT_EQ(me("m0")->outgoing_state(image_->mr_enclave()),
            OutgoingState::kPending);
  enclave.reset();

  auto moved = make_app(m1_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(moved->ecall_read_migratable_counter(i).value(), 1u);
  }
  EXPECT_EQ(moved->ecall_read_migratable_counter(5).value(), 1u);
  EXPECT_EQ(moved->ecall_read_migratable_counter(17).value(), 1u);
  EXPECT_EQ(moved->ecall_read_migratable_counter(7).value(), 0u);
  EXPECT_EQ(moved->active_counters(), 20u);
  // The source ME was DONE-confirmed during the fetch+confirm.
  EXPECT_EQ(me("m0")->outgoing_state(image_->mr_enclave()),
            OutgoingState::kCompleted);
}

TEST_F(PrecopyTest, PrecopyRequiresLiveTransferCapability) {
  auto legacy = start_new(m0_, /*live_transfer=*/false);
  ASSERT_TRUE(legacy->ecall_create_migratable_counter().ok());
  EXPECT_EQ(legacy->ecall_migration_precopy_round("m1").status(),
            Status::kInvalidState);
  const auto fin = legacy->ecall_migration_finalize_detailed("m1");
  EXPECT_EQ(fin.status, Status::kInvalidState);
  EXPECT_FALSE(fin.retryable());
  // The paper path still works for legacy enclaves.
  EXPECT_EQ(legacy->ecall_migration_start("m1"), Status::kOk);
}

TEST_F(PrecopyTest, FinalizeWithoutRoundsIsPureStopAndCopy) {
  auto enclave = start_new(m0_);
  ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  enclave->ecall_increment_migratable_counter(0);
  const auto fin = enclave->ecall_migration_finalize_detailed("m1");
  ASSERT_TRUE(fin.ok()) << fin.message;
  EXPECT_EQ(enclave->last_precopy_rounds(), 0u);
  enclave.reset();
  auto moved = make_app(m1_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(moved->ecall_read_migratable_counter(0).value(), 1u);
}

// ----- the seam between the two transfer modes -----

TEST_F(PrecopyTest, StartAfterRoundTowardSameDestinationAbortsTheRound) {
  start_after_round("m1");
}

TEST_F(PrecopyTest, StartAfterRoundTowardAnotherDestinationAbortsTheRound) {
  start_after_round("m2");
}

// ----- epoch guard: no fork through rolled-back sealed buffers -----

TEST_F(PrecopyTest, RolledBackBufferRefusedAfterFinalize) {
  auto enclave = start_new(m0_);
  ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  enclave->ecall_increment_migratable_counter(0);
  // Adversary keeps a pre-migration sealed buffer (not frozen, counters
  // alive at snapshot time).
  const Bytes stale = enclave->sealed_state();

  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());
  ASSERT_TRUE(enclave->ecall_migration_finalize_detailed("m1").ok());
  enclave.reset();
  auto moved = make_app(m1_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);

  // The §III-B fork attempt: restore the stale buffer on the source.
  // The finalize retired the epoch guard, so the rollback is refused even
  // though the buffer itself carries no freeze flag.
  auto forked = make_app(m0_);
  EXPECT_EQ(forked->ecall_migration_init(stale, InitState::kRestore, "m0"),
            Status::kMigrationFrozen);
}

// The freeze flag's fence is gone from the pre-copy finalize: the
// retired guard refuses even the newest buffer, which carries no flag.
TEST_F(PrecopyTest, LatestBufferRefusedAfterSyncFinalize) {
  latest_buffer_refused_after_finalize(/*async_precopy=*/false);
}

TEST_F(PrecopyTest, LatestBufferRefusedAfterAsyncFinalize) {
  latest_buffer_refused_after_finalize(/*async_precopy=*/true);
}

// Where no guard died, the flag is still the refusal, so it is still
// written durably: a legacy lineage (no guard at all) ...
TEST_F(PrecopyTest, LegacyLineageStillPersistsTheFreezeFlag) {
  auto enclave = start_new(m0_, /*live_transfer=*/false);
  ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  const Bytes before = source_disk_buffer();
  ASSERT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
  const Bytes latest = source_disk_buffer();
  EXPECT_NE(latest, before);
  enclave.reset();
  auto forked = make_app(m0_, /*live_transfer=*/false);
  EXPECT_EQ(forked->ecall_migration_init(latest, InitState::kRestore, "m0"),
            Status::kMigrationFrozen);
}

// ... and the disabled-guard drill, whose guard survives the finalize.
TEST_F(PrecopyTest, DisabledGuardDrillStillPersistsTheFreezeFlag) {
  auto enclave = start_new(m0_);
  enclave->chaos_disable_epoch_guard();
  const Bytes before = finalize_after_round(*enclave);
  const Bytes latest = source_disk_buffer();
  EXPECT_NE(latest, before);
  enclave.reset();
  auto forked = make_app(m0_);
  EXPECT_EQ(forked->ecall_migration_init(latest, InitState::kRestore, "m0"),
            Status::kMigrationFrozen);
  // The guard is alive: the pre-freeze buffer restores — the fork the
  // drill exists to show.
  auto fork = make_app(m0_);
  EXPECT_EQ(fork->ecall_migration_init(before, InitState::kRestore, "m0"),
            Status::kOk);
}

// The source ME no longer persists a finalize it takes: a restart before
// the pump loses it, and the still-frozen library re-sends it.
TEST_F(PrecopyTest, AsyncFinalizeLostToMeRestartIsResent) {
  me("m0")->set_async_precopy(true);
  auto enclave = start_new(m0_);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  }
  enclave->ecall_increment_migratable_counter(0);
  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());
  me("m0")->pump();
  world_.network().pump_all();
  enclave->ecall_increment_migratable_counter(1);
  const auto queued = enclave->ecall_migration_finalize_detailed("m1");
  ASSERT_EQ(queued.status, Status::kMigrationInProgress) << queued.message;

  restart_me("m0");
  const auto lost = enclave->ecall_migration_poll_transfer();
  EXPECT_EQ(lost.status, Status::kServiceUnavailable) << lost.message;
  EXPECT_TRUE(lost.retryable());
  EXPECT_TRUE(enclave->migration_frozen());

  const auto fin = drive_queued_finalize(
      *enclave, enclave->ecall_migration_finalize_detailed("m1"));
  ASSERT_TRUE(fin.ok()) << fin.message;
  EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);
  EXPECT_EQ(me("m1")->precopy_staging_count(), 0u);
  EXPECT_EQ(me("m0")->transfer_task_count(), 0u);
  enclave.reset();
  expect_moved_with_final_delta();
}

// ----- the durable writes inside a freeze (persist.fence spans) -----

// An async pre-copy freeze waits for two fences: the destination's
// pending entry, then the source's retain.
TEST_F(PrecopyTest, AsyncPrecopyFreezeHoldsTwoFences) {
  me("m0")->set_async_precopy(true);
  world_.observability().set_enabled(true);
  auto enclave = start_new(m0_);
  finalize_after_round(*enclave);
  const std::vector<obs::TraceSpan> fences = fences_in_last_freeze();
  ASSERT_EQ(fences.size(), 2u);
  EXPECT_EQ(fences[0].lane, "m1");
  EXPECT_EQ(fences[1].lane, "m0");
  for (const obs::TraceSpan& fence : fences) {
    EXPECT_NE(fence.trace_id, 0u);
    EXPECT_EQ(fence.args.front(),
              std::make_pair(std::string("kind"),
                             std::string("transfer-queue")));
  }
}

// The paper's blocking full-snapshot freeze keeps all three: the freeze
// flag, the destination's pending entry and the source's retain.
TEST_F(PrecopyTest, LegacyFullSnapshotFreezeKeepsItsFences) {
  world_.observability().set_enabled(true);
  auto enclave = start_new(m0_, /*live_transfer=*/false);
  ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  ASSERT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
  const std::vector<obs::TraceSpan> fences = fences_in_last_freeze();
  ASSERT_EQ(fences.size(), 3u);
  EXPECT_EQ(fences[0].lane, "m0");
  EXPECT_EQ(fences[0].args.front(),
            std::make_pair(std::string("kind"), std::string("freeze")));
  EXPECT_EQ(fences[1].lane, "m1");
  EXPECT_EQ(fences[2].lane, "m0");
}

TEST_F(PrecopyTest, AsyncFinalizeRetiresTheCountersInsideTheFreeze) {
  me("m0")->set_async_precopy(true);
  auto enclave = start_new(m0_);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  }
  enclave->ecall_increment_migratable_counter(0);
  const Bytes stale = enclave->sealed_state();
  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());
  me("m0")->pump();
  world_.network().pump_all();
  enclave->ecall_increment_migratable_counter(1);

  // The async source ME queues the finalize record: nothing has reached
  // the destination yet, so the destination has accepted nothing.
  const auto fin = enclave->ecall_migration_finalize_detailed("m1");
  ASSERT_EQ(fin.status, Status::kMigrationInProgress) << fin.message;
  ASSERT_EQ(fin.failure_class, migration::MigrationFailureClass::kNone);
  ASSERT_TRUE(enclave->migration_frozen());
  ASSERT_EQ(me("m1")->pending_incoming_count(), 0u);
  // The counters died inside the freeze, before the data left: the three
  // application counters plus the epoch guard, in one PSE op.
  EXPECT_EQ(m0_.counter_service().retired_count(), 4u);
  auto forked = make_app(m0_);
  EXPECT_EQ(forked->ecall_migration_init(stale, InitState::kRestore, "m0"),
            Status::kMigrationFrozen);

  MigrationStartResult accepted;
  for (int i = 0; i < 16; ++i) {
    me("m0")->pump();
    world_.network().pump_all();
    accepted = enclave->ecall_migration_poll_transfer();
    if (accepted.status != Status::kMigrationInProgress) break;
  }
  ASSERT_TRUE(accepted.ok()) << accepted.message;
  // The accept tears nothing down a second time.
  EXPECT_EQ(m0_.counter_service().retired_count(), 4u);
  enclave.reset();
  auto moved = make_app(m1_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(moved->ecall_read_migratable_counter(0).value(), 1u);
  EXPECT_EQ(moved->ecall_read_migratable_counter(1).value(), 1u);
  EXPECT_EQ(moved->ecall_read_migratable_counter(2).value(), 0u);
}

TEST_F(PrecopyTest, FinalizeReroutedAfterTheFreezeRestoresFromTheCache) {
  auto enclave = start_new(m0_);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  }
  enclave->ecall_increment_migratable_counter(0);
  const Bytes stale = enclave->sealed_state();
  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());
  enclave->ecall_increment_migratable_counter(2);
  enclave->ecall_increment_migratable_counter(2);

  // m1's ME goes down after the round: the finalize freezes, retires the
  // source's counters and fails to ship.
  world_.network().set_endpoint_down("m1/me", true);
  const auto failed = enclave->ecall_migration_finalize_detailed("m1");
  EXPECT_FALSE(failed.ok());
  EXPECT_TRUE(enclave->migration_frozen());
  EXPECT_EQ(m0_.counter_service().retired_count(), 4u);

  // The re-route to m2 ships the cached staged set and final delta; no
  // hardware counter is read again.
  const auto rerouted = enclave->ecall_migration_finalize_detailed("m2");
  ASSERT_TRUE(rerouted.ok()) << rerouted.message;
  EXPECT_EQ(m0_.counter_service().retired_count(), 4u);
  enclave.reset();
  auto moved = make_app(m2_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m2"),
            Status::kOk);
  EXPECT_EQ(moved->active_counters(), 3u);
  EXPECT_EQ(moved->ecall_read_migratable_counter(0).value(), 1u);
  EXPECT_EQ(moved->ecall_read_migratable_counter(1).value(), 0u);
  EXPECT_EQ(moved->ecall_read_migratable_counter(2).value(), 2u);

  auto forked = make_app(m0_);
  EXPECT_EQ(forked->ecall_migration_init(stale, InitState::kRestore, "m0"),
            Status::kMigrationFrozen);
}

TEST_F(PrecopyTest, CoResidentInstanceKeepsItsCounters) {
  // Two instances of the same enclave (one MRENCLAVE) on m0; A moves.
  auto a = start_new(m0_);
  auto b = start_new(m0_);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(a->ecall_create_migratable_counter().ok());
  }
  a->ecall_increment_migratable_counter(1);
  ASSERT_TRUE(b->ecall_create_migratable_counter().ok());
  ASSERT_EQ(b->ecall_increment_migratable_counter(0).value(), 1u);

  ASSERT_TRUE(a->ecall_migration_precopy_round("m1").ok());
  const auto fin = a->ecall_migration_finalize_detailed("m1");
  ASSERT_TRUE(fin.ok()) << fin.message;
  // A's retire named A's counters only: B keeps serving.
  EXPECT_EQ(m0_.counter_service().retired_count(), 3u);
  const Result<uint32_t> read = b->ecall_read_migratable_counter(0);
  ASSERT_TRUE(read.ok()) << status_name(read.status());
  EXPECT_EQ(read.value(), 1u);
  const Result<uint32_t> written = b->ecall_increment_migratable_counter(0);
  ASSERT_TRUE(written.ok()) << status_name(written.status());
  EXPECT_EQ(written.value(), 2u);

  a.reset();
  auto moved = make_app(m1_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(moved->ecall_read_migratable_counter(0).value(), 0u);
  EXPECT_EQ(moved->ecall_read_migratable_counter(1).value(), 1u);
}

// ----- chaos: dropped chunks, lost acks, ME restarts -----

TEST_F(PrecopyTest, DroppedMidRoundChunkResumesWithoutFork) {
  auto enclave = start_new(m0_);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  }
  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());
  enclave->ecall_increment_migratable_counter(3);

  // The network swallows the next ME->ME pre-copy chunk record.
  int dropped = 0;
  world_.network().set_tamper_hook(
      [&dropped](const std::string& to, Bytes& request) {
        auto parsed = MeRequest::deserialize(request);
        if (to == "m1/me" && parsed.ok() &&
            parsed.value().type == MeMsgType::kPrecopyChunk) {
          ++dropped;
          return false;
        }
        return true;
      });
  auto failed = enclave->ecall_migration_precopy_round("m1");
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(dropped, 1);
  world_.network().clear_tamper_hook();

  // The retry re-attests ME-to-ME and re-ships the merged set; the
  // destination converges by chunk generation.
  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());
  enclave->ecall_increment_migratable_counter(18);
  ASSERT_TRUE(enclave->ecall_migration_finalize_detailed("m1").ok());
  enclave.reset();
  auto moved = make_app(m1_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(moved->ecall_read_migratable_counter(3).value(), 1u);
  EXPECT_EQ(moved->ecall_read_migratable_counter(18).value(), 1u);
  EXPECT_EQ(moved->active_counters(), 20u);
}

TEST_F(PrecopyTest, LostChunkAckResyncsChannel) {
  auto enclave = start_new(m0_);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  }
  // "Processed but reply lost": the destination stages the round and acks,
  // the ack evaporates.
  bool arm = false;
  world_.network().set_tamper_hook(
      [&arm](const std::string& to, Bytes& request) {
        auto parsed = MeRequest::deserialize(request);
        if (to == "m1/me" && parsed.ok() &&
            parsed.value().type == MeMsgType::kPrecopyChunk) {
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
  EXPECT_FALSE(enclave->ecall_migration_precopy_round("m1").ok());
  world_.network().clear_tamper_hook();
  world_.network().clear_response_tamper_hook();
  EXPECT_EQ(me("m1")->precopy_staging_count(), 1u);  // the round DID land

  enclave->ecall_increment_migratable_counter(1);
  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());
  ASSERT_TRUE(enclave->ecall_migration_finalize_detailed("m1").ok());
  enclave.reset();
  auto moved = make_app(m1_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(moved->ecall_read_migratable_counter(1).value(), 1u);
  EXPECT_EQ(moved->active_counters(), 4u);
}

TEST_F(PrecopyTest, DroppedSyncFinalizeIsReshippedInsideTheCall) {
  auto enclave = start_new(m0_);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  }
  enclave->ecall_increment_migratable_counter(2);
  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());
  const Bytes stale = enclave->sealed_state();
  enclave->ecall_increment_migratable_counter(17);

  // The first finalize record to the destination is lost on the wire.
  // The sync transport re-attests and re-ships the merged set within the
  // same call (the finalize ship budget), so the library sees success.
  int finalizes = 0;
  world_.network().set_tamper_hook([&finalizes](const std::string& to,
                                                Bytes& request) {
    auto parsed = MeRequest::deserialize(request);
    if (to != "m1/me" || !parsed.ok() ||
        parsed.value().type != MeMsgType::kPrecopyFinalize) {
      return true;
    }
    return ++finalizes > 1;
  });
  const auto fin = enclave->ecall_migration_finalize_detailed("m1");
  world_.network().clear_tamper_hook();
  ASSERT_TRUE(fin.ok()) << fin.message;
  EXPECT_EQ(finalizes, 2);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);
  EXPECT_EQ(me("m0")->transfer_task_count(), 0u);

  enclave.reset();
  auto moved = make_app(m1_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(moved->ecall_read_migratable_counter(2).value(), 1u);
  EXPECT_EQ(moved->ecall_read_migratable_counter(17).value(), 1u);
  EXPECT_EQ(moved->active_counters(), 20u);
  auto forked = make_app(m0_);
  EXPECT_EQ(forked->ecall_migration_init(stale, InitState::kRestore, "m0"),
            Status::kMigrationFrozen);
}

/// Commits fail while `*down` is set (an unwritable queue store).
class SwitchablePersist final : public migration::PersistenceEngine {
 public:
  explicit SwitchablePersist(std::shared_ptr<const bool> down)
      : down_(std::move(down)) {}
  migration::PersistenceMode mode() const override {
    return migration::PersistenceMode::kSync;
  }
  Status on_mutation(migration::PersistSink& sink,
                     migration::MutationKind /*kind*/) override {
    note_mutation();
    return *down_ ? Status::kSealFailure : commit(sink);
  }
  Status flush(migration::PersistSink& /*sink*/) override {
    return Status::kOk;
  }
  bool has_pending() const override { return false; }

 private:
  std::shared_ptr<const bool> down_;
};

// The finalize's accept goes through the same success tail as a
// full-snapshot accept: when the retained copy cannot be made durable it
// is unwound, not left standing, and the attempt stays live for a retry.
TEST_F(PrecopyTest, FinalizeWhoseRetainCannotPersistIsUnwound) {
  auto down = std::make_shared<bool>(false);
  m0_.install_management_enclave([this, down](platform::Machine& m) {
    return std::make_unique<MigrationEnclave>(
        m, MigrationEnclave::standard_image(), world_.provider(),
        std::make_unique<SwitchablePersist>(down));
  });
  auto enclave = start_new(m0_);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  }
  enclave->ecall_increment_migratable_counter(2);
  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());
  enclave->ecall_increment_migratable_counter(17);

  // Every ship of the finalize lands, and every retain fails to persist:
  // the sync transport spends its ship budget and reports the failure.
  *down = true;
  const auto failed = enclave->ecall_migration_finalize_detailed("m1");
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(me("m0")->outgoing_count(), 0u);
  EXPECT_EQ(me("m0")->transfer_task_count(), 1u);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);

  // Storage is back: the frozen library re-sends the finalize under the
  // same nonce, which re-ships and supersedes its own pending entry.
  *down = false;
  const auto fin = enclave->ecall_migration_finalize_detailed("m1");
  ASSERT_TRUE(fin.ok()) << fin.message;
  EXPECT_EQ(me("m0")->outgoing_count(), 1u);
  EXPECT_EQ(me("m0")->transfer_task_count(), 0u);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);

  enclave.reset();
  auto moved = make_app(m1_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(moved->ecall_read_migratable_counter(2).value(), 1u);
  EXPECT_EQ(moved->ecall_read_migratable_counter(17).value(), 1u);
  EXPECT_EQ(me("m0")->outgoing_count(), 0u);
}

TEST_F(PrecopyTest, SyncRoundReattestsAfterDestinationSweptStaging) {
  auto enclave = start_new(m0_);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  }
  enclave->ecall_increment_migratable_counter(4);
  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());

  // The destination ages the staging out together with its inbound
  // channel, so it no longer knows the conversation (kInvalidState).
  world_.clock().advance(seconds(601));
  EXPECT_EQ(me("m1")->sweep_stale_precopy_staging(), 1u);
  EXPECT_EQ(me("m1")->precopy_staging_count(), 0u);

  // The next sync round re-attests once and re-ships the merged set
  // inside the same call, so the library sees success.
  enclave->ecall_increment_migratable_counter(11);
  const auto round = enclave->ecall_migration_precopy_round("m1");
  ASSERT_EQ(round.status(), Status::kOk);
  EXPECT_EQ(me("m1")->precopy_staging_count(), 1u);

  ASSERT_TRUE(enclave->ecall_migration_finalize_detailed("m1").ok());
  EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);
  enclave.reset();
  auto moved = make_app(m1_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(moved->ecall_read_migratable_counter(4).value(), 1u);
  EXPECT_EQ(moved->ecall_read_migratable_counter(11).value(), 1u);
  EXPECT_EQ(moved->active_counters(), 20u);
}

TEST_F(PrecopyTest, MeRestartsBetweenRoundsResumeFromDurableQueue) {
  auto enclave = start_new(m0_);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  }
  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());
  EXPECT_EQ(me("m0")->transfer_task_count(), 1u);
  EXPECT_EQ(me("m1")->precopy_staging_count(), 1u);
  const Bytes stale = enclave->sealed_state();

  // Both MEs die and come back between rounds: the source's merged
  // attempt (with its RA channel) and the destination's staging are
  // restored from the sealed queues.
  restart_me("m0");
  restart_me("m1");
  EXPECT_EQ(me("m0")->transfer_task_count(), 1u);
  EXPECT_EQ(me("m1")->precopy_staging_count(), 1u);

  enclave->ecall_increment_migratable_counter(11);
  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());
  ASSERT_TRUE(enclave->ecall_migration_finalize_detailed("m1").ok());
  enclave.reset();
  auto moved = make_app(m1_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(moved->ecall_read_migratable_counter(11).value(), 1u);
  EXPECT_EQ(moved->active_counters(), 20u);

  // No fork: the pre-migration buffer is dead on the source.
  auto forked = make_app(m0_);
  EXPECT_EQ(forked->ecall_migration_init(stale, InitState::kRestore, "m0"),
            Status::kMigrationFrozen);
}

TEST_F(PrecopyTest, LostFinalizeReplyResumesViaNonceQuery) {
  auto enclave = start_new(m0_);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  }
  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());

  // The local ME processes the finalize (transfer retained, destination
  // assembled) but its reply to the library is lost: the first response
  // out of m0's ME after the destination holds the pending entry is
  // exactly the kFinalizeAccepted record.
  bool dropped = false;
  world_.network().set_response_tamper_hook(
      [&dropped, this](const std::string& to, Bytes&) {
        if (!dropped && to == "m0/me" &&
            me("m1")->pending_incoming_count() == 1) {
          dropped = true;
          return false;
        }
        return true;
      });
  const auto fin = enclave->ecall_migration_finalize_detailed("m1");
  world_.network().clear_response_tamper_hook();
  EXPECT_TRUE(dropped);
  // The library noticed the lost reply, re-attested, and resolved the
  // fate of its nonce from the ME's durable queue: success, no re-ship.
  ASSERT_TRUE(fin.ok()) << fin.message;
  EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);
  EXPECT_EQ(me("m0")->outgoing_count(), 1u);
  enclave.reset();

  auto moved = make_app(m1_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(moved->active_counters(), 6u);
}

// ----- pending-entry reconciliation (lost-ACCEPTED re-route orphan) ----

TEST_F(PrecopyTest, ReconcileSweepExpiresOrphanAndUnblocksDestination) {
  auto enclave = start_new(m0_);
  ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  enclave->ecall_increment_migratable_counter(0);

  // The destination ME durably stores the pending copy, then the ACCEPTED
  // ack is lost: the source retains nothing, the library keeps its staged
  // data and fails the attempt.
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
  ASSERT_EQ(me("m1")->pending_incoming_count(), 1u);  // the orphan-to-be
  EXPECT_EQ(me("m0")->outgoing_count(), 0u);

  // Re-route to m2 (fresh nonce).  The re-route normally expires the
  // orphan PROACTIVELY (the library tells its ME, which sends kAbort to
  // m1) — take m1 dark for the re-route so the abort fails and the
  // pull-based reconcile sweep is exercised as the backstop it now is.
  world_.network().set_endpoint_down("m1/me", true);
  ASSERT_EQ(enclave->ecall_migration_start("m2"), Status::kOk);
  world_.network().set_endpoint_down("m1/me", false);
  ASSERT_EQ(me("m1")->pending_incoming_count(), 1u);
  // While that migration is merely PENDING the sweep must stay
  // conservative: the source ME cannot yet vouch the identity moved on.
  EXPECT_EQ(me("m1")->reconcile_pending(image_->mr_enclave()),
            Status::kMigrationInProgress);
  ASSERT_EQ(me("m1")->pending_incoming_count(), 1u);

  // Destination m2 completes (fetch + confirm -> DONE at m0).
  enclave.reset();
  auto moved = make_app(m2_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m2"),
            Status::kOk);
  EXPECT_EQ(moved->ecall_read_migratable_counter(0).value(), 1u);
  EXPECT_EQ(me("m0")->outgoing_state(image_->mr_enclave()),
            OutgoingState::kCompleted);

  // The enclave later migrates m2 -> m1.  Without the sweep the orphan
  // would block this pair with kAlreadyExists forever; the automatic
  // reconciliation against m0 (which now holds a NEWER completed
  // transfer) expires it and the migration proceeds.
  ASSERT_EQ(moved->ecall_migration_start("m1"), Status::kOk);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);
  moved.reset();
  auto back = make_app(m1_);
  ASSERT_EQ(back->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(back->ecall_read_migratable_counter(0).value(), 1u);
  EXPECT_EQ(back->active_counters(), 1u);
}

// One incoming record per identity: a pre-copy round toward a destination
// that holds another instance's undelivered snapshot of the same image is
// refused at the round, while the enclave still serves, instead of at the
// finalize with the enclave frozen.  A staged record is never fetchable.
TEST_F(PrecopyTest, RoundTowardAHeldSlotIsRefusedBeforeTheFreeze) {
  // A ships a full snapshot to m1 and is never restored there.
  auto a = start_new(m0_);
  ASSERT_TRUE(a->ecall_create_migratable_counter().ok());
  ASSERT_EQ(a->ecall_migration_start("m1"), Status::kOk);
  ASSERT_EQ(me("m1")->pending_incoming_count(), 1u);

  // B, a second instance of the same image, is live on m2.  Its round to
  // m1 is refused: m0, A's source, still retains A's copy, so the
  // reconcile cannot expire the held record.
  auto b = start_new(m2_);
  ASSERT_TRUE(b->ecall_create_migratable_counter().ok());
  EXPECT_EQ(b->ecall_migration_precopy_round("m1").status(),
            Status::kAlreadyExists);
  EXPECT_FALSE(b->migration_frozen());
  EXPECT_TRUE(b->ecall_increment_migratable_counter(0).ok());
  EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);
  EXPECT_EQ(me("m1")->precopy_staging_count(), 0u);

  // B's round to m0 stages a record there, which no instance can fetch.
  ASSERT_TRUE(b->ecall_migration_precopy_round("m0").ok());
  ASSERT_EQ(me("m0")->precopy_staging_count(), 1u);
  auto fetcher = make_app(m0_);
  EXPECT_EQ(
      fetcher->ecall_migration_init(ByteView(), InitState::kMigrate, "m0"),
      Status::kNoPendingMigration);
  EXPECT_EQ(me("m0")->precopy_staging_count(), 1u);
}

TEST_F(PrecopyTest, OrchestratorResumesFrozenFinalizeOnRetry) {
  // The finalize is PROCESSED end to end (destination pending, source ME
  // retained) but the source ME then goes black for the library: the
  // accept reply AND the fallback nonce queries are all lost, so the
  // attempt fails retryable with the library frozen and the finalize
  // staged.  The orchestrator's retry must resume the finalize directly —
  // pre-copy rounds are impossible once frozen — and land it exactly
  // once via the ME's nonce dedup.
  orchestrator::FleetRegistry fleet(world_);
  orchestrator::LaunchOptions launch;
  launch.live_transfer = true;
  const uint64_t id =
      fleet.launch("m0", "frozen-resume", image_, launch).value();
  auto* enclave = fleet.enclave(id);
  enclave->ecall_increment_migratable_counter(
      enclave->ecall_create_migratable_counter().value().counter_id);

  bool black_hole_armed = true;
  world_.network().set_response_tamper_hook(
      [this, &black_hole_armed](const std::string& to, Bytes&) {
        if (!black_hole_armed || to != "m0/me") return true;
        return me("m1")->pending_incoming_count() +
                   me("m2")->pending_incoming_count() ==
               0;
      });

  orchestrator::Scheduler scheduler(fleet);
  orchestrator::OrchestratorOptions options;
  options.max_attempts = 4;
  options.transfer_mode = orchestrator::TransferMode::kPrecopy;
  orchestrator::Orchestrator orch(fleet, scheduler, options);
  orch.set_wave_hook([&black_hole_armed](uint32_t wave) {
    if (wave >= 2) black_hole_armed = false;  // the ME "comes back"
  });
  const auto report = orch.execute(orchestrator::Plan::drain("m0"));
  world_.network().clear_response_tamper_hook();

  EXPECT_EQ(report.succeeded(), 1u);
  EXPECT_EQ(report.failed(), 0u);
  ASSERT_EQ(report.migrations.size(), 1u);
  EXPECT_GT(report.migrations[0].attempts, 1u);
  EXPECT_EQ(fleet.count_on("m0"), 0u);
  EXPECT_EQ(fleet.enclave(id)->ecall_read_migratable_counter(0).value(), 1u);
}

// ----- orchestrated pre-copy drain through ME restarts -----

TEST_F(PrecopyTest, Orchestrated32EnclavePrecopyDrainSurvivesMeRestarts) {
  for (int i = 3; i < 5; ++i) {
    world_.add_machine("m" + std::to_string(i));
  }
  orchestrator::FleetRegistry fleet(world_);
  orchestrator::LaunchOptions launch;
  launch.live_transfer = true;
  for (int i = 0; i < 32; ++i) {
    const std::string name = "pc-drain-" + std::to_string(i);
    const auto image = EnclaveImage::create(name, 1, "acme");
    const uint64_t id = fleet.launch("m0", name, image, launch).value();
    auto* enclave = fleet.enclave(id);
    const uint32_t counter =
        enclave->ecall_create_migratable_counter().value().counter_id;
    enclave->ecall_increment_migratable_counter(counter);
  }

  orchestrator::Scheduler scheduler(fleet);
  orchestrator::OrchestratorOptions options;
  options.max_inflight_per_machine = 4;
  options.max_inflight_total = 8;
  options.max_attempts = 6;
  options.transfer_mode = orchestrator::TransferMode::kPrecopy;
  orchestrator::Orchestrator orch(fleet, scheduler, options);

  // Live mutations between rounds AND a source-ME crash mid-drain.
  size_t completions = 0;
  fleet.set_completion_callback(
      [this, &completions](const orchestrator::EnclaveRecord&) {
        if (++completions == 2) machine("m0").kill_management_enclave();
      });
  orch.set_round_hook([&fleet](uint64_t enclave_id, uint32_t) {
    if (auto* enclave = fleet.enclave(enclave_id)) {
      enclave->ecall_increment_migratable_counter(0);
    }
  });
  orch.set_wave_hook([this, waves_down = 0u](uint32_t) mutable {
    if (machine("m0").has_management_enclave()) return;
    if (++waves_down >= 3) machine("m0").restart_management_enclave();
  });

  const auto report = orch.execute(orchestrator::Plan::drain("m0"));
  EXPECT_EQ(report.succeeded(), 32u);
  EXPECT_EQ(report.failed(), 0u);
  EXPECT_EQ(fleet.count_on("m0"), 0u);
  // Freeze windows stay at final-delta scale even under the restart storm.
  EXPECT_LT(report.mean_freeze_window_seconds(), 1.0);
  // No forks: every enclave runs exactly once, with its full history.
  for (const uint64_t id : fleet.all_ids()) {
    auto* enclave = fleet.enclave(id);
    ASSERT_NE(enclave, nullptr);
    // 1 initial increment + one per pre-copy round survived the move.
    EXPECT_GE(enclave->ecall_read_migratable_counter(0).value(), 1u);
    EXPECT_FALSE(enclave->migration_frozen());
  }
}

}  // namespace
}  // namespace sgxmig
