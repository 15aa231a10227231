// Live pre-copy migration tests: iterative dirty-chunk rounds while the
// enclave keeps serving, a finalize that freezes only for the last delta
// and one PSE retire of the source's counters and epoch guard, and the
// chaos paths — dropped mid-round chunks, lost acks, ME restarts between
// rounds, lost finalize replies — all of which must resume or supersede
// with no forked state.  Also covers the pending-entry reconciliation
// sweep (lost-ACCEPTED re-route orphan) and the orchestrated 32-enclave
// pre-copy drain through ME restarts.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chaos/chaos_executor.h"
#include "migration/migratable_enclave.h"
#include "migration/migration_enclave.h"
#include "obs/observability.h"
#include "orchestrator/fleet_builder.h"
#include "orchestrator/orchestrator.h"
#include "platform/world.h"
#include "support/sim_clock.h"

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
    auto enclave = std::make_unique<MigratableEnclave>(m, image_,
                                                       live_transfer);
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

  // Logs the conversation (transfer id) of every pre-copy record sent to
  // m1's ME, and drops round records while `drop_rounds` is set.
  struct PrecopyWire {
    std::vector<uint64_t> rounds;
    std::vector<uint64_t> finalizes;
    bool drop_rounds = false;
  };
  void watch_precopy_wire() {
    world_.network().set_tamper_hook([this](const std::string& to,
                                            Bytes& request) {
      auto parsed = decode_record<MeRequest>(request);
      if (to != "m1/me" || !parsed.ok()) return true;
      if (parsed.value().type == MeMsgType::kPrecopyChunk) {
        wire_.rounds.push_back(parsed.value().id);
        return !wire_.drop_rounds;
      }
      if (parsed.value().type == MeMsgType::kPrecopyFinalize) {
        wire_.finalizes.push_back(parsed.value().id);
      }
      return true;
    });
  }

  // The destination ME dies and comes back without its stored queue.
  void lose_queue(const std::string& address) {
    machine(address).kill_management_enclave();
    for (const char* slot : {"#0", "#1"}) {
      machine(address).storage().remove(address + ".me-queue" + slot);
    }
    ASSERT_TRUE(machine(address).restart_management_enclave());
  }

  // A source ME that lost merged rounds finalized with them all: the
  // library re-sent its whole staged set exactly once, the one finalize
  // went out on a conversation attested after round 0's (no channel or
  // GCM nonce of the dead ME reused), the instance on m1 restores the
  // counters in `ones` at 1 and the rest of the 20 at 0, and neither m0's
  // newest buffer nor a second m1 instance runs.
  void expect_refetched_once_and_moved(
      std::unique_ptr<MigratableEnclave> enclave,
      const std::set<uint32_t>& ones) {
    world_.network().clear_tamper_hook();
    EXPECT_EQ(world_.observability().metrics.counter(
                  "migration.precopy_reships"),
              1u);
    ASSERT_EQ(wire_.finalizes.size(), 1u);
    ASSERT_FALSE(wire_.rounds.empty());
    EXPECT_NE(wire_.finalizes.front(), wire_.rounds.front());
    EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);
    EXPECT_EQ(me("m1")->precopy_staging_count(), 0u);
    const Bytes latest = enclave->sealed_state();
    enclave.reset();
    auto moved = make_app(m1_);
    ASSERT_EQ(
        moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
        Status::kOk);
    EXPECT_EQ(moved->active_counters(), 20u);
    for (uint32_t i = 0; i < 20; ++i) {
      const uint32_t expected = ones.count(i) != 0 ? 1u : 0u;
      EXPECT_EQ(moved->ecall_read_migratable_counter(i).value(), expected)
          << "counter " << i;
    }
    EXPECT_EQ(me("m0")->outgoing_state(image_->mr_enclave()),
              OutgoingState::kCompleted);
    auto forked = make_app(m0_);
    EXPECT_EQ(forked->ecall_migration_init(latest, InitState::kRestore, "m0"),
              Status::kMigrationFrozen);
    auto second = make_app(m1_);
    EXPECT_NE(second->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
              Status::kOk);
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
  PrecopyWire wire_;
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
  EXPECT_FALSE(
      migration::migration_failure_is_retryable(fin.failure_class));
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

// The source ME persists a finalize only when it ships it: a restart
// before the ship loses it, and the still-frozen library re-sends it.
// Here the round's record is still on the wire, so the finalize stages
// behind it.
TEST_F(PrecopyTest, AsyncFinalizeLostToMeRestartIsResent) {
  me("m0")->set_async_precopy(true);
  auto enclave = start_new(m0_);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  }
  enclave->ecall_increment_migratable_counter(0);
  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());
  enclave->ecall_increment_migratable_counter(1);
  const auto queued = enclave->ecall_migration_finalize_detailed("m1");
  ASSERT_EQ(queued.status, Status::kMigrationInProgress) << queued.message;

  restart_me("m0");
  const auto lost = enclave->ecall_migration_poll_transfer();
  EXPECT_EQ(lost.status, Status::kServiceUnavailable) << lost.message;
  EXPECT_TRUE(
      migration::migration_failure_is_retryable(lost.failure_class));
  EXPECT_TRUE(enclave->migration_frozen());

  const auto fin = drive_queued_finalize(
      *enclave, enclave->ecall_migration_finalize_detailed("m1"));
  ASSERT_TRUE(fin.ok()) << fin.message;
  // The restored task attested afresh: the snapshot was cut before the
  // round's record was sealed, so its channel would have sealed the
  // finalize under the round's sequence number (the same GCM nonce).
  EXPECT_EQ(me("m0")->full_handshake_count() +
                me("m0")->resumed_handshake_count(),
            1u);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);
  EXPECT_EQ(me("m1")->precopy_staging_count(), 0u);
  EXPECT_EQ(me("m0")->transfer_task_count(), 0u);
  enclave.reset();
  expect_moved_with_final_delta();
}

// The source ME restarts after the finalize shipped, before its ack: the
// record written at the ship survives, and the restored ME re-attests and
// re-ships it on its own.  The destination keeps its one incoming record.
TEST_F(PrecopyTest, AsyncFinalizeShippedBeforeMeRestartResumesFromItsRecord) {
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
  me("m0")->set_async_precopy(true);
  EXPECT_EQ(me("m0")->transfer_task_count(), 1u);
  // One pump re-attests (the restored channel predates the ack) and
  // re-ships; the destination rebinds its record to the new conversation.
  me("m0")->pump();
  world_.network().pump_all();
  const auto fin = enclave->ecall_migration_poll_transfer();
  ASSERT_TRUE(fin.ok()) << fin.message;
  EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);
  EXPECT_EQ(me("m1")->precopy_staging_count(), 0u);
  EXPECT_EQ(me("m0")->transfer_task_count(), 0u);
  enclave.reset();
  expect_moved_with_final_delta();
  // The one record went to the one instance, and its DONE reached the
  // source.
  auto second = make_app(m1_);
  EXPECT_NE(second->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(me("m0")->outgoing_count(), 0u);
  EXPECT_EQ(me("m1")->unrelayed_done_count(), 0u);
}

// ----- the durable writes inside a freeze (persist.fence spans) -----

// An async pre-copy freeze holds two fences: the source's resumable
// finalize record, written on m0 as the record ships, and the
// destination's pending entry on m1.  With each machine's work on its own
// lane, as the orchestrator runs it, the two overlap in virtual time.
TEST_F(PrecopyTest, AsyncPrecopyFreezeHoldsTwoFences) {
  me("m0")->set_async_precopy(true);
  world_.observability().set_enabled(true);
  auto enclave = start_new(m0_);
  LaneSchedule lanes(world_.clock());
  world_.network().set_lane_schedule(&lanes);
  const auto on_m0 = [&](const std::function<void()>& fn) {
    lanes.run("m0", lanes.control(), fn);
  };
  on_m0([&] {
    for (int i = 0; i < 3; ++i) enclave->ecall_create_migratable_counter();
    enclave->ecall_increment_migratable_counter(0);
    EXPECT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());
  });
  world_.network().pump_all();
  MigrationStartResult fin;
  on_m0([&] {
    enclave->ecall_increment_migratable_counter(1);
    fin = enclave->ecall_migration_finalize_detailed("m1");
  });
  EXPECT_EQ(fin.status, Status::kMigrationInProgress) << fin.message;
  world_.network().pump_all();
  on_m0([&] { fin = enclave->ecall_migration_poll_transfer(); });
  world_.network().set_lane_schedule(nullptr);
  ASSERT_TRUE(fin.ok()) << fin.message;

  const std::vector<obs::TraceSpan> fences = fences_in_last_freeze();
  ASSERT_EQ(fences.size(), 2u);
  EXPECT_EQ(fences[0].lane, "m0");
  EXPECT_EQ(fences[1].lane, "m1");
  EXPECT_LT(fences[0].start, fences[1].end);
  EXPECT_LT(fences[1].start, fences[0].end);
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
        auto parsed = decode_record<MeRequest>(request);
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
        auto parsed = decode_record<MeRequest>(request);
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
    auto parsed = decode_record<MeRequest>(request);
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

// The finalize's accept goes through the same success tail as a
// full-snapshot accept: when the retained copy cannot be made durable it
// is unwound, not left standing, and the attempt stays live for a retry.
TEST_F(PrecopyTest, FinalizeWhoseRetainCannotPersistIsUnwound) {
  // The queue's persist OCALL fails while `*down` is set (an unwritable
  // queue store).
  auto down = std::make_shared<bool>(false);
  m0_.install_management_enclave([this, down](platform::Machine& m) {
    auto me = std::make_unique<MigrationEnclave>(
        m, MigrationEnclave::standard_image(), world_.provider());
    me->set_queue_persist_callback([down](ByteView /*sealed_queue*/) {
      return *down ? Status::kSealFailure : Status::kOk;
    });
    return me;
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

// Async: the finalize's ship persists the resumable record.  When that
// write fails, the ship fails like a failed hop — its ack retains nothing
// — and a re-sent finalize ships again once storage is back.
TEST_F(PrecopyTest, AsyncFinalizeWhoseShipCannotPersistFailsTheShip) {
  auto down = std::make_shared<bool>(false);
  m0_.install_management_enclave([this, down](platform::Machine& m) {
    auto me = std::make_unique<MigrationEnclave>(
        m, MigrationEnclave::standard_image(), world_.provider());
    me->set_queue_persist_callback([down](ByteView /*sealed_queue*/) {
      return *down ? Status::kSealFailure : Status::kOk;
    });
    me->set_async_precopy(true);
    return me;
  });
  auto enclave = start_new(m0_);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  }
  enclave->ecall_increment_migratable_counter(0);
  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());
  me("m0")->pump();
  world_.network().pump_all();
  enclave->ecall_increment_migratable_counter(1);

  *down = true;
  const auto failed = enclave->ecall_migration_finalize_detailed("m1");
  EXPECT_FALSE(failed.ok());
  EXPECT_NE(failed.status, Status::kMigrationInProgress);
  // The record lands and the destination accepts it, but its ack finds
  // the ship failed: nothing is retained.
  world_.network().pump_all();
  EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);
  EXPECT_EQ(me("m0")->outgoing_count(), 0u);
  EXPECT_EQ(me("m0")->transfer_task_count(), 1u);

  *down = false;
  const auto fin = drive_queued_finalize(
      *enclave, enclave->ecall_migration_finalize_detailed("m1"));
  ASSERT_TRUE(fin.ok()) << fin.message;
  EXPECT_EQ(me("m0")->outgoing_count(), 1u);
  EXPECT_EQ(me("m0")->transfer_task_count(), 0u);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);
  enclave.reset();
  expect_moved_with_final_delta();
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

TEST_F(PrecopyTest, MeRestartsBetweenRoundsRefetchTheLostRoundOnce) {
  world_.observability().set_enabled(true);
  auto enclave = start_new(m0_);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  }
  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());
  EXPECT_EQ(me("m0")->transfer_task_count(), 1u);
  EXPECT_EQ(me("m1")->precopy_staging_count(), 1u);
  const Bytes stale = enclave->sealed_state();

  // Both MEs die and come back between rounds.  The source's merged
  // attempt is soft state (a round writes no queue), so it is gone; the
  // destination's staging is restored from its sealed queue.
  restart_me("m0");
  restart_me("m1");
  EXPECT_EQ(me("m0")->transfer_task_count(), 0u);
  EXPECT_EQ(me("m1")->precopy_staging_count(), 1u);

  // The next round starts a fresh task, whose merged set misses round 0:
  // the finalize is refused once, and re-sent with the whole staged set.
  enclave->ecall_increment_migratable_counter(11);
  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());
  ASSERT_TRUE(enclave->ecall_migration_finalize_detailed("m1").ok());
  EXPECT_EQ(world_.observability().metrics.counter(
                "migration.precopy_reships"),
            1u);
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

// ----- the source ME's merged set is soft state -----
//
// An async round is acked once merged, with no queue write.  Each test
// below loses a merged round to a source ME restart in one of three ways,
// and ends in one refused finalize and one re-send of the library's whole
// staged set.  Each runs 20 counters in two 16-slot chunks; round 0 ships
// both, and chunk 1 (counters 16-19) is in no later record but the lost
// ones, so the finalize's final delta (counter 2, chunk 0) cannot cover
// it.

// The ME acks round 1 and dies before the round's record reaches m1: no
// queue holds the round, and m1 never saw it.
TEST_F(PrecopyTest, SourceMeLostAnAckedAsyncRoundBeforeItsHop) {
  me("m0")->set_async_precopy(true);
  world_.observability().set_enabled(true);
  watch_precopy_wire();
  auto enclave = start_new(m0_);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  }
  enclave->ecall_increment_migratable_counter(4);
  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());
  me("m0")->pump();
  world_.network().pump_all();
  enclave->ecall_increment_migratable_counter(17);
  wire_.drop_rounds = true;
  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());
  restart_me("m0");
  me("m0")->set_async_precopy(true);
  world_.network().pump_all();
  wire_.drop_rounds = false;
  EXPECT_EQ(me("m0")->transfer_task_count(), 0u);
  EXPECT_FALSE(m0_.storage().get_versioned("m0.me-queue").ok());
  EXPECT_EQ(me("m1")->precopy_staging_count(), 1u);

  enclave->ecall_increment_migratable_counter(2);
  const auto fin = drive_queued_finalize(
      *enclave, enclave->ecall_migration_finalize_detailed("m1"));
  ASSERT_TRUE(fin.ok()) << fin.message;
  EXPECT_EQ(me("m0")->full_handshake_count() +
                me("m0")->resumed_handshake_count(),
            1u);
  expect_refetched_once_and_moved(std::move(enclave), {2, 4, 17});
}

// The source ME dies between rounds, and the destination ME comes back
// without its queue: neither end holds round 0 when round 1 arrives.
TEST_F(PrecopyTest, SourceMeRestartWhileTheDestinationLostItsStaging) {
  me("m0")->set_async_precopy(true);
  world_.observability().set_enabled(true);
  watch_precopy_wire();
  auto enclave = start_new(m0_);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  }
  enclave->ecall_increment_migratable_counter(4);
  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());
  me("m0")->pump();
  world_.network().pump_all();
  ASSERT_EQ(me("m1")->precopy_staging_count(), 1u);

  restart_me("m0");
  me("m0")->set_async_precopy(true);
  lose_queue("m1");
  EXPECT_EQ(me("m0")->transfer_task_count(), 0u);
  EXPECT_EQ(me("m1")->precopy_staging_count(), 0u);

  // Round 1 starts a fresh task on both ends, holding chunk 0 only.
  enclave->ecall_increment_migratable_counter(5);
  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());
  me("m0")->pump();
  world_.network().pump_all();
  EXPECT_EQ(me("m1")->precopy_staging_count(), 1u);

  enclave->ecall_increment_migratable_counter(2);
  const auto fin = drive_queued_finalize(
      *enclave, enclave->ecall_migration_finalize_detailed("m1"));
  ASSERT_TRUE(fin.ok()) << fin.message;
  EXPECT_EQ(me("m0")->full_handshake_count() +
                me("m0")->resumed_handshake_count(),
            1u);
  expect_refetched_once_and_moved(std::move(enclave), {2, 4, 5});
}

// Another enclave's reservation commits m0's queue at round 1 (k), which
// carries the pre-copy task as merged so far.  Rounds 2 and 3 write
// nothing, and the ME dies after round 3 (k + 2): the restored task holds
// chunk 1 at its round-0 generation, and round 2 changed it.
TEST_F(PrecopyTest, SourceMeRestoredFromAQueueTwoRoundsBehind) {
  me("m0")->set_async_precopy(true);
  world_.observability().set_enabled(true);
  watch_precopy_wire();
  auto enclave = start_new(m0_);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  }
  enclave->ecall_increment_migratable_counter(4);
  const auto round = [&] {
    ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());
    me("m0")->pump();
    world_.network().pump_all();
  };
  round();
  enclave->ecall_increment_migratable_counter(5);
  round();
  auto other = std::make_unique<MigratableEnclave>(
      m0_, EnclaveImage::create("pc-other", 1, "acme"));
  other->set_persist_callback([this](ByteView s) { m0_.storage().put("o", s); });
  ASSERT_EQ(other->ecall_migration_init(ByteView(), InitState::kNew, "m0"),
            Status::kOk);
  ASSERT_TRUE(other->ecall_create_migratable_counter().ok());
  ASSERT_TRUE(other->ecall_migration_reserve_detailed("m1").ok());
  ASSERT_EQ(m0_.storage().versioned_sequence("m0.me-queue"), 1u);
  enclave->ecall_increment_migratable_counter(17);
  round();
  enclave->ecall_increment_migratable_counter(6);
  round();
  EXPECT_EQ(m0_.storage().versioned_sequence("m0.me-queue"), 1u);

  restart_me("m0");
  me("m0")->set_async_precopy(true);
  EXPECT_EQ(me("m0")->transfer_task_count(), 2u);
  enclave->ecall_increment_migratable_counter(2);
  const auto fin = drive_queued_finalize(
      *enclave, enclave->ecall_migration_finalize_detailed("m1"));
  ASSERT_TRUE(fin.ok()) << fin.message;
  expect_refetched_once_and_moved(std::move(enclave), {2, 4, 5, 6, 17});
}

// One async pre-copy move writes two queue fences on the source: the
// finalize record as it ships, and the DONE's erase.  Its rounds write
// none.
TEST_F(PrecopyTest, AsyncPrecopyMoveWritesTwoSourceQueueFences) {
  me("m0")->set_async_precopy(true);
  world_.observability().set_enabled(true);
  auto enclave = start_new(m0_);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  }
  for (const uint32_t counter : {0u, 2u}) {
    enclave->ecall_increment_migratable_counter(counter);
    ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());
    me("m0")->pump();
    world_.network().pump_all();
  }
  EXPECT_FALSE(m0_.storage().get_versioned("m0.me-queue").ok());
  enclave->ecall_increment_migratable_counter(1);
  const auto fin = drive_queued_finalize(
      *enclave, enclave->ecall_migration_finalize_detailed("m1"));
  ASSERT_TRUE(fin.ok()) << fin.message;
  EXPECT_EQ(enclave->last_precopy_rounds(), 2u);
  enclave.reset();
  auto moved = make_app(m1_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(me("m0")->outgoing_state(image_->mr_enclave()),
            OutgoingState::kCompleted);

  size_t source_queue_fences = 0;
  for (const obs::TraceSpan& span : world_.observability().trace.spans()) {
    if (span.name == "persist.fence" && span.lane == "m0" &&
        span.args.front().second == "transfer-queue") {
      ++source_queue_fences;
    }
  }
  EXPECT_EQ(source_queue_fences, 2u);
  EXPECT_EQ(m0_.storage().versioned_sequence("m0.me-queue"), 2u);
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
        auto parsed = decode_record<MeRequest>(request);
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
    world_.add_machine(std::string("m").append(std::to_string(i)));
  }
  orchestrator::FleetRegistry fleet(world_);
  orchestrator::AppSpec apps{.count = 32, .prefix = "pc-drain-"};
  apps.options.live_transfer = true;
  ASSERT_TRUE(orchestrator::launch_apps(fleet, apps).ok());

  orchestrator::Scheduler scheduler(fleet);
  orchestrator::OrchestratorOptions options;
  options.max_inflight_per_machine = 4;
  options.max_inflight_total = 8;
  options.max_attempts = 6;
  options.transfer_mode = orchestrator::TransferMode::kPrecopy;
  orchestrator::Orchestrator orch(fleet, scheduler, options);

  // Live mutations between rounds AND a source-ME crash mid-drain.  The
  // round hook goes in after the executor's, which it replaces.
  chaos::ChaosExecutor executor(
      world_, chaos::crash_at_completion({"m0"}, /*completion=*/2,
                                         /*revive_after_waves=*/3));
  executor.arm(orch);
  orch.set_round_hook([&fleet](uint64_t enclave_id, uint32_t) {
    if (auto* enclave = fleet.enclave(enclave_id)) {
      enclave->ecall_increment_migratable_counter(0);
    }
  });

  const auto report = orch.execute(orchestrator::Plan::drain("m0"));
  EXPECT_EQ(executor.injected().at("injected.me-crash"), 1u);
  EXPECT_EQ(executor.injected().at("healed.me-restart"), 1u);
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

// ----- warm pre-copy destinations -----

// A warm instance binds to the attempt staged at its ME, creates one
// counter per staged slot plus the epoch guard before any data arrives,
// and serves nothing.  Its restore writes offsets over that set, creates
// only the slot the source added after the round, and retires the counter
// of the slot the source destroyed.
TEST_F(PrecopyTest, WarmSetTakesItsAttemptAndCreatesOnlyWhatIsMissing) {
  auto enclave = start_new(m0_);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  }
  enclave->ecall_increment_migratable_counter(0);
  enclave->ecall_increment_migratable_counter(0);
  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());

  const sgx::Measurement owner = image_->mr_enclave();
  sgx::MonotonicCounterService& pse = m1_.counter_service();
  const uint32_t ids_before = pse.ids_allocated();
  auto warm = make_app(m1_);
  ASSERT_EQ(warm->ecall_migration_warm_up("m1"), Status::kOk);
  EXPECT_NE(warm->warm_nonce(), 0u);
  EXPECT_EQ(pse.count_for(owner), 4u);  // three slots and the epoch guard
  EXPECT_EQ(warm->ecall_read_migratable_counter(0).status(),
            Status::kNotInitialized);
  auto replay = make_app(m1_);
  EXPECT_EQ(replay->ecall_migration_init(warm->sealed_state(),
                                         InitState::kRestore, "m1"),
            Status::kMigrationFrozen);

  // After the round the source adds slot 3, drops slot 1 and moves slot 2.
  ASSERT_EQ(enclave->ecall_create_migratable_counter().value().counter_id, 3u);
  ASSERT_EQ(enclave->ecall_destroy_migratable_counter(1), Status::kOk);
  enclave->ecall_increment_migratable_counter(2);
  ASSERT_TRUE(enclave->ecall_migration_finalize_detailed("m1").ok());

  ASSERT_EQ(warm->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(warm->warm_nonce(), 0u);
  EXPECT_EQ(warm->ecall_read_migratable_counter(0).value(), 2u);
  EXPECT_EQ(warm->ecall_read_migratable_counter(1).status(),
            Status::kCounterNotFound);
  EXPECT_EQ(warm->ecall_read_migratable_counter(2).value(), 1u);
  EXPECT_EQ(warm->ecall_read_migratable_counter(3).value(), 0u);
  EXPECT_EQ(pse.ids_allocated() - ids_before, 5u);  // one create at restore
  EXPECT_EQ(pse.retired_count(), 1u);               // slot 1's counter
  // A restarted instance reloads the restored buffer, epoch guard and all.
  warm.reset();
  auto restarted = make_app(m1_);
  ASSERT_EQ(restarted->ecall_migration_init(m1_.storage().get("ml").value(),
                                            InitState::kRestore, "m1"),
            Status::kOk);
  EXPECT_EQ(restarted->ecall_read_migratable_counter(2).value(), 1u);
}

// A warm set the move does not use is retired through the PSE retire
// path: one left behind by an earlier warm-up, and one at a destination
// the attempt re-routed away from.  Retired slots hold quota (the
// retired backlog) until the platform's reclaim sweep frees them.
TEST_F(PrecopyTest, AbandonedWarmSetIsRetiredThenReclaimed) {
  orchestrator::FleetRegistry fleet(world_);
  orchestrator::LaunchOptions launch;
  launch.live_transfer = true;
  const uint64_t id = fleet.launch("m0", "warm-abandon", image_, launch).value();
  auto* enclave = fleet.enclave(id);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  }
  enclave->ecall_increment_migratable_counter(1);
  ASSERT_TRUE(enclave->ecall_migration_precopy_round("m1").ok());

  const sgx::Measurement owner = image_->mr_enclave();
  sgx::MonotonicCounterService& pse = m1_.counter_service();
  EXPECT_TRUE(fleet.pse_room(id, "m1"));
  ASSERT_EQ(fleet.warm_up(id, "m1"), Status::kOk);
  EXPECT_EQ(pse.count_for(owner), 3u);
  EXPECT_TRUE(m1_.storage().exists("warm-abandon.ml"));  // the sealed set
  // A second warm-up replaces the first set.
  ASSERT_EQ(fleet.warm_up(id, "m1"), Status::kOk);
  EXPECT_EQ(pse.retired_count(), 3u);
  EXPECT_EQ(pse.count_for(owner), 6u);

  // The attempt re-routes to m2; the restore there retires m1's set.
  ASSERT_TRUE(enclave->ecall_migration_finalize_detailed("m2").ok());
  EXPECT_EQ(me("m1")->precopy_staging_count(), 0u);
  ASSERT_EQ(fleet.complete_move(id, "m2"), Status::kOk);
  // Only the machine the enclave landed on keeps its sealed buffer.
  EXPECT_FALSE(m1_.storage().exists("warm-abandon.ml"));
  EXPECT_FALSE(m0_.storage().exists("warm-abandon.ml"));
  EXPECT_TRUE(m2_.storage().exists("warm-abandon.ml"));
  EXPECT_EQ(pse.retired_count(), 6u);
  EXPECT_EQ(pse.count_for(owner), 6u);
  EXPECT_EQ(m1_.reclaim_retired_counters(), 6u);
  EXPECT_EQ(pse.count_for(owner), 0u);
  EXPECT_EQ(fleet.enclave(id)->ecall_read_migratable_counter(1).value(), 1u);
}

// A completed move takes the source's frozen Table II out of its store,
// and an unused warm set its sealed set: after a full-snapshot drain and
// a pipelined pre-copy drain, a store holds "<name>.ml" only for an
// enclave placed on its machine.
TEST_F(PrecopyTest, DrainsLeaveNoSealedBufferOffTheEnclavesMachine) {
  for (platform::Machine* m : world_.machines()) {
    migration::me_on(*m)->set_async_precopy(true);
  }
  orchestrator::FleetRegistry fleet(world_);
  orchestrator::AppSpec apps{.count = 6, .prefix = "left-behind-"};
  apps.options.live_transfer = true;
  apps.counters = 17;  // two Table II chunks: round 0 does not converge
  ASSERT_TRUE(orchestrator::launch_apps(fleet, apps).ok());
  const auto drain = [&fleet](const std::string& machine,
                              orchestrator::TransferMode mode) {
    const size_t placed = fleet.count_on(machine);
    orchestrator::Scheduler scheduler(fleet);
    orchestrator::OrchestratorOptions options;
    options.pipelined = true;
    options.transfer_mode = mode;
    orchestrator::Orchestrator orch(fleet, scheduler, options);
    EXPECT_EQ(orch.execute(orchestrator::Plan::drain(machine)).succeeded(),
              placed);
    EXPECT_EQ(fleet.count_on(machine), 0u);
  };
  const auto expect_buffers_only_where_placed = [this, &fleet] {
    size_t stored = 0;
    for (platform::Machine* m : world_.machines()) {
      for (const uint64_t id : fleet.all_ids()) {
        const orchestrator::EnclaveRecord* record = fleet.find(id);
        const bool here = m->storage().exists(record->name + ".ml");
        EXPECT_EQ(here, record->machine == m->address())
            << record->name << " on " << m->address();
        stored += here ? 1 : 0;
      }
    }
    EXPECT_EQ(stored, fleet.size());
  };

  drain("m0", orchestrator::TransferMode::kFullSnapshot);
  expect_buffers_only_where_placed();
  const size_t on_m1 = fleet.count_on("m1");
  ASSERT_GT(on_m1, 0u);
  world_.observability().set_enabled(true);
  drain("m1", orchestrator::TransferMode::kPrecopy);
  expect_buffers_only_where_placed();
  size_t warm_ups = 0;
  for (const obs::TraceSpan& span : world_.observability().trace.spans()) {
    warm_ups += span.name == "warm_up" ? 1 : 0;
  }
  EXPECT_EQ(warm_ups, on_m1);  // the pre-copy drain restored warm
}

// Admission counts the quota a warm set will hold: a destination whose
// PSE cannot hold the whole set beside the identity's counters there is
// avoided while another destination can take the move.
TEST_F(PrecopyTest, AdmissionAvoidsADestinationWithoutRoomForTheWarmSet) {
  // Another instance of the same enclave holds 254 of its identity's 256
  // counters on m1; the mover needs its 2 counters and the epoch guard.
  auto filler = start_new(m1_, /*live_transfer=*/false);
  for (int i = 0; i < 254; ++i) {
    ASSERT_TRUE(filler->ecall_create_migratable_counter().ok());
  }
  orchestrator::FleetRegistry fleet(world_);
  orchestrator::LaunchOptions launch;
  launch.live_transfer = true;
  const uint64_t id = fleet.launch("m0", "warm-quota", image_, launch).value();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(fleet.enclave(id)->ecall_create_migratable_counter().ok());
  }
  EXPECT_FALSE(fleet.pse_room(id, "m1"));
  EXPECT_TRUE(fleet.pse_room(id, "m2"));

  orchestrator::Scheduler scheduler(fleet);
  orchestrator::OrchestratorOptions options;
  options.pipelined = true;
  options.transfer_mode = orchestrator::TransferMode::kPrecopy;
  orchestrator::Orchestrator orch(fleet, scheduler, options);
  const auto report = orch.execute(orchestrator::Plan::drain("m0"));
  ASSERT_EQ(report.succeeded(), 1u);
  EXPECT_EQ(report.migrations[0].destination, "m2");
  EXPECT_EQ(report.migrations[0].attempts, 1u);
  EXPECT_EQ(m1_.counter_service().count_for(image_->mr_enclave()), 254u);
}

// The pipelined pre-copy drain warms each destination once round 0 is
// staged there, so every restore lands on a warm set: no counter is
// created twice, none is left retired, and a restore no longer pays the
// 18 creates.  A step toward a destination lane still busy (with a
// warm-up) waits for its end instead of shipping rounds into it.
TEST_F(PrecopyTest, PipelinedPrecopyDrainRestoresOverWarmSets) {
  for (int i = 3; i < 6; ++i) {
    world_.add_machine(std::string("m").append(std::to_string(i)));
  }
  for (platform::Machine* m : world_.machines()) {
    migration::me_on(*m)->set_async_precopy(true);
  }
  world_.observability().set_enabled(true);
  orchestrator::FleetRegistry fleet(world_);
  orchestrator::AppSpec apps{.count = 12, .prefix = "warm-drain-"};
  apps.options.live_transfer = true;
  apps.counters = 17;
  ASSERT_TRUE(orchestrator::launch_apps(fleet, apps).ok());
  uint64_t ids_before = 0;
  for (platform::Machine* m : world_.machines()) {
    ids_before += m->counter_service().ids_allocated();
  }

  orchestrator::Scheduler scheduler(fleet);
  orchestrator::OrchestratorOptions options;
  options.pipelined = true;
  options.max_inflight_per_machine = 4;
  options.max_inflight_total = 8;
  options.transfer_mode = orchestrator::TransferMode::kPrecopy;
  orchestrator::Orchestrator orch(fleet, scheduler, options);
  orch.set_round_hook([&fleet](uint64_t enclave_id, uint32_t) {
    fleet.enclave(enclave_id)->ecall_increment_migratable_counter(0);
  });
  const auto report = orch.execute(orchestrator::Plan::drain("m0"));
  ASSERT_EQ(report.succeeded(), 12u);

  uint64_t ids_after = 0;
  size_t retired = 0;
  for (platform::Machine* m : world_.machines()) {
    ids_after += m->counter_service().ids_allocated();
    if (m->address() != "m0") retired += m->counter_service().retired_count();
  }
  EXPECT_EQ(ids_after - ids_before, 12u * 18u);
  EXPECT_EQ(retired, 0u);
  std::multiset<uint64_t> warm_ups;
  std::multiset<uint64_t> restores;
  size_t rounds = 0;
  for (const obs::TraceSpan& span : world_.observability().trace.spans()) {
    if (span.name == "warm_up") {
      EXPECT_FALSE(span.open);
      warm_ups.insert(span.trace_id);
    }
    if (span.name == "precopy_round") ++rounds;
    if (span.name != "restore") continue;
    restores.insert(span.trace_id);
    EXPECT_LT(span.end - span.start, milliseconds(500));
  }
  // One warm-up per move, in the trace of the attempt it restored.
  EXPECT_EQ(warm_ups.size(), 12u);
  EXPECT_EQ(warm_ups, restores);
  size_t awaits = 0;
  for (const obs::TraceInstant& instant :
       world_.observability().trace.instants()) {
    if (instant.name == "orch.await_destination") ++awaits;
  }
  EXPECT_GT(awaits, 0u);
  uint32_t precopy_rounds = 0;
  for (const auto& record : report.migrations) {
    precopy_rounds += record.precopy_rounds;
    EXPECT_EQ(fleet.enclave(record.enclave_id)
                  ->ecall_read_migratable_counter(0)
                  .value(),
              1u + record.precopy_rounds);
  }
  // Waiting ships no extra round: the trace holds exactly the rounds the
  // moves report.
  EXPECT_EQ(rounds, precopy_rounds);
}

}  // namespace
}  // namespace sgxmig
