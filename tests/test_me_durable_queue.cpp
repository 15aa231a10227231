// Durable ME transfer-queue tests: the §V-D retention guarantee must
// survive the Migration Enclave process itself.  Covers sealed
// checkpoint/restore of the queue across ME kill/restart cycles, the
// exactly-once migrate request (nonce dedup + resume after a lost reply),
// the DONE-relay backlog, lifecycle hygiene (terminal transfers and stale
// LA sessions are erased), duplicate-id rejection, delivery re-arming
// after a destination-instance death, the resumable pre-copy finalize
// record (a source restart after the ack, a delivered record, a rollback
// after the confirm), and a 32-enclave orchestrated drain that converges
// through ME restarts with zero lost or forked enclaves.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/chaos_executor.h"
#include "chaos/oracles.h"
#include "crypto/sha256.h"
#include "migration/migratable_enclave.h"
#include "migration/migration_enclave.h"
#include "obs/observability.h"
#include "orchestrator/fleet_builder.h"
#include "orchestrator/orchestrator.h"
#include "platform/world.h"

namespace sgxmig {
namespace {

using migration::InitState;
using migration::MeMsgType;
using migration::MeRequest;
using migration::MeResponse;
using migration::MigratableEnclave;
using migration::MigrationEnclave;
using migration::OutgoingState;
using orchestrator::FleetRegistry;
using orchestrator::Orchestrator;
using orchestrator::OrchestratorOptions;
using orchestrator::Plan;
using orchestrator::Scheduler;
using platform::World;
using sgx::EnclaveImage;

class MeDurableQueueTest : public ::testing::Test {
 protected:
  MeDurableQueueTest() {
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

  std::unique_ptr<MigratableEnclave> make_app(platform::Machine& m) {
    auto enclave = std::make_unique<MigratableEnclave>(m, image_);
    enclave->set_persist_callback(
        [&m](ByteView s) { m.storage().put("ml", s); });
    return enclave;
  }
  std::unique_ptr<MigratableEnclave> start_new(platform::Machine& m) {
    auto enclave = make_app(m);
    EXPECT_EQ(enclave->ecall_migration_init(ByteView(), InitState::kNew,
                                            m.address()),
              Status::kOk);
    return enclave;
  }

  MeResponse raw_call(const std::string& endpoint, const MeRequest& req) {
    auto resp = world_.network().rpc(endpoint, encode_record(req));
    EXPECT_TRUE(resp.ok());
    auto parsed = decode_record<MeResponse>(resp.value());
    EXPECT_TRUE(parsed.ok());
    return parsed.value();
  }

  // m2..m4 join m0 and m1; 32 enclaves launch on m0, enclave i's counter
  // at i + 1.
  std::vector<uint64_t> launch_drain_fleet(FleetRegistry& fleet,
                                           const std::string& prefix) {
    for (const char* address : {"m2", "m3", "m4"}) world_.add_machine(address);
    const auto launched = orchestrator::launch_apps(
        fleet, {.count = 32,
                .prefix = prefix,
                .increments = [](int i) { return i + 1u; }});
    EXPECT_TRUE(launched.ok());
    return launched.value_or({});
  }

  // No lost state: every counter survived with its exact value.  No forks:
  // every source hardware counter was destroyed, every queue drained (the
  // pipelined engine's transfer tasks too), and every retained copy
  // confirmed away once the DONE backlog (from confirms that raced the
  // dead source ME) is flushed.
  void expect_drained_without_forks(FleetRegistry& fleet,
                                    const std::vector<uint64_t>& ids,
                                    bool pipelined) {
    EXPECT_EQ(fleet.count_on("m0"), 0u);
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
      if (pipelined) {
        EXPECT_EQ(me(address)->transfer_task_count(), 0u) << address;
      }
    }
    EXPECT_EQ(me("m0")->outgoing_count(), 0u);
  }

  World world_{/*seed=*/4242};
  platform::Machine& m0_ = world_.add_machine("m0");
  platform::Machine& m1_ = world_.add_machine("m1");
  std::shared_ptr<const EnclaveImage> image_ =
      EnclaveImage::create("dq-app", 1, "acme");
};

// ----- acceptance: ME restarts between transfer and DONE / fetch -----

TEST_F(MeDurableQueueTest, SourceMeRestartKeepsRetainedCopyUntilDone) {
  auto enclave = start_new(m0_);
  const uint32_t id =
      enclave->ecall_create_migratable_counter().value().counter_id;
  enclave->ecall_increment_migratable_counter(id);
  ASSERT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
  enclave.reset();

  // The source ME dies mid-drain, after the transfer but before DONE.
  restart_me("m0");
  EXPECT_EQ(me("m0")->outgoing_count(), 1u);
  EXPECT_EQ(me("m0")->outgoing_state(image_->mr_enclave()),
            OutgoingState::kPending);

  // The destination completes; the DONE lands at the RESTARTED source ME
  // over the restored RA channel and deletes the retained copy.
  auto moved = make_app(m1_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(me("m0")->outgoing_state(image_->mr_enclave()),
            OutgoingState::kCompleted);
  EXPECT_EQ(me("m0")->outgoing_count(), 0u);
  EXPECT_EQ(moved->ecall_read_migratable_counter(id).value(), 1u);
}

// The host reports a failed queue write: the transition it guarded fails
// and is unwound, and sealed_queue_state() keeps the last snapshot the
// host actually stored.
TEST_F(MeDurableQueueTest, FailedQueueWriteFailsTheTransition) {
  auto down = std::make_shared<bool>(true);
  m0_.install_management_enclave([this, down](platform::Machine& m) {
    auto queue_me = std::make_unique<MigrationEnclave>(
        m, MigrationEnclave::standard_image(), world_.provider());
    queue_me->set_queue_persist_callback([&m, down](ByteView blob) {
      if (*down) return Status::kSealFailure;
      m.storage().put_versioned("m0.me-queue", blob);
      return Status::kOk;
    });
    return queue_me;
  });
  auto enclave = start_new(m0_);
  ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());

  EXPECT_NE(enclave->ecall_migration_start("m1"), Status::kOk);
  EXPECT_EQ(me("m0")->outgoing_count(), 0u);
  EXPECT_TRUE(me("m0")->sealed_queue_state().empty());

  *down = false;
  ASSERT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
  EXPECT_EQ(me("m0")->outgoing_count(), 1u);
  EXPECT_EQ(me("m0")->sealed_queue_state(),
            m0_.storage().get_versioned("m0.me-queue").value());
}

TEST_F(MeDurableQueueTest, DestinationMeRestartKeepsPendingUntilFetch) {
  auto enclave = start_new(m0_);
  const uint32_t id =
      enclave->ecall_create_migratable_counter().value().counter_id;
  enclave->ecall_increment_migratable_counter(id);
  enclave->ecall_increment_migratable_counter(id);
  ASSERT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
  enclave.reset();

  // The destination ME dies before any enclave fetched the data.
  restart_me("m1");
  EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);

  auto moved = make_app(m1_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(moved->ecall_read_migratable_counter(id).value(), 2u);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 0u);
  // DONE still reached the source (relayed over the restored inbound
  // channel that was sealed into the destination's queue snapshot).
  EXPECT_EQ(me("m0")->outgoing_state(image_->mr_enclave()),
            OutgoingState::kCompleted);
}

// ----- exactly-once migrate request -----

TEST_F(MeDurableQueueTest, LostMigrateReplyResumesWithoutDoubleTransfer) {
  auto enclave = start_new(m0_);
  const uint32_t id =
      enclave->ecall_create_migratable_counter().value().counter_id;
  enclave->ecall_increment_migratable_counter(id);

  // Drop exactly one reply from the source ME: the request is processed
  // (data retained + transferred) but the library never hears about it.
  // The first two m0/me replies complete the LA handshake; the third is
  // the migrate request's.
  int replies = 0;
  world_.network().set_response_tamper_hook(
      [&](const std::string& to, Bytes&) {
        return to != "m0/me" || ++replies != 3;
      });
  // The nonce-scoped status re-query inside migration_start detects that
  // the attempt landed in the durable queue and reports success.
  EXPECT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
  world_.network().clear_response_tamper_hook();
  EXPECT_GT(replies, 3);

  // Exactly one transfer exists on either side — no duplicate shipment —
  // and the staged attempt was consumed by the resume: a second start
  // finds the library frozen instead of re-sending it.
  EXPECT_EQ(me("m0")->outgoing_count(), 1u);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);
  EXPECT_EQ(enclave->ecall_migration_start("m1"), Status::kMigrationFrozen);
  EXPECT_EQ(me("m0")->outgoing_count(), 1u);

  enclave.reset();
  auto moved = make_app(m1_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(moved->ecall_read_migratable_counter(id).value(), 1u);
}

TEST_F(MeDurableQueueTest, LostAcceptedAckDoesNotStrandDestinationPending) {
  auto enclave = start_new(m0_);
  const uint32_t id =
      enclave->ecall_create_migratable_counter().value().counter_id;
  enclave->ecall_increment_migratable_counter(id);

  // Drop the destination ME's reply to the kTransfer record (the 3rd
  // m1/me response of the outgoing run: RaMsg1, RaMsg3, Transfer).  The
  // destination commits a durable pending entry; the source retains
  // nothing and reports failure.
  uint32_t m1_responses = 0;
  world_.network().set_response_tamper_hook(
      [&](const std::string& to, Bytes&) {
        return !(to == "m1/me" && ++m1_responses == 3);
      });
  EXPECT_NE(enclave->ecall_migration_start("m1"), Status::kOk);
  world_.network().clear_response_tamper_hook();
  EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);
  EXPECT_EQ(me("m0")->outgoing_count(), 0u);

  // The retry (same nonce) supersedes the orphaned pending entry instead
  // of being blocked by kAlreadyExists forever.
  ASSERT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);
  enclave.reset();
  auto moved = make_app(m1_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(moved->ecall_read_migratable_counter(id).value(), 1u);
  EXPECT_EQ(me("m0")->outgoing_state(image_->mr_enclave()),
            OutgoingState::kCompleted);
}

TEST_F(MeDurableQueueTest, LostConfirmAckDoesNotStrandRestoredInstance) {
  auto enclave = start_new(m0_);
  const uint32_t id =
      enclave->ecall_create_migratable_counter().value().counter_id;
  enclave->ecall_increment_migratable_counter(id);
  ASSERT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
  enclave.reset();

  // Drop the destination ME's reply to the CONFIRM (the 4th m1/me
  // response of init(kMigrate): LaStart, LaMsg2, fetch, confirm).  The
  // ME has already erased pending_ and queued the DONE; the library must
  // not discard the fully restored instance over the lost ack — its
  // retry re-attests and the ME re-acknowledges idempotently from the
  // durable confirmed-incoming history.
  uint32_t m1_responses = 0;
  world_.network().set_response_tamper_hook(
      [&](const std::string& to, Bytes&) {
        return !(to == "m1/me" && ++m1_responses == 4);
      });
  auto moved = make_app(m1_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  world_.network().clear_response_tamper_hook();

  EXPECT_EQ(moved->ecall_read_migratable_counter(id).value(), 1u);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 0u);
  EXPECT_EQ(me("m0")->outgoing_state(image_->mr_enclave()),
            OutgoingState::kCompleted);
}

// ----- DONE-relay backlog -----

TEST_F(MeDurableQueueTest, UndeliverableDoneIsRetriedAcrossMeRestart) {
  auto enclave = start_new(m0_);
  enclave->ecall_create_migratable_counter();
  ASSERT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
  enclave.reset();

  // The source ME is unreachable when the destination confirms: the DONE
  // goes into the durable relay backlog instead of vanishing.
  world_.network().set_endpoint_down("m0/me", true);
  auto moved = make_app(m1_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(me("m1")->unrelayed_done_count(), 1u);
  EXPECT_EQ(me("m0")->outgoing_state(image_->mr_enclave()),
            OutgoingState::kPending);

  // The backlog survives a destination-ME restart and drains once the
  // source is reachable again.
  restart_me("m1");
  EXPECT_EQ(me("m1")->unrelayed_done_count(), 1u);
  world_.network().set_endpoint_down("m0/me", false);
  EXPECT_EQ(me("m1")->retry_done_relays(), 0u);
  EXPECT_EQ(me("m0")->outgoing_state(image_->mr_enclave()),
            OutgoingState::kCompleted);
  EXPECT_EQ(me("m0")->outgoing_count(), 0u);
}

// ----- lifecycle hygiene (regression: unbounded growth over a drain) -----

TEST_F(MeDurableQueueTest, TerminalTransfersAndStaleSessionsAreErased) {
  auto enclave = start_new(m0_);
  enclave->ecall_create_migratable_counter();
  ASSERT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
  enclave.reset();
  auto moved = make_app(m1_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);

  // Source side: the confirmed transfer's retained copy is gone; only the
  // compact completion record answers status queries.  The migrated-away
  // instance's LA session was dropped with it.
  EXPECT_EQ(me("m0")->outgoing_count(), 0u);
  EXPECT_EQ(me("m0")->la_session_count(), 0u);
  EXPECT_EQ(me("m0")->outgoing_state(image_->mr_enclave()),
            OutgoingState::kCompleted);
  // Destination side: pending entry consumed, confirm session dropped,
  // no unrelayed DONE left behind.
  EXPECT_EQ(me("m1")->pending_incoming_count(), 0u);
  EXPECT_EQ(me("m1")->la_session_count(), 0u);
  EXPECT_EQ(me("m1")->unrelayed_done_count(), 0u);
  // The destination instance keeps operating, and its identity has no
  // outgoing migration on the destination's ME.
  EXPECT_TRUE(moved->ecall_increment_migratable_counter(0).ok());
  EXPECT_EQ(me("m1")->outgoing_state(image_->mr_enclave()),
            OutgoingState::kNone);
}

/// An enclave with the ME's image on the ME's machine: it derives the same
/// MRENCLAVE sealing key, so it can open a queue snapshot and seal an
/// edited one that passes the ME's integrity check.
class QueueSealer : public sgx::Enclave {
 public:
  explicit QueueSealer(platform::Machine& machine)
      : sgx::Enclave(machine, MigrationEnclave::standard_image()) {}

  Bytes open(ByteView sealed) {
    auto opened = unseal(sealed);
    EXPECT_TRUE(opened.ok());
    return opened.ok() ? opened.value().plaintext : Bytes{};
  }
  Bytes seal_queue(ByteView plaintext) {
    auto sealed = seal(sgx::KeyPolicy::kMrEnclave,
                       to_bytes(std::string_view("SGXMIG-ME-QUEUE")),
                       plaintext);
    EXPECT_TRUE(sealed.ok());
    return sealed.ok() ? sealed.value() : Bytes{};
  }
};

// The completed-outgoing and confirmed-incoming histories share one cap.
// 0 and any value at or above the 4,096 default mean the default, so a
// restored queue always passes the restore's bound; a smaller value trims
// both histories at once, and a queue sealed under it restores.
TEST_F(MeDurableQueueTest, CompletedHistoryLimitClampsTrimsAndRestores) {
  constexpr size_t kDefault = migration::DurableQueue::kCompletedHistoryLimit;
  ASSERT_EQ(kDefault, 4096u);
  int moves = 0;
  sgx::Measurement last_mr{};
  const auto move_one = [&] {
    const auto image = EnclaveImage::create(
        std::string("hist-").append(std::to_string(moves++)), 1, "acme");
    last_mr = image->mr_enclave();
    auto source = std::make_unique<MigratableEnclave>(m0_, image);
    ASSERT_EQ(source->ecall_migration_init(ByteView(), InitState::kNew, "m0"),
              Status::kOk);
    ASSERT_EQ(source->ecall_migration_start("m1"), Status::kOk);
    source.reset();
    auto moved = std::make_unique<MigratableEnclave>(m1_, image);
    ASSERT_EQ(
        moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
        Status::kOk);
  };
  const auto histories = [&] {
    return std::pair{me("m0")->completed_history_size(),
                     me("m1")->confirmed_incoming_size()};
  };
  for (int i = 0; i < 3; ++i) move_one();
  ASSERT_EQ(histories(), std::pair(size_t{3}, size_t{3}));

  // Shrinking trims both histories at once, and later moves keep the cap.
  me("m0")->set_completed_history_limit(2);
  me("m1")->set_completed_history_limit(2);
  EXPECT_EQ(histories(), std::pair(size_t{2}, size_t{2}));
  move_one();
  EXPECT_EQ(histories(), std::pair(size_t{2}, size_t{2}));

  // Each of these values restores the default cap: the histories grow
  // past the shrunk one again.
  size_t expected = 2;
  for (const size_t limit : {size_t{0}, kDefault, kDefault + 1, SIZE_MAX}) {
    SCOPED_TRACE(limit);
    me("m0")->set_completed_history_limit(limit);
    me("m1")->set_completed_history_limit(limit);
    EXPECT_EQ(histories(), std::pair(expected, expected));
    move_one();
    ++expected;
    EXPECT_EQ(histories(), std::pair(expected, expected));
  }

  // A queue sealed under a shrunk cap restores with the trimmed histories.
  me("m0")->set_completed_history_limit(1);
  me("m1")->set_completed_history_limit(1);
  move_one();
  restart_me("m0");
  restart_me("m1");
  EXPECT_EQ(histories(), std::pair(size_t{1}, size_t{1}));

  // Past the default the oldest entries make room, so the queue still
  // restores: a restore refuses a history longer than the default.  The
  // destination's snapshot is edited to hold a full confirmed history,
  // which stands in for 4,096 moves that would each seal the growing
  // queue again.
  me("m1")->set_completed_history_limit(SIZE_MAX);
  auto blob = m1_.storage().get_versioned("m1.me-queue");
  ASSERT_TRUE(blob.ok());
  QueueSealer sealer(m1_);
  const Bytes snapshot = sealer.open(blob.value());
  // The confirmed section: a count of 1, then the last moved identity
  // and its transfer id.
  Bytes section(4);
  store_le32(section.data(), 1);
  section.insert(section.end(), last_mr.begin(), last_mr.end());
  const auto at = std::search(snapshot.begin(), snapshot.end(),
                              section.begin(), section.end());
  ASSERT_NE(at, snapshot.end());
  ASSERT_EQ(std::search(at + 1, snapshot.end(), section.begin(),
                        section.end()),
            snapshot.end());
  Bytes full(snapshot.begin(), at + 4);
  store_le32(full.data() + full.size() - 4, kDefault);
  for (uint32_t i = 1; i < kDefault; ++i) {  // older, made-up identities
    sgx::Measurement mr{};
    store_le32(mr.data(), i);
    full.insert(full.end(), mr.begin(), mr.end());
    full.resize(full.size() + 8);
    store_le64(full.data() + full.size() - 8, i);
  }
  full.insert(full.end(), at + 4, snapshot.end());
  ASSERT_EQ(me("m1")->restore_queue(sealer.seal_queue(full)), Status::kOk);
  ASSERT_EQ(me("m1")->confirmed_incoming_size(), kDefault);
  move_one();
  EXPECT_EQ(me("m1")->confirmed_incoming_size(), kDefault);
  restart_me("m1");
  EXPECT_EQ(me("m1")->confirmed_incoming_size(), kDefault);
}

// ----- duplicate-id rejection (regression: silent clobbering) -----

TEST_F(MeDurableQueueTest, DuplicateLaSessionIdRejected) {
  MeRequest req;
  req.type = MeMsgType::kLaStart;
  req.id = 7;
  EXPECT_EQ(raw_call("m0/me", req).status, Status::kOk);
  EXPECT_EQ(me("m0")->la_session_count(), 1u);
  // A second start with the same id must not clobber the live session.
  EXPECT_EQ(raw_call("m0/me", req).status, Status::kAlreadyExists);
  EXPECT_EQ(me("m0")->la_session_count(), 1u);
}

TEST_F(MeDurableQueueTest, ReplayedRaMsg1CannotClobberInboundTransfer) {
  // Capture the genuine RaMsg1 of a migration, then replay it while the
  // inbound transfer is still live (pre-confirm): the replay must be
  // rejected instead of resetting the transfer state.
  Bytes captured;
  world_.network().set_tamper_hook(
      [&](const std::string& to, Bytes& request) {
        if (to == "m1/me" && captured.empty()) {
          auto parsed = decode_record<MeRequest>(request);
          if (parsed.ok() && parsed.value().type == MeMsgType::kRaMsg1) {
            captured = request;
          }
        }
        return true;
      });
  auto enclave = start_new(m0_);
  enclave->ecall_create_migratable_counter();
  ASSERT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
  world_.network().clear_tamper_hook();
  ASSERT_FALSE(captured.empty());

  auto resp = world_.network().rpc("m1/me", captured);
  ASSERT_TRUE(resp.ok());
  auto parsed = decode_record<MeResponse>(resp.value());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().status, Status::kAlreadyExists);

  // The migration still completes normally.
  enclave.reset();
  auto moved = make_app(m1_);
  EXPECT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
}

// ----- delivery re-arming (regression: permanently pinned delivery) -----

TEST_F(MeDurableQueueTest, DeadDestinationInstanceReleasesDeliveryPin) {
  auto enclave = start_new(m0_);
  const uint32_t id =
      enclave->ecall_create_migratable_counter().value().counter_id;
  enclave->ecall_increment_migratable_counter(id);
  ASSERT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
  enclave.reset();
  me("m1")->set_delivery_takeover_timeout(seconds(10));

  // First destination instance fetches the data but dies before any
  // confirm reaches the ME: every LA record after the fetch is dropped
  // (a single dropped confirm no longer kills the instance — the
  // delivery token lets the re-attested retry through).
  uint32_t la_records_to_m1 = 0;
  world_.network().set_tamper_hook(
      [&](const std::string& to, Bytes& request) {
        if (to != "m1/me") return true;
        auto parsed = decode_record<MeRequest>(request);
        if (parsed.ok() && parsed.value().type == MeMsgType::kLaRecord) {
          ++la_records_to_m1;
          if (la_records_to_m1 >= 2) return false;  // confirm + retries
        }
        return true;
      });
  auto first = make_app(m1_);
  // The confirm (and its internal retry) cannot reach the pinned
  // delivery: the instance is left unconfirmed and is abandoned.
  EXPECT_NE(first->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  world_.network().clear_tamper_hook();
  first.reset();  // the instance is gone, its confirm never arrived
  EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);

  // While the pinned session is fresh, a second instance is refused —
  // the anti-fork pin holds.
  auto second = make_app(m1_);
  EXPECT_EQ(second->ecall_migration_init(ByteView(), InitState::kMigrate,
                                         "m1"),
            Status::kMigrationInProgress);
  second.reset();

  // Once the pinned session has been idle past the takeover timeout the
  // delivery re-arms to a fresh attested session of the same MRENCLAVE.
  world_.clock().advance(seconds(11));
  auto third = make_app(m1_);
  ASSERT_EQ(third->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(third->ecall_read_migratable_counter(id).value(), 1u);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 0u);
  EXPECT_EQ(me("m0")->outgoing_state(image_->mr_enclave()),
            OutgoingState::kCompleted);
}

// ----- snapshot integrity -----

TEST_F(MeDurableQueueTest, QueueSnapshotIsMachineBoundAndTornWriteSafe) {
  auto a = start_new(m0_);
  a->ecall_create_migratable_counter();
  ASSERT_EQ(a->ecall_migration_start("m1"), Status::kOk);

  // The snapshot on disk is sealed to m0's CPU + the ME identity: an ME
  // on another machine cannot open it.
  auto blob = m0_.storage().get_versioned("m0.me-queue");
  ASSERT_TRUE(blob.ok());
  EXPECT_NE(me("m1")->restore_queue(blob.value()), Status::kOk);

  // Second transition so both versioned slots hold the retained entry,
  // then tear the newest slot: restart must fall back to the older
  // intact snapshot and still present the retained transfer.
  auto b = std::make_unique<MigratableEnclave>(
      m0_, EnclaveImage::create("dq-other", 1, "acme"));
  b->set_persist_callback([this](ByteView s) { m0_.storage().put("ml2", s); });
  ASSERT_EQ(b->ecall_migration_init(ByteView(), InitState::kNew, "m0"),
            Status::kOk);
  ASSERT_EQ(b->ecall_migration_start("m1"), Status::kOk);

  // put_versioned writes seq N into slot N%2 (seq 1 -> "#1", 2 -> "#0").
  const uint64_t newest = m0_.storage().versioned_sequence("m0.me-queue");
  const std::string newest_slot =
      "m0.me-queue#" + std::to_string(newest % 2 == 1 ? 1 : 0);
  ASSERT_TRUE(m0_.storage().corrupt(newest_slot, 24));
  restart_me("m0");
  // At least the first enclave's retained transfer survived (whichever
  // slot was corrupted, the other intact snapshot contains it).
  EXPECT_GE(me("m0")->outgoing_count(), 1u);
  EXPECT_EQ(me("m0")->outgoing_state(image_->mr_enclave()),
            OutgoingState::kPending);
}

TEST_F(MeDurableQueueTest, QueueSnapshotInRetiredFormatIsTampered) {
  auto a = start_new(m0_);
  a->ecall_create_migratable_counter();
  ASSERT_EQ(a->ecall_migration_start("m1"), Status::kOk);

  // The destination's snapshot holds one pending entry, no transfer tasks
  // and no cached peer sessions (acceptor state is never persisted).
  auto blob = m1_.storage().get_versioned("m1.me-queue");
  ASSERT_TRUE(blob.ok());
  QueueSealer sealer(m1_);
  const Bytes current = sealer.open(blob.value());
  const std::string v5 = "SGXMIG-ME-QUEUE-v5";
  const auto magic_at = std::search(current.begin(), current.end(),
                                    v5.begin(), v5.end());
  ASSERT_EQ(magic_at - current.begin(), 4);  // after the u32 length
  ASSERT_GE(current.size(), 8u);
  ASSERT_TRUE(std::all_of(current.end() - 8, current.end(),
                          [](uint8_t b) { return b == 0; }));

  // Control: the unchanged snapshot, re-sealed, restores.
  EXPECT_EQ(me("m1")->restore_queue(sealer.seal_queue(current)), Status::kOk);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);

  // The same state written as a v4 snapshot: v4 pre-copy tasks carried a
  // channel and no staged finalize, and this queue holds no pre-copy
  // task, so only the magic differs.  Correctly sealed, well formed for v4, and refused: v5
  // is the only format read.
  Bytes v4 = current;
  v4[4 + v5.size() - 1] = '4';
  EXPECT_EQ(me("m1")->restore_queue(sealer.seal_queue(v4)),
            Status::kTampered);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);

  // As a v3 snapshot: v3 had no peer-session section either, so the
  // trailing zero session count goes.  Refused the same way.
  Bytes v3(current.begin(), current.end() - 4);
  v3[4 + v5.size() - 1] = '3';
  EXPECT_EQ(me("m1")->restore_queue(sealer.seal_queue(v3)),
            Status::kTampered);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);
}

// ----- queue format v5, byte for byte -----

/// A fresh live-transfer enclave of its own image on m0 with three
/// counters, one of them incremented (so its pre-copy rounds carry a
/// populated chunk).
std::unique_ptr<MigratableEnclave> counting_app(platform::Machine& m0,
                                                const std::string& name) {
  auto enclave = std::make_unique<MigratableEnclave>(
      m0, EnclaveImage::create(name, 1, "acme"), /*live_transfer=*/true);
  enclave->set_persist_callback(
      [&m0, name](ByteView s) { m0.storage().put(name, s); });
  EXPECT_EQ(enclave->ecall_migration_init(ByteView(), InitState::kNew, "m0"),
            Status::kOk);
  for (int i = 0; i < 3; ++i) enclave->ecall_create_migratable_counter();
  enclave->ecall_increment_migratable_counter(1);
  return enclave;
}

// The source ME holds every kind of durable source-side work — a
// pre-copy attempt with merged chunks, a queued full-snapshot task and an
// unarmed reservation — and the destination holds the attempt's staging.
// Returns the three apps, which must outlive the queues.
std::vector<std::unique_ptr<MigratableEnclave>> pinned_queue_apps(
    platform::Machine& m0) {
  std::vector<std::unique_ptr<MigratableEnclave>> apps;
  apps.push_back(counting_app(m0, "pin-precopy"));
  EXPECT_TRUE(apps.back()->ecall_migration_precopy_round("m1").ok());
  apps.push_back(counting_app(m0, "pin-queued"));
  EXPECT_TRUE(apps.back()->ecall_migration_enqueue_detailed("m1").ok());
  apps.push_back(counting_app(m0, "pin-reserved"));
  EXPECT_TRUE(apps.back()->ecall_migration_reserve_detailed("m1").ok());
  return apps;
}

// Both sealed snapshots of the pinned queues are pinned by SHA-256: the
// v5 layout may not move by a single byte, and a restart restores the
// same queue.  The digests also move with the machine's random stream (a
// seal added or removed before the snapshot shifts the nonces drawn into
// it), so each plaintext's length and the entry count of every section
// of the decoded queue are pinned too: those stay put when only the
// stream moves, and a layout change still trips them.
TEST_F(MeDurableQueueTest, QueueSnapshotBytesArePinned) {
  const auto apps = pinned_queue_apps(m0_);
  // Nothing is pumped: the enqueued task and the reservation are queued.
  ASSERT_EQ(me("m0")->transfer_task_count(), 3u);
  ASSERT_EQ(me("m1")->precopy_staging_count(), 1u);

  const auto sha256_hex = [](const Bytes& blob) {
    const crypto::Sha256Digest digest = crypto::Sha256::hash(blob);
    return hex_encode(ByteView(digest.data(), digest.size()));
  };
  EXPECT_EQ(sha256_hex(me("m0")->sealed_queue_state()),
            "92d8b302da00202628b79651677eddca9f8ec60d370b88b23db7c35642c86d54");
  EXPECT_EQ(sha256_hex(me("m1")->sealed_queue_state()),
            "8afa6063235664f6eb7bf71d9c4e80ab9a19570d2d9660afbc67529f90bf4f3d");

  // Snapshot sections in write order: outgoing, assembled incoming,
  // authenticated inbound, latest outgoing, completed outgoing, confirmed
  // incoming, DONE relays, pre-copy tasks, staged incoming, queued
  // full-snapshot tasks, peer sessions.
  const auto section_counts = [](const migration::DurableQueue& q) {
    const auto count = [](const auto& map, auto in_section) {
      return static_cast<size_t>(std::count_if(
          map.begin(), map.end(),
          [&](const auto& entry) { return in_section(entry.second); }));
    };
    return std::vector<size_t>{
        q.outgoing_.size(),
        count(q.incoming_, [](const auto& r) { return r.assembled(); }),
        count(q.inbound_,
              [](const auto& in) {
                return in.authenticated && in.channel.has_value();
              }),
        q.latest_outgoing_.size(),
        q.completed_outgoing_.size(),
        q.confirmed_incoming_.size(),
        q.done_relays_.size(),
        count(q.transfer_tasks_, [](const auto& t) { return t.precopy; }),
        count(q.incoming_, [](const auto& r) { return !r.assembled(); }),
        count(q.transfer_tasks_,
              [](const auto& t) { return !t.precopy && !t.blocking; }),
        q.peer_sessions_.size()};
  };
  const struct {
    const char* address;
    size_t plaintext_bytes;
    std::vector<size_t> sections;
  } layouts[] = {
      {"m0", 3178, {0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 1}},
      {"m1", 308, {0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0}},
  };
  for (const auto& layout : layouts) {
    SCOPED_TRACE(layout.address);
    QueueSealer sealer(machine(layout.address));
    const Bytes plaintext =
        sealer.open(me(layout.address)->sealed_queue_state());
    EXPECT_EQ(plaintext.size(), layout.plaintext_bytes);
    auto decoded = decode_record<migration::DurableQueue>(plaintext);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(section_counts(decoded.value()), layout.sections);
  }

  restart_me("m0");
  restart_me("m1");
  EXPECT_EQ(me("m0")->transfer_task_count(), 3u);
  EXPECT_EQ(me("m0")->outgoing_count(), 0u);
  EXPECT_EQ(me("m1")->precopy_staging_count(), 1u);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 0u);
}

// The pinned queues' plaintexts hold every field kind the snapshot has
// (maps split into sections, ordered maps, optionals, sized records):
// encode_record writes each one as a plain write_record does, into one
// allocation of exactly its size.
TEST_F(MeDurableQueueTest, QueueSnapshotEncodesLikeWriteRecord) {
  const auto apps = pinned_queue_apps(m0_);
  for (const char* address : {"m0", "m1"}) {
    SCOPED_TRACE(address);
    QueueSealer sealer(machine(address));
    const Bytes plaintext = sealer.open(me(address)->sealed_queue_state());
    auto decoded = decode_record<migration::DurableQueue>(plaintext);
    ASSERT_TRUE(decoded.ok());
    BinaryWriter w;
    write_record(w, decoded.value());
    const Bytes encoded = encode_record(decoded.value());
    EXPECT_EQ(encoded, w.data());
    EXPECT_EQ(encoded, plaintext);
    EXPECT_EQ(encoded.capacity(), encoded.size());
  }
}

// The host owns the stored snapshot.  On the pinned queues' plaintexts:
// each decodes and re-encodes to itself; every strict prefix and one
// appended byte, correctly sealed, are refused and leave the ME's queue as
// it was; and a section count forged to 0xFFFFFFFF on a short buffer is
// refused at the first entry that runs out of bytes (a reader that
// honoured the count would spin through 2^32 entries first).
TEST_F(MeDurableQueueTest, HostileQueueSnapshotsAreRefused) {
  const auto apps = pinned_queue_apps(m0_);
  for (const char* address : {"m0", "m1"}) {
    SCOPED_TRACE(address);
    QueueSealer sealer(machine(address));
    const Bytes plaintext = sealer.open(me(address)->sealed_queue_state());
    ASSERT_FALSE(plaintext.empty());
    auto decoded = decode_record<migration::DurableQueue>(plaintext);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(encode_record(decoded.value()), plaintext);

    MigrationEnclave& target = *me(address);
    const auto queue_shape = [&target] {
      return std::vector<size_t>{
          target.transfer_task_count(), target.outgoing_count(),
          target.pending_incoming_count(), target.precopy_staging_count(),
          target.unrelayed_done_count(), target.completed_history_size()};
    };
    const std::vector<size_t> shape = queue_shape();
    for (size_t len = 0; len < plaintext.size(); ++len) {
      const Bytes prefix(plaintext.begin(), plaintext.begin() + len);
      ASSERT_EQ(target.restore_queue(sealer.seal_queue(prefix)),
                Status::kTampered)
          << "prefix of " << len << " bytes";
    }
    Bytes longer = plaintext;
    longer.push_back(0);
    EXPECT_EQ(target.restore_queue(sealer.seal_queue(longer)),
              Status::kTampered);
    EXPECT_EQ(queue_shape(), shape);

    // The outgoing section's count follows the magic and the sequence.
    constexpr size_t kFirstCount = 4 + 18 + 8;
    Bytes forged(plaintext.begin(), plaintext.begin() + kFirstCount + 16);
    store_le32(forged.data() + kFirstCount, 0xFFFFFFFFu);
    EXPECT_EQ(target.restore_queue(sealer.seal_queue(forged)),
              Status::kTampered);
    EXPECT_EQ(queue_shape(), shape);
  }
}

// A nonce is one attempt of one mode: a snapshot that lists one nonce in
// both the pre-copy section and the full-snapshot task section is
// refused, even correctly sealed.  Likewise an identity holds one
// incoming record, so one listed in both incoming sections is refused.
TEST_F(MeDurableQueueTest, QueueSnapshotListingANonceTwiceIsTampered) {
  world_.observability().set_enabled(true);
  auto precopy = counting_app(m0_, "twice-precopy");
  ASSERT_TRUE(precopy->ecall_migration_precopy_round("m1").ok());
  auto queued = counting_app(m0_, "twice-queued");
  ASSERT_TRUE(queued->ecall_migration_enqueue_detailed("m1").ok());
  ASSERT_EQ(me("m0")->transfer_task_count(), 2u);

  // Each attempt's trace id is its request nonce.
  uint64_t precopy_nonce = 0;
  uint64_t queued_nonce = 0;
  const obs::TraceRecorder& trace = world_.observability().trace;
  for (const obs::TraceSpan& span : trace.spans()) {
    if (span.name == "precopy_round") precopy_nonce = span.trace_id;
  }
  for (const obs::TraceInstant& instant : trace.instants()) {
    if (instant.name == "migration.queued") queued_nonce = instant.trace_id;
  }
  ASSERT_NE(precopy_nonce, 0u);
  ASSERT_NE(queued_nonce, 0u);

  auto blob = m0_.storage().get_versioned("m0.me-queue");
  ASSERT_TRUE(blob.ok());
  QueueSealer sealer(m0_);
  const Bytes current = sealer.open(blob.value());
  // Rewrites every little-endian copy of `from` (the task's key and the
  // nonce inside its request) to `to`.
  const auto renonce = [&current](uint64_t from, uint64_t to) {
    Bytes edited = current;
    uint8_t needle[8];
    uint8_t replacement[8];
    for (int i = 0; i < 8; ++i) {
      needle[i] = static_cast<uint8_t>(from >> (8 * i));
      replacement[i] = static_cast<uint8_t>(to >> (8 * i));
    }
    size_t copies = 0;
    for (auto at = edited.begin();
         (at = std::search(at, edited.end(), needle, needle + 8)) !=
         edited.end();
         at += 8) {
      std::copy(replacement, replacement + 8, at);
      ++copies;
    }
    EXPECT_EQ(copies, 2u);
    return edited;
  };

  // Control: the same edit toward an unused nonce restores.
  EXPECT_EQ(me("m0")->restore_queue(
                sealer.seal_queue(renonce(queued_nonce, queued_nonce + 1))),
            Status::kOk);
  EXPECT_EQ(me("m0")->restore_queue(
                sealer.seal_queue(renonce(queued_nonce, precopy_nonce))),
            Status::kTampered);
  EXPECT_EQ(me("m0")->transfer_task_count(), 2u);

  // An identity holds one incoming record: m1's snapshot lists the queued
  // app's assembled record and the pre-copy app's staged one, and naming
  // one identity in both sections is refused.
  for (int i = 0; i < 8 && me("m1")->pending_incoming_count() == 0; ++i) {
    me("m0")->pump();
    world_.network().pump_all();
  }
  ASSERT_EQ(me("m1")->pending_incoming_count(), 1u);
  ASSERT_EQ(me("m1")->precopy_staging_count(), 1u);
  auto m1_blob = m1_.storage().get_versioned("m1.me-queue");
  ASSERT_TRUE(m1_blob.ok());
  QueueSealer m1_sealer(m1_);
  const Bytes m1_current = m1_sealer.open(m1_blob.value());
  const sgx::Measurement staged =
      EnclaveImage::create("twice-precopy", 1, "acme")->mr_enclave();
  // Rewrites the staged record's identity (its one copy) to `to`.
  const auto reidentify = [&](const sgx::Measurement& to) {
    Bytes edited = m1_current;
    const auto at =
        std::search(edited.begin(), edited.end(), staged.begin(), staged.end());
    EXPECT_NE(at, edited.end());
    EXPECT_EQ(std::search(at + 1, edited.end(), staged.begin(), staged.end()),
              edited.end());
    if (at != edited.end()) std::copy(to.begin(), to.end(), at);
    return m1_sealer.seal_queue(edited);
  };
  sgx::Measurement unused = staged;
  unused[0] ^= 0xff;
  EXPECT_EQ(me("m1")->restore_queue(reidentify(unused)), Status::kOk);
  EXPECT_EQ(me("m1")->restore_queue(reidentify(
                EnclaveImage::create("twice-queued", 1, "acme")->mr_enclave())),
            Status::kTampered);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 1u);
  EXPECT_EQ(me("m1")->precopy_staging_count(), 1u);
}

// ----- the resumable pre-copy finalize record -----

// `app`'s async pre-copy attempt toward m1: one round, a final delta on
// counter 2, and a finalize that the source ME has shipped and recorded
// but the destination has not yet received.
void ship_async_finalize(MigrationEnclave& source, platform::World& world,
                         MigratableEnclave& app) {
  source.set_async_precopy(true);
  ASSERT_TRUE(app.ecall_migration_precopy_round("m1").ok());
  source.pump();
  world.network().pump_all();
  app.ecall_increment_migratable_counter(2);
  const auto queued = app.ecall_migration_finalize_detailed("m1");
  ASSERT_EQ(queued.status, Status::kMigrationInProgress) << queued.message;
}

// An instance of counting_app(name)'s image on m1, restored from the
// incoming record (nullptr when the restore fails).
std::unique_ptr<MigratableEnclave> arrive_on(platform::Machine& m1,
                                             const std::string& name) {
  auto enclave = std::make_unique<MigratableEnclave>(
      m1, EnclaveImage::create(name, 1, "acme"), /*live_transfer=*/true);
  enclave->set_persist_callback(
      [&m1, name](ByteView s) { m1.storage().put(name, s); });
  if (enclave->ecall_migration_init(ByteView(), InitState::kMigrate, "m1") !=
      Status::kOk) {
    return nullptr;
  }
  return enclave;
}

void expect_counting_values(MigratableEnclave& moved) {
  EXPECT_EQ(moved.ecall_read_migratable_counter(0).value(), 0u);
  EXPECT_EQ(moved.ecall_read_migratable_counter(1).value(), 1u);
  EXPECT_EQ(moved.ecall_read_migratable_counter(2).value(), 1u);
}

// The source ME restarts after the finalize's ack and before any later
// queue commit, so it restores the record written at the ship.  The
// destination instance confirms first: its DONE is sealed on the
// conversation the restarted ME no longer holds, and the source keeps it
// waiting while its restored task still names that conversation.  The
// task re-ships, the destination answers the repeat of a confirmed
// migration with its DONE, and the queues settle with nothing stranded.
TEST_F(MeDurableQueueTest, SourceMeRestartAfterTheFinalizeAckSettles) {
  auto app = counting_app(m0_, "ack-restart");
  ship_async_finalize(*me("m0"), world_, *app);
  world_.network().pump_all();
  ASSERT_TRUE(app->ecall_migration_poll_transfer().ok());
  ASSERT_EQ(me("m0")->outgoing_count(), 1u);  // retained, not yet durable
  app.reset();

  restart_me("m0");
  me("m0")->set_async_precopy(true);
  EXPECT_EQ(me("m0")->outgoing_count(), 0u);
  EXPECT_EQ(me("m0")->transfer_task_count(), 1u);
  auto moved = arrive_on(m1_, "ack-restart");
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(me("m1")->unrelayed_done_count(), 1u);

  chaos::settle_queues(world_);
  EXPECT_EQ(me("m0")->transfer_task_count(), 0u);
  EXPECT_EQ(me("m0")->outgoing_count(), 0u);
  EXPECT_EQ(me("m1")->unrelayed_done_count(), 0u);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 0u);
  EXPECT_EQ(me("m1")->precopy_staging_count(), 0u);
  expect_counting_values(*moved);
  EXPECT_EQ(arrive_on(m1_, "ack-restart"), nullptr);
}

// As above, but the destination ME is unreachable for longer than a
// finalize's ship budget while the restored task tries to re-ship.  The
// library that staged the finalize is gone, so the resumed finalize
// spends no budget: it keeps its record and the DONE stays held until the
// destination is back, and then the queues settle.
TEST_F(MeDurableQueueTest, ResumedFinalizeOutlastsAnUnreachableDestination) {
  auto app = counting_app(m0_, "unreachable");
  ship_async_finalize(*me("m0"), world_, *app);
  world_.network().pump_all();
  ASSERT_TRUE(app->ecall_migration_poll_transfer().ok());
  app.reset();

  restart_me("m0");
  me("m0")->set_async_precopy(true);
  auto moved = arrive_on(m1_, "unreachable");
  ASSERT_NE(moved, nullptr);
  world_.network().set_endpoint_down("m1/me", true);
  for (int pump = 0; pump < 5; ++pump) {
    me("m0")->pump();
    world_.network().pump_all();
    EXPECT_EQ(me("m1")->retry_done_relays(), 1u);
  }
  EXPECT_EQ(me("m0")->transfer_task_count(), 1u);
  EXPECT_EQ(me("m0")->outgoing_count(), 0u);

  world_.network().set_endpoint_down("m1/me", false);
  chaos::settle_queues(world_);
  EXPECT_EQ(me("m0")->transfer_task_count(), 0u);
  EXPECT_EQ(me("m0")->outgoing_count(), 0u);
  EXPECT_EQ(me("m1")->unrelayed_done_count(), 0u);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 0u);
  expect_counting_values(*moved);
  EXPECT_EQ(arrive_on(m1_, "unreachable"), nullptr);
}

// The destination confirmed the migration and then forgot it — its
// confirm history holds one identity, and another identity's confirm
// evicts it — before the restarted source re-ships the finalize.  The
// resumed finalize may not start a record of a migration the destination
// does not hold: it is refused, and no second instance restores.  The
// source's task, left with merged chunks and no MSK and no library to
// finish it, ages out with the staging sweep.
TEST_F(MeDurableQueueTest, ResumedFinalizeAfterAForgottenConfirmCannotFork) {
  me("m1")->set_completed_history_limit(1);
  auto app = counting_app(m0_, "forgotten");
  ship_async_finalize(*me("m0"), world_, *app);
  world_.network().pump_all();
  ASSERT_TRUE(app->ecall_migration_poll_transfer().ok());
  app.reset();

  restart_me("m0");
  me("m0")->set_async_precopy(true);
  auto moved = arrive_on(m1_, "forgotten");
  ASSERT_NE(moved, nullptr);
  ASSERT_EQ(me("m1")->confirmed_incoming_size(), 1u);

  // Another identity moves m2 -> m1 and is confirmed there.
  platform::Machine& m2 = world_.add_machine("m2");
  const auto other_image = EnclaveImage::create("other", 1, "acme");
  auto other = std::make_unique<MigratableEnclave>(m2, other_image);
  other->set_persist_callback([&m2](ByteView s) { m2.storage().put("o", s); });
  ASSERT_EQ(other->ecall_migration_init(ByteView(), InitState::kNew, "m2"),
            Status::kOk);
  other->ecall_create_migratable_counter();
  ASSERT_EQ(other->ecall_migration_start("m1"), Status::kOk);
  auto other_moved = std::make_unique<MigratableEnclave>(m1_, other_image);
  other_moved->set_persist_callback(
      [this](ByteView s) { m1_.storage().put("o", s); });
  ASSERT_EQ(other_moved->ecall_migration_init(ByteView(), InitState::kMigrate,
                                              "m1"),
            Status::kOk);
  ASSERT_EQ(me("m1")->confirmed_incoming_size(), 1u);

  chaos::settle_queues(world_);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 0u);
  EXPECT_EQ(me("m1")->precopy_staging_count(), 0u);
  EXPECT_EQ(me("m1")->unrelayed_done_count(), 0u);
  EXPECT_EQ(me("m0")->transfer_task_count(), 1u);
  EXPECT_EQ(me("m0")->outgoing_count(), 0u);
  EXPECT_EQ(arrive_on(m1_, "forgotten"), nullptr);

  // A sweep inside the max age keeps the task; one after it expires it.
  EXPECT_EQ(me("m0")->sweep_stale_precopy_staging(), 0u);
  EXPECT_EQ(me("m0")->transfer_task_count(), 1u);
  world_.clock().advance(seconds(600));
  EXPECT_EQ(me("m0")->sweep_stale_precopy_staging(), 1u);
  EXPECT_EQ(me("m0")->transfer_task_count(), 0u);
  restart_me("m0");
  EXPECT_EQ(me("m0")->transfer_task_count(), 0u);  // the sweep persisted
  chaos::settle_queues(world_);
  EXPECT_EQ(arrive_on(m1_, "forgotten"), nullptr);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 0u);
  expect_counting_values(*moved);
}

// As above, but the destination instance has fetched and not yet
// confirmed when the restored task re-ships: the delivered record is the
// same migration, so it moves to the new conversation, and the DONE its
// confirm seals there completes the source.
TEST_F(MeDurableQueueTest, RestoredFinalizeRebindsADeliveredRecord) {
  auto app = counting_app(m0_, "delivered");
  ship_async_finalize(*me("m0"), world_, *app);
  world_.network().pump_all();
  ASSERT_TRUE(app->ecall_migration_poll_transfer().ok());
  app.reset();
  restart_me("m0");
  me("m0")->set_async_precopy(true);

  // The first instance fetches; every later LA record to m1 is dropped,
  // so its confirm never arrives and the delivery stays pinned.
  me("m1")->set_delivery_takeover_timeout(seconds(10));
  uint32_t la_records_to_m1 = 0;
  world_.network().set_tamper_hook(
      [&](const std::string& to, Bytes& request) {
        if (to != "m1/me") return true;
        auto parsed = decode_record<MeRequest>(request);
        return !(parsed.ok() && parsed.value().type == MeMsgType::kLaRecord &&
                 ++la_records_to_m1 >= 2);
      });
  EXPECT_EQ(arrive_on(m1_, "delivered"), nullptr);
  world_.network().clear_tamper_hook();
  ASSERT_EQ(me("m1")->pending_incoming_count(), 1u);

  me("m0")->pump();
  world_.network().pump_all();
  EXPECT_EQ(me("m0")->transfer_task_count(), 0u);
  EXPECT_EQ(me("m0")->outgoing_count(), 1u);

  world_.clock().advance(seconds(11));
  auto moved = arrive_on(m1_, "delivered");
  ASSERT_NE(moved, nullptr);
  expect_counting_values(*moved);
  EXPECT_EQ(me("m0")->outgoing_count(), 0u);
  EXPECT_EQ(me("m1")->unrelayed_done_count(), 0u);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 0u);
}

// The host rolls the source ME's queue back to the record written at the
// finalize's ship after the destination confirmed, then restarts the ME.
// The re-shipped finalize repeats a confirmed migration: the destination
// answers it with its DONE and holds no second record, so no second
// instance restores.
TEST_F(MeDurableQueueTest, FinalizeRecordRolledBackAfterTheConfirmCannotFork) {
  auto app = counting_app(m0_, "rollback");
  ship_async_finalize(*me("m0"), world_, *app);
  const auto ship_time = m0_.storage().get_versioned("m0.me-queue");
  ASSERT_TRUE(ship_time.ok());
  world_.network().pump_all();
  ASSERT_TRUE(app->ecall_migration_poll_transfer().ok());
  app.reset();
  auto moved = arrive_on(m1_, "rollback");
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(me("m0")->outgoing_count(), 0u);  // the DONE got through

  m0_.storage().put_versioned("m0.me-queue", ship_time.value());
  restart_me("m0");
  me("m0")->set_async_precopy(true);
  ASSERT_EQ(me("m0")->transfer_task_count(), 1u);
  chaos::settle_queues(world_);
  EXPECT_EQ(me("m1")->pending_incoming_count(), 0u);
  EXPECT_EQ(me("m1")->precopy_staging_count(), 0u);
  EXPECT_EQ(me("m1")->unrelayed_done_count(), 0u);
  EXPECT_EQ(me("m0")->transfer_task_count(), 0u);
  EXPECT_EQ(me("m0")->outgoing_count(), 0u);
  EXPECT_EQ(arrive_on(m1_, "rollback"), nullptr);
  expect_counting_values(*moved);
}

TEST(MeSettingsAcrossRestart, FactoryConfigureRunsOnEveryStart) {
  World world(4343);
  world.install_management_enclaves(migration::durable_me_factory(
      world.provider(), [](MigrationEnclave& me) {
        me.set_delivery_takeover_timeout(std::chrono::seconds(2));
        me.set_async_precopy(true);
      }));
  platform::Machine& m0 = world.add_machine("m0");
  for (int start = 0; start < 2; ++start) {
    MigrationEnclave* me = migration::me_on(m0);
    ASSERT_NE(me, nullptr) << "start " << start;
    EXPECT_TRUE(me->async_precopy()) << "start " << start;
    EXPECT_EQ(me->delivery_takeover_timeout(), std::chrono::seconds(2))
        << "start " << start;
    m0.kill_management_enclave();
    ASSERT_TRUE(m0.restart_management_enclave());
  }

  // A setting applied directly to one instance lasts only for that
  // instance: the next start runs `configure` again.
  platform::Machine& m1 = world.add_machine("m1");
  migration::me_on(m1)->set_async_precopy(false);
  migration::me_on(m1)->set_delivery_takeover_timeout(std::chrono::seconds(9));
  m1.kill_management_enclave();
  ASSERT_TRUE(m1.restart_management_enclave());
  EXPECT_TRUE(migration::me_on(m1)->async_precopy());
  EXPECT_EQ(migration::me_on(m1)->delivery_takeover_timeout(),
            std::chrono::seconds(2));
}

// ----- orchestrated drain through ME restarts -----

TEST_F(MeDurableQueueTest, DrainConvergesThroughSourceAndDestinationMeRestarts) {
  FleetRegistry fleet(world_);
  const std::vector<uint64_t> ids = launch_drain_fleet(fleet, "drain-");

  Scheduler scheduler(fleet);
  OrchestratorOptions options;
  options.max_inflight_per_machine = 4;
  options.max_inflight_total = 8;
  options.max_attempts = 6;
  Orchestrator orch(fleet, scheduler, options);
  // Chaos: MID-completion-wave — while other admitted migrations still
  // hold retained entries at the source ME and pending entries at their
  // destination MEs — the source ME and the busiest destination ME both
  // crash, losing every in-memory session.  (A wave-boundary kill would
  // find the queues already drained: each wave completes what it
  // admits.)  At the second completion, later-admitted tasks are still
  // kStarted, with retained copies at m0's ME and pending entries at
  // their destination MEs (m1 among them).  Both stay dark for two full
  // waves so queued and in-flight tasks genuinely fail against the dead
  // MEs; the third revives them, restoring their durable queues.
  chaos::ChaosExecutor executor(
      world_, chaos::crash_at_completion({"m0", "m1"}, /*completion=*/2,
                                         /*revive_after_waves=*/3));
  executor.arm(orch);
  const auto report = orch.execute(Plan::drain("m0"));
  // Both kills and both revivals actually fired mid-drain.
  EXPECT_EQ(executor.injected().at("injected.me-crash"), 2u);
  EXPECT_EQ(executor.injected().at("healed.me-restart"), 2u);

  EXPECT_EQ(report.succeeded(), 32u);
  EXPECT_EQ(report.failed(), 0u);
  EXPECT_GT(report.total_retries(), 0u);  // the chaos was actually felt
  expect_drained_without_forks(fleet, ids, /*pipelined=*/false);
}

TEST_F(MeDurableQueueTest, PipelinedDrainConvergesThroughSourceMeRestart) {
  // The acceptance drain of the pipelined engine: 32 enclaves leave m0
  // through the TransferTask pipeline at cap 4, the source ME crashes
  // with transfers mid-conversation, and the revived ME resumes every
  // in-flight pipeline from the durable queue (v3) — zero failures, no
  // forks, exactly-once per nonce.
  FleetRegistry fleet(world_);
  const std::vector<uint64_t> ids = launch_drain_fleet(fleet, "pipe-drain-");

  Scheduler scheduler(fleet);
  OrchestratorOptions options;
  options.max_inflight_per_machine = 4;
  options.max_inflight_total = 8;
  options.max_attempts = 6;
  options.pipelined = true;
  Orchestrator orch(fleet, scheduler, options);
  // Mid-drain, with TransferTasks queued/mid-conversation at m0's ME.
  chaos::ChaosExecutor executor(
      world_, chaos::crash_at_completion({"m0"}, /*completion=*/2,
                                         /*revive_after_waves=*/3));
  executor.arm(orch);
  const auto report = orch.execute(Plan::drain("m0"));
  EXPECT_EQ(executor.injected().at("injected.me-crash"), 1u);
  EXPECT_EQ(executor.injected().at("healed.me-restart"), 1u);

  EXPECT_EQ(report.succeeded(), 32u);
  EXPECT_EQ(report.failed(), 0u);
  expect_drained_without_forks(fleet, ids, /*pipelined=*/true);
}

}  // namespace
}  // namespace sgxmig
