// Cached ME<->ME attestation sessions: after one full mutual-RA handshake
// the source ME holds a (peer address, instance epoch)-keyed master key
// and later transfers to the same destination resume in ONE round trip.
// Every downgrade path must land on a full re-handshake — destination ME
// restart (acceptors are memory-only, and the restarted ME draws a fresh
// instance epoch) and a tampered resume message — and
// NONE of them may weaken the migration guarantees: the source still
// freezes, replayed pre-migration state still finds its counters gone,
// and the payload is still delivered exactly once.  The sync callers of
// the same handshake (the pre-copy first contact, the kAbort and the
// kReconcile query) ride the cache, downgrade the same way, and follow
// the step machine's policy: a resume lost on the wire fails the call
// and keeps the cache, a refused one re-handshakes under a fresh id.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "migration/migratable_enclave.h"
#include "migration/migration_enclave.h"
#include "platform/world.h"

namespace sgxmig {
namespace {

using migration::InitState;
using migration::MeMsgType;
using migration::MeRequest;
using migration::MigratableEnclave;
using migration::MigrationEnclave;
using platform::Machine;
using platform::World;
using sgx::EnclaveImage;

constexpr const char* kStateBlob = "app-state";

class AttestCacheTest : public ::testing::Test {
 protected:
  AttestCacheTest() {
    world_.install_management_enclaves(
        migration::durable_me_factory(world_.provider()));
  }

  Machine& machine(const std::string& address) {
    return *world_.machine(address);
  }
  MigrationEnclave* me(const std::string& address) {
    return migration::me_on(machine(address));
  }
  void restart_me(const std::string& address) {
    machine(address).kill_management_enclave();
    ASSERT_TRUE(machine(address).restart_management_enclave());
  }

  /// `live`: pre-copy capable (live-transfer epoch guard).
  std::unique_ptr<MigratableEnclave> make_app(
      Machine& m, std::shared_ptr<const EnclaveImage> image,
      bool live = false) {
    auto enclave = std::make_unique<MigratableEnclave>(m, image, live);
    enclave->set_persist_callback(
        [&m](ByteView state) { m.storage().put(kStateBlob, state); });
    return enclave;
  }
  std::unique_ptr<MigratableEnclave> start_new(
      Machine& m, std::shared_ptr<const EnclaveImage> image,
      bool live = false) {
    auto enclave = make_app(m, image, live);
    EXPECT_EQ(enclave->ecall_migration_init(ByteView(), InitState::kNew,
                                            m.address()),
              Status::kOk);
    m.storage().put(kStateBlob, enclave->sealed_state());
    return enclave;
  }
  /// Full migration src -> dst (source object destroyed, destination
  /// inits as kMigrate and pulls the pending data from its ME).
  Status migrate(std::unique_ptr<MigratableEnclave>& enclave,
                 Machine& /*src*/, Machine& dst,
                 std::shared_ptr<const EnclaveImage> image) {
    const Status start = enclave->ecall_migration_start(dst.address());
    if (start != Status::kOk) return start;
    enclave.reset();
    enclave = make_app(dst, image);
    return enclave->ecall_migration_init(ByteView(), InitState::kMigrate,
                                         dst.address());
  }

  World world_{/*seed=*/90210};
  Machine& m0_ = world_.add_machine("m0", "eu-central");
  Machine& m1_ = world_.add_machine("m1", "eu-central");
  std::shared_ptr<const EnclaveImage> image_a_ =
      EnclaveImage::create("cache-app-a", 1, "acme");
  std::shared_ptr<const EnclaveImage> image_b_ =
      EnclaveImage::create("cache-app-b", 1, "acme");
};

TEST_F(AttestCacheTest, SecondTransferResumesInsteadOfRehandshaking) {
  auto a = start_new(m0_, image_a_);
  ASSERT_EQ(migrate(a, m0_, m1_, image_a_), Status::kOk);
  EXPECT_EQ(me("m0")->full_handshake_count(), 1u);
  EXPECT_EQ(me("m0")->resumed_handshake_count(), 0u);
  EXPECT_EQ(me("m0")->peer_session_count(), 1u);

  // A second enclave migrating along the same ME pair rides the cache.
  auto b = start_new(m0_, image_b_);
  ASSERT_EQ(migrate(b, m0_, m1_, image_b_), Status::kOk);
  EXPECT_EQ(me("m0")->full_handshake_count(), 1u);
  EXPECT_EQ(me("m0")->resumed_handshake_count(), 1u);
  EXPECT_EQ(me("m0")->peer_session_count(), 1u);  // re-keyed, not duplicated
}

TEST_F(AttestCacheTest, ResumedTransferStillPreventsForks) {
  // Warm the cache, then run the fork-prevention drill over a RESUMED
  // session: the one-round-trip handshake must not soften §VII-A.
  auto warm = start_new(m0_, image_b_);
  ASSERT_EQ(migrate(warm, m0_, m1_, image_b_), Status::kOk);

  auto a = start_new(m0_, image_a_);
  const uint32_t id =
      a->ecall_create_migratable_counter().value().counter_id;
  for (int i = 0; i < 3; ++i) a->ecall_increment_migratable_counter(id);
  const auto pre_migration_disk = m0_.storage().snapshot();

  ASSERT_EQ(migrate(a, m0_, m1_, image_a_), Status::kOk);
  EXPECT_GE(me("m0")->resumed_handshake_count(), 1u);

  // Exactly-once: the destination continues the counter from its
  // effective value — and the delivered data cannot be fetched twice.
  EXPECT_EQ(a->ecall_read_migratable_counter(id).value(), 3u);
  auto second = make_app(m1_, image_a_);
  EXPECT_NE(second->ecall_migration_init(ByteView(), InitState::kMigrate,
                                         m1_.address()),
            Status::kOk);

  // Zero forks: the replayed pre-migration disk finds its counters gone.
  m0_.storage().restore(pre_migration_disk);
  auto fork = make_app(m0_, image_a_);
  const Bytes state = m0_.storage().get(kStateBlob).value();
  ASSERT_EQ(fork->ecall_migration_init(state, InitState::kRestore, "m0"),
            Status::kOk);
  EXPECT_EQ(fork->ecall_increment_migratable_counter(id).status(),
            Status::kCounterNotFound);
}

TEST_F(AttestCacheTest, DestinationRestartForcesFullRehandshake) {
  auto a = start_new(m0_, image_a_);
  ASSERT_EQ(migrate(a, m0_, m1_, image_a_), Status::kOk);
  ASSERT_EQ(me("m0")->peer_session_count(), 1u);

  // The restarted ME draws a fresh instance epoch and forgets its
  // (memory-only) resume acceptors: it cannot prove it never forked the
  // old session's state, so the resume is refused.
  restart_me("m1");

  auto b = start_new(m0_, image_b_);
  ASSERT_EQ(migrate(b, m0_, m1_, image_b_), Status::kOk);
  EXPECT_EQ(me("m0")->full_handshake_count(), 2u);
  EXPECT_EQ(me("m0")->resumed_handshake_count(), 0u);
  // The stale entry was retired and replaced by the fresh handshake's.
  EXPECT_EQ(me("m0")->peer_session_count(), 1u);
}

TEST_F(AttestCacheTest, PrecopyFirstContactRidesTheCache) {
  // The pre-copy first contact runs the same handshake as a transfer
  // task: the second enclave pre-copying toward m1 resumes the session
  // the first one's full handshake cached.
  auto a = start_new(m0_, image_a_, /*live=*/true);
  ASSERT_TRUE(a->ecall_create_migratable_counter().ok());
  ASSERT_TRUE(a->ecall_migration_precopy_round("m1").ok());
  auto b = start_new(m0_, image_b_, /*live=*/true);
  ASSERT_TRUE(b->ecall_create_migratable_counter().ok());
  ASSERT_TRUE(b->ecall_migration_precopy_round("m1").ok());
  EXPECT_EQ(me("m0")->full_handshake_count(), 1u);
  EXPECT_EQ(me("m0")->resumed_handshake_count(), 1u);
  EXPECT_EQ(me("m1")->precopy_staging_count(), 2u);
}

TEST_F(AttestCacheTest, SyncCallerFollowsTheStepMachineResumePolicy) {
  auto a = start_new(m0_, image_a_);
  ASSERT_EQ(migrate(a, m0_, m1_, image_a_), Status::kOk);
  ASSERT_EQ(me("m0")->peer_session_count(), 1u);

  // Every ME<->ME request toward m1, in order: (type, conversation id).
  std::vector<std::pair<MeMsgType, uint64_t>> sent;
  bool drop_resume = true;
  world_.network().set_tamper_hook([&](const std::string& to, Bytes& request) {
    if (to != "m1/me") return true;
    auto parsed = decode_record<MeRequest>(request);
    if (!parsed.ok()) return true;
    sent.emplace_back(parsed.value().type, parsed.value().id);
    return !(drop_resume && parsed.value().type == MeMsgType::kSessionResume);
  });
  const auto count = [&sent](MeMsgType type) {
    size_t n = 0;
    for (const auto& [t, id] : sent) n += t == type ? 1 : 0;
    return n;
  };

  // A resume lost on the wire says nothing about the peer's session
  // table: the round fails with the transport status, no full handshake
  // is tried in that call, and the cache entry survives.
  auto b = start_new(m0_, image_b_, /*live=*/true);
  ASSERT_TRUE(b->ecall_create_migratable_counter().ok());
  EXPECT_EQ(b->ecall_migration_precopy_round("m1").status(),
            Status::kNetworkUnreachable);
  EXPECT_EQ(count(MeMsgType::kSessionResume), 1u);
  EXPECT_EQ(count(MeMsgType::kRaMsg1), 0u);
  EXPECT_EQ(me("m0")->peer_session_count(), 1u);
  EXPECT_EQ(me("m0")->full_handshake_count(), 1u);

  // The next round resumes over the kept entry.
  drop_resume = false;
  ASSERT_TRUE(b->ecall_migration_precopy_round("m1").ok());
  EXPECT_EQ(me("m0")->resumed_handshake_count(), 1u);
  EXPECT_EQ(me("m0")->full_handshake_count(), 1u);
  EXPECT_EQ(me("m1")->precopy_staging_count(), 1u);

  // A restarted m1 refuses the resume (its acceptors are memory-only):
  // the next first contact re-handshakes under a FRESH transfer id.
  restart_me("m1");
  sent.clear();
  auto c_image = EnclaveImage::create("cache-app-c", 1, "acme");
  auto c = start_new(m0_, c_image, /*live=*/true);
  ASSERT_TRUE(c->ecall_create_migratable_counter().ok());
  ASSERT_TRUE(c->ecall_migration_precopy_round("m1").ok());
  world_.network().clear_tamper_hook();
  ASSERT_EQ(count(MeMsgType::kSessionResume), 1u);
  ASSERT_EQ(count(MeMsgType::kRaMsg1), 1u);
  uint64_t resume_id = 0;
  uint64_t msg1_id = 0;
  for (const auto& [type, id] : sent) {
    if (type == MeMsgType::kSessionResume) resume_id = id;
    if (type == MeMsgType::kRaMsg1) msg1_id = id;
  }
  EXPECT_NE(resume_id, msg1_id);
  EXPECT_EQ(me("m0")->full_handshake_count(), 2u);
  EXPECT_EQ(me("m0")->peer_session_count(), 1u);
}

// ----- tampered resume, per caller of the handshake -----

enum class Caller { kMigrate, kPrecopyFirstContact, kAbort, kReconcile };

class TamperedResumeTest : public AttestCacheTest,
                           public ::testing::WithParamInterface<Caller> {
 protected:
  Machine& m2_ = world_.add_machine("m2", "eu-central");
};

TEST_P(TamperedResumeTest, DowngradesToFullHandshake) {
  // m0 caches a session toward m1 (and m1 one toward m0, for the
  // reconcile query, which m1 sends).
  auto a = start_new(m0_, image_a_);
  ASSERT_EQ(migrate(a, m0_, m1_, image_a_), Status::kOk);
  const Caller caller = GetParam();
  const bool from_m1 = caller == Caller::kReconcile;
  if (from_m1) {
    ASSERT_EQ(migrate(a, m1_, m0_, image_a_), Status::kOk);
  }

  auto b = start_new(m0_, image_b_, caller != Caller::kMigrate);
  const uint32_t id = b->ecall_create_migratable_counter().value().counter_id;
  b->ecall_increment_migratable_counter(id);
  if (caller == Caller::kAbort) {
    // Staging at m1 that the re-route below aborts.
    ASSERT_TRUE(b->ecall_migration_precopy_round("m1").ok());
    ASSERT_EQ(me("m1")->precopy_staging_count(), 1u);
  }
  if (caller == Caller::kReconcile) {
    // A lost-ACCEPTED orphan at m1: m1 durably holds b's copy, m0 never
    // learns it landed.  b re-routes to m2 while m1 is dark (so no abort
    // reaches m1) and completes there: m0 can now vouch the orphan is
    // superseded.
    bool arm = false;
    world_.network().set_tamper_hook([&arm](const std::string& to,
                                            Bytes& request) {
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
    EXPECT_NE(b->ecall_migration_start("m1"), Status::kOk);
    world_.network().clear_tamper_hook();
    world_.network().clear_response_tamper_hook();
    ASSERT_EQ(me("m1")->pending_incoming_count(), 1u);
    world_.network().set_endpoint_down("m1/me", true);
    ASSERT_EQ(migrate(b, m0_, m2_, image_b_), Status::kOk);
    world_.network().set_endpoint_down("m1/me", false);
    ASSERT_EQ(me("m1")->pending_incoming_count(), 1u);
  }

  // A man-in-the-middle flips a byte in every resume request to the
  // peer.  The responder MAC-rejects it (retiring its acceptor), the
  // initiator drops its cache entry, and the call completes over one
  // fresh full handshake — the attack only costs the shortcut.
  const std::string peer = from_m1 ? "m0/me" : "m1/me";
  MigrationEnclave* initiator = me(from_m1 ? "m1" : "m0");
  const uint64_t full_before = initiator->full_handshake_count();
  const uint64_t resumed_before = initiator->resumed_handshake_count();
  size_t tampered = 0;
  size_t msg1 = 0;
  world_.network().set_tamper_hook([&](const std::string& to, Bytes& request) {
    if (to != peer) return true;
    auto parsed = decode_record<MeRequest>(request);
    if (!parsed.ok() || request.empty()) return true;
    if (parsed.value().type == MeMsgType::kSessionResume) {
      request.back() ^= 0x01;
      ++tampered;
    }
    if (parsed.value().type == MeMsgType::kRaMsg1) ++msg1;
    return true;
  });
  switch (caller) {
    case Caller::kMigrate:
      ASSERT_EQ(migrate(b, m0_, m1_, image_b_), Status::kOk);
      // Exactly-once delivery survived the downgrade.
      EXPECT_EQ(b->ecall_read_migratable_counter(id).value(), 1u);
      break;
    case Caller::kPrecopyFirstContact:
      ASSERT_TRUE(b->ecall_migration_precopy_round("m1").ok());
      EXPECT_EQ(me("m1")->precopy_staging_count(), 1u);
      break;
    case Caller::kAbort:
      // The re-route aborts m1's staging before it tries m2, which is
      // dark: only the abort talks to m1.
      world_.network().set_endpoint_down("m2/me", true);
      EXPECT_NE(b->ecall_migration_start("m2"), Status::kOk);
      world_.network().set_endpoint_down("m2/me", false);
      EXPECT_EQ(me("m1")->precopy_staging_count(), 0u);
      break;
    case Caller::kReconcile:
      EXPECT_EQ(me("m1")->reconcile_pending(image_b_->mr_enclave()),
                Status::kOk);
      EXPECT_EQ(me("m1")->pending_incoming_count(), 0u);
      break;
  }
  world_.network().clear_tamper_hook();

  EXPECT_GE(tampered, 1u);
  EXPECT_EQ(msg1, 1u);
  EXPECT_EQ(initiator->resumed_handshake_count(), resumed_before);
  EXPECT_EQ(initiator->full_handshake_count(), full_before + 1);
}

std::string caller_name(const ::testing::TestParamInfo<Caller>& param) {
  switch (param.param) {
    case Caller::kMigrate:
      return "Migrate";
    case Caller::kPrecopyFirstContact:
      return "PrecopyFirstContact";
    case Caller::kAbort:
      return "Abort";
    case Caller::kReconcile:
      return "Reconcile";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(Callers, TamperedResumeTest,
                         ::testing::Values(Caller::kMigrate,
                                           Caller::kPrecopyFirstContact,
                                           Caller::kAbort, Caller::kReconcile),
                         caller_name);

}  // namespace
}  // namespace sgxmig
