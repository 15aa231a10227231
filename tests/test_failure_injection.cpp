// Failure-injection tests: services crashing or vanishing at awkward
// moments must never corrupt persistent state or open attack windows —
// at worst they cost availability (which the threat model concedes).
#include <gtest/gtest.h>

#include <functional>

#include "apps/hybster.h"
#include "migration/migratable_enclave.h"
#include "migration/migration_enclave.h"
#include "platform/world.h"

namespace sgxmig {
namespace {

using migration::InitState;
using migration::MigratableEnclave;
using migration::MigrationEnclave;
using migration::OutgoingState;
using platform::World;
using sgx::EnclaveImage;

class FailureInjectionTest : public ::testing::Test {
 protected:
  FailureInjectionTest() {
    me0_ = std::make_unique<MigrationEnclave>(
        m0_, MigrationEnclave::standard_image(), world_.provider());
    me1_ = std::make_unique<MigrationEnclave>(
        m1_, MigrationEnclave::standard_image(), world_.provider());
  }

  // `before_init` runs on the new instance ahead of its init.
  std::unique_ptr<MigratableEnclave> start_enclave(
      platform::Machine& m,
      const std::function<void(MigratableEnclave&)>& before_init = {}) {
    auto enclave = std::make_unique<MigratableEnclave>(m, image_);
    enclave->set_persist_callback(
        [&m](ByteView s) { m.storage().put("ml", s); });
    if (before_init) before_init(*enclave);
    EXPECT_EQ(enclave->ecall_migration_init(ByteView(), InitState::kNew,
                                            m.address()),
              Status::kOk);
    m.storage().put("ml", enclave->sealed_state());
    return enclave;
  }

  World world_{/*seed=*/808};
  platform::Machine& m0_ = world_.add_machine("m0");
  platform::Machine& m1_ = world_.add_machine("m1");
  std::unique_ptr<MigrationEnclave> me0_;
  std::unique_ptr<MigrationEnclave> me1_;
  std::shared_ptr<const EnclaveImage> image_ =
      EnclaveImage::create("fi-app", 1, "acme");
};

TEST_F(FailureInjectionTest, PseDownDuringMigrationStart) {
  auto enclave = start_enclave(m0_);
  const uint32_t id =
      enclave->ecall_create_migratable_counter().value().counter_id;
  enclave->ecall_increment_migratable_counter(id);

  // Platform Services become unreachable before the counters can be
  // collected/destroyed.
  world_.network().set_endpoint_down(m0_.pse_tcp_endpoint(), true);
  const Status status = enclave->ecall_migration_start("m1");
  EXPECT_EQ(status, Status::kNetworkUnreachable);
  // Nothing reached the destination.
  EXPECT_EQ(me1_->pending_incoming_count(), 0u);

  // Service restored: the migration completes and the value is intact.
  world_.network().set_endpoint_down(m0_.pse_tcp_endpoint(), false);
  ASSERT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
  enclave.reset();
  auto moved = std::make_unique<MigratableEnclave>(m1_, image_);
  moved->set_persist_callback(
      [this](ByteView s) { m1_.storage().put("ml", s); });
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(moved->ecall_read_migratable_counter(id).value(), 1u);
}

TEST_F(FailureInjectionTest, DoneMessageLostSourceKeepsData) {
  auto enclave = start_enclave(m0_);
  enclave->ecall_create_migratable_counter();
  ASSERT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
  enclave.reset();

  // Drop the DONE notification from m1's ME back to m0's ME.
  world_.network().set_tamper_hook(
      [](const std::string& to, Bytes& request) {
        if (to != "m0/me") return true;
        auto parsed = decode_record<migration::MeRequest>(request);
        return !(parsed.ok() &&
                 parsed.value().type == migration::MeMsgType::kDone);
      });
  auto moved = std::make_unique<MigratableEnclave>(m1_, image_);
  moved->set_persist_callback(
      [this](ByteView s) { m1_.storage().put("ml", s); });
  // Destination completes fine regardless.
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  world_.network().clear_tamper_hook();
  // Source ME still holds the data as pending (§V-D: retained until the
  // error is resolved) — availability cost only, never a fork.
  EXPECT_EQ(me0_->outgoing_state(image_->mr_enclave()),
            OutgoingState::kPending);
  // And the destination enclave operates normally.
  EXPECT_TRUE(moved->ecall_increment_migratable_counter(0).ok());
}

TEST_F(FailureInjectionTest, MeRestartDuringMigrationIsRetryable) {
  // Open the library's LA channel first: a warm-up with nothing staged
  // attests the ME and is refused, and the instance then starts fresh.
  auto enclave = start_enclave(m0_, [](MigratableEnclave& e) {
    EXPECT_EQ(e.ecall_migration_warm_up("m0"), Status::kNoPendingMigration);
  });
  const uint32_t id =
      enclave->ecall_create_migratable_counter().value().counter_id;
  // The management VM (and with it the ME) restarts before the migrate
  // request: all sessions lost.
  me0_.reset();
  me0_ = std::make_unique<MigrationEnclave>(
      m0_, MigrationEnclave::standard_image(), world_.provider());
  // migration_start re-attests transparently and completes.
  ASSERT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
  enclave.reset();
  auto moved = std::make_unique<MigratableEnclave>(m1_, image_);
  moved->set_persist_callback(
      [this](ByteView s) { m1_.storage().put("ml", s); });
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(moved->ecall_read_migratable_counter(id).value(), 0u);
}

TEST_F(FailureInjectionTest, DestinationMeCrashBeforeEnclaveStarts) {
  auto enclave = start_enclave(m0_);
  enclave->ecall_create_migratable_counter();
  ASSERT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
  enclave.reset();
  // m1's ME crashes, losing the pending (in-memory) migration data.
  me1_.reset();
  me1_ = std::make_unique<MigrationEnclave>(
      m1_, MigrationEnclave::standard_image(), world_.provider());
  auto moved = std::make_unique<MigratableEnclave>(m1_, image_);
  moved->set_persist_callback(
      [this](ByteView s) { m1_.storage().put("ml", s); });
  EXPECT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kNoPendingMigration);
  // The source ME still has the retained copy: the operator can re-send
  // (modeled as a fresh migration of the retained data — here we simply
  // assert it was retained, i.e. no data was destroyed).
  EXPECT_EQ(me0_->outgoing_state(image_->mr_enclave()),
            OutgoingState::kPending);
}

TEST_F(FailureInjectionTest, HybsterSurvivesLeaderMigrationUnderChaos) {
  auto& m2 = world_.add_machine("m2");
  MigrationEnclave me2(m2, MigrationEnclave::standard_image(),
                       world_.provider());
  apps::HybsterCluster cluster(m0_, /*follower_count=*/3, image_);
  ASSERT_EQ(cluster.submit("op-1"), Status::kOk);
  ASSERT_EQ(cluster.submit("op-2"), Status::kOk);

  // First migration attempt is sabotaged by the network (corrupting the
  // payload of every message to the destination ME)...
  world_.network().set_tamper_hook(
      [](const std::string& to, Bytes& request) {
        if (to == "m2/me" && request.size() > 16) {
          request[request.size() - 2] ^= 0xff;
        }
        return true;
      });
  EXPECT_NE(cluster.migrate_leader(m2), Status::kOk);
  world_.network().clear_tamper_hook();
  // ...the retry succeeds, and ordering continues gap-free.
  ASSERT_EQ(cluster.migrate_leader(m2), Status::kOk);
  ASSERT_EQ(cluster.submit("op-3"), Status::kOk);
  EXPECT_TRUE(cluster.logs_consistent());
  EXPECT_EQ(cluster.committed(), 3u);
}

}  // namespace
}  // namespace sgxmig
