// Tests for the application-layer enclaves built on the Migration Library:
// Teechan payment channels, TrInX trusted counters, the rollback-protected
// KV store, and the versioned-state pattern itself.
#include <gtest/gtest.h>

#include "apps/kvstore.h"
#include "apps/teechan.h"
#include "apps/trinx.h"
#include "apps/versioned_state.h"
#include "migration/migration_enclave.h"
#include "platform/world.h"

namespace sgxmig {
namespace {

using apps::KvStoreEnclave;
using apps::PaymentMessage;
using apps::TeechanEnclave;
using apps::TrinxEnclave;
using migration::InitState;
using migration::MigrationEnclave;
using platform::Machine;
using platform::World;
using sgx::EnclaveImage;

class AppsTest : public ::testing::Test {
 protected:
  AppsTest() {
    me0_ = std::make_unique<MigrationEnclave>(
        m0_, MigrationEnclave::standard_image(), world_.provider());
    me1_ = std::make_unique<MigrationEnclave>(
        m1_, MigrationEnclave::standard_image(), world_.provider());
  }

  template <typename E>
  std::unique_ptr<E> start_app(Machine& machine,
                               std::shared_ptr<const EnclaveImage> image,
                               const std::string& blob_name) {
    auto enclave = std::make_unique<E>(machine, image);
    enclave->set_persist_callback([&machine, blob_name](ByteView state) {
      machine.storage().put(blob_name, state);
    });
    EXPECT_EQ(enclave->ecall_migration_init(ByteView(), InitState::kNew,
                                            machine.address()),
              Status::kOk);
    machine.storage().put(blob_name, enclave->sealed_state());
    return enclave;
  }

  template <typename E>
  std::unique_ptr<E> migrate_app(std::unique_ptr<E> enclave,
                                 Machine& /*src*/, Machine& dst,
                                 std::shared_ptr<const EnclaveImage> image,
                                 const std::string& blob_name) {
    EXPECT_EQ(enclave->ecall_migration_start(dst.address()), Status::kOk);
    enclave.reset();
    auto moved = std::make_unique<E>(dst, image);
    moved->set_persist_callback([&dst, blob_name](ByteView state) {
      dst.storage().put(blob_name, state);
    });
    EXPECT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate,
                                          dst.address()),
              Status::kOk);
    return moved;
  }

  World world_{/*seed=*/777};
  Machine& m0_ = world_.add_machine("m0");
  Machine& m1_ = world_.add_machine("m1");
  std::unique_ptr<MigrationEnclave> me0_;
  std::unique_ptr<MigrationEnclave> me1_;
};

// ----- Teechan -----

class TeechanTest : public AppsTest {
 protected:
  std::shared_ptr<const EnclaveImage> image_ =
      EnclaveImage::create("teechan", 1, "teechan-devs");

  std::pair<std::unique_ptr<TeechanEnclave>, std::unique_ptr<TeechanEnclave>>
  open_channel(uint64_t deposit_a, uint64_t deposit_b) {
    auto alice = start_app<TeechanEnclave>(m0_, image_, "alice.ml");
    auto bob = start_app<TeechanEnclave>(m1_, image_, "bob.ml");
    EXPECT_EQ(alice->ecall_open_channel(7, true, deposit_a, deposit_b),
              Status::kOk);
    EXPECT_EQ(bob->ecall_open_channel(7, false, deposit_a, deposit_b),
              Status::kOk);
    alice->ecall_set_peer_key(bob->ecall_channel_public_key().value());
    bob->ecall_set_peer_key(alice->ecall_channel_public_key().value());
    return {std::move(alice), std::move(bob)};
  }
};

TEST_F(TeechanTest, PaymentsFlowBothWays) {
  auto [alice, bob] = open_channel(100, 50);
  auto payment = alice->ecall_pay(30);
  ASSERT_TRUE(payment.ok());
  ASSERT_EQ(bob->ecall_receive_payment(payment.value()), Status::kOk);
  EXPECT_EQ(alice->ecall_my_balance().value(), 70u);
  EXPECT_EQ(bob->ecall_my_balance().value(), 80u);

  auto back = bob->ecall_pay(10);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(alice->ecall_receive_payment(back.value()), Status::kOk);
  EXPECT_EQ(alice->ecall_my_balance().value(), 80u);
  EXPECT_EQ(bob->ecall_my_balance().value(), 70u);
}

TEST_F(TeechanTest, OverdraftRejected) {
  auto [alice, bob] = open_channel(10, 10);
  EXPECT_EQ(alice->ecall_pay(11).status(), Status::kInvalidParameter);
  EXPECT_EQ(alice->ecall_my_balance().value(), 10u);
}

TEST_F(TeechanTest, ReplayedPaymentRejected) {
  auto [alice, bob] = open_channel(100, 50);
  const PaymentMessage payment = alice->ecall_pay(5).value();
  ASSERT_EQ(bob->ecall_receive_payment(payment), Status::kOk);
  EXPECT_EQ(bob->ecall_receive_payment(payment), Status::kReplayDetected);
  EXPECT_EQ(bob->ecall_my_balance().value(), 55u);
}

TEST_F(TeechanTest, ForgedPaymentRejected) {
  auto [alice, bob] = open_channel(100, 50);
  PaymentMessage payment = alice->ecall_pay(5).value();
  payment.balance_b += 10;  // try to inflate bob's side
  EXPECT_EQ(bob->ecall_receive_payment(payment), Status::kSignatureInvalid);
}

TEST_F(TeechanTest, WrongSenderRejected) {
  auto [alice, bob] = open_channel(100, 50);
  // Mallory has her own enclave and signs a payment for the same channel.
  auto mallory = start_app<TeechanEnclave>(m0_, image_, "mallory.ml");
  mallory->ecall_open_channel(7, true, 100, 50);
  mallory->ecall_set_peer_key(bob->ecall_channel_public_key().value());
  const PaymentMessage forged = mallory->ecall_pay(5).value();
  EXPECT_EQ(bob->ecall_receive_payment(forged), Status::kSignatureInvalid);
}

TEST_F(TeechanTest, PersistRestoreRoundTrip) {
  auto [alice, bob] = open_channel(100, 50);
  bob->ecall_receive_payment(alice->ecall_pay(25).value());
  const Bytes blob = alice->ecall_persist_channel().value();
  const Bytes lib_state = alice->sealed_state();
  alice.reset();
  // Restart alice from persistent state.
  auto restarted = std::make_unique<TeechanEnclave>(m0_, image_);
  restarted->set_persist_callback(
      [this](ByteView state) { m0_.storage().put("alice.ml", state); });
  ASSERT_EQ(restarted->ecall_migration_init(lib_state, InitState::kRestore,
                                            "m0"),
            Status::kOk);
  ASSERT_EQ(restarted->ecall_restore_channel(blob), Status::kOk);
  EXPECT_EQ(restarted->ecall_my_balance().value(), 75u);
  EXPECT_EQ(restarted->ecall_sequence().value(), 1u);
}

TEST_F(TeechanTest, StaleChannelStateRejected) {
  auto [alice, bob] = open_channel(100, 50);
  bob->ecall_receive_payment(alice->ecall_pay(10).value());
  const Bytes stale = alice->ecall_persist_channel().value();  // v=1
  bob->ecall_receive_payment(alice->ecall_pay(10).value());
  alice->ecall_persist_channel();  // v=2
  const Bytes lib_state = alice->sealed_state();
  alice.reset();
  auto restarted = std::make_unique<TeechanEnclave>(m0_, image_);
  ASSERT_EQ(restarted->ecall_migration_init(lib_state, InitState::kRestore,
                                            "m0"),
            Status::kOk);
  // The adversary replays the older channel state: version 1 != counter 2.
  EXPECT_EQ(restarted->ecall_restore_channel(stale), Status::kReplayDetected);
}

TEST_F(TeechanTest, ChannelSurvivesMigration) {
  Machine& m2 = world_.add_machine("m2");
  MigrationEnclave me2(m2, MigrationEnclave::standard_image(),
                       world_.provider());
  auto [alice, bob] = open_channel(100, 50);
  bob->ecall_receive_payment(alice->ecall_pay(40).value());
  const Bytes blob = alice->ecall_persist_channel().value();

  // Alice's enclave migrates m0 -> m2; the sealed channel blob travels
  // with the VM disk.
  ASSERT_EQ(alice->ecall_migration_start(m2.address()), Status::kOk);
  alice.reset();
  auto moved = std::make_unique<TeechanEnclave>(m2, image_);
  moved->set_persist_callback(
      [&m2](ByteView state) { m2.storage().put("alice.ml", state); });
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m2"),
            Status::kOk);
  ASSERT_EQ(moved->ecall_restore_channel(blob), Status::kOk);
  EXPECT_EQ(moved->ecall_my_balance().value(), 60u);

  // The channel keeps working after migration.
  auto payment = moved->ecall_pay(15);
  ASSERT_TRUE(payment.ok());
  EXPECT_EQ(bob->ecall_receive_payment(payment.value()), Status::kOk);
  EXPECT_EQ(bob->ecall_my_balance().value(), 105u);
}

TEST_F(TeechanTest, SettlementVerifies) {
  auto [alice, bob] = open_channel(100, 50);
  bob->ecall_receive_payment(alice->ecall_pay(20).value());
  const auto settlement = bob->ecall_settle();
  ASSERT_TRUE(settlement.ok());
  EXPECT_TRUE(settlement.value().verify());
  EXPECT_EQ(settlement.value().balance_a, 80u);
  EXPECT_EQ(settlement.value().balance_b, 70u);
}

TEST_F(TeechanTest, FrozenChannelRefusesPayments) {
  auto [alice, bob] = open_channel(100, 50);
  ASSERT_EQ(alice->ecall_migration_start("m1"), Status::kOk);
  EXPECT_EQ(alice->ecall_pay(1).status(), Status::kMigrationFrozen);
}

// ----- TrInX -----

class TrinxTest : public AppsTest {
 protected:
  std::shared_ptr<const EnclaveImage> image_ =
      EnclaveImage::create("trinx", 1, "hybster-devs");
};

TEST_F(TrinxTest, CertificatesHaveIncreasingValues) {
  auto trinx = start_app<TrinxEnclave>(m0_, image_, "trinx.ml");
  ASSERT_EQ(trinx->ecall_setup(), Status::kOk);
  const uint32_t counter = trinx->ecall_create_trinx_counter().value();
  const auto c1 = trinx->ecall_certify(counter, to_bytes(std::string_view("a")));
  const auto c2 = trinx->ecall_certify(counter, to_bytes(std::string_view("b")));
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(c1.value().value, 1u);
  EXPECT_EQ(c2.value().value, 2u);
  EXPECT_TRUE(c1.value().verify());
  EXPECT_TRUE(c2.value().verify());
}

TEST_F(TrinxTest, TamperedCertificateFailsVerification) {
  auto trinx = start_app<TrinxEnclave>(m0_, image_, "trinx.ml");
  trinx->ecall_setup();
  const uint32_t counter = trinx->ecall_create_trinx_counter().value();
  auto cert = trinx->ecall_certify(counter, to_bytes(std::string_view("m")))
                  .value();
  cert.value += 1;  // claim a higher counter value
  EXPECT_FALSE(cert.verify());
}

TEST_F(TrinxTest, CertificateSerializationRoundTrip) {
  auto trinx = start_app<TrinxEnclave>(m0_, image_, "trinx.ml");
  trinx->ecall_setup();
  const uint32_t counter = trinx->ecall_create_trinx_counter().value();
  const auto cert =
      trinx->ecall_certify(counter, to_bytes(std::string_view("req"))).value();
  auto back = decode_record<apps::TrinxCertificate>(encode_record(cert));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().verify());
  EXPECT_EQ(back.value().value, cert.value);
}

TEST_F(TrinxTest, StaleStateRejectedAfterRestart) {
  auto trinx = start_app<TrinxEnclave>(m0_, image_, "trinx.ml");
  trinx->ecall_setup();
  const uint32_t counter = trinx->ecall_create_trinx_counter().value();
  trinx->ecall_certify(counter, to_bytes(std::string_view("op1")));
  const Bytes stale = trinx->ecall_persist().value();
  trinx->ecall_certify(counter, to_bytes(std::string_view("op2")));
  const Bytes fresh = trinx->ecall_persist().value();
  const Bytes lib_state = trinx->sealed_state();
  trinx.reset();

  auto restarted = std::make_unique<TrinxEnclave>(m0_, image_);
  ASSERT_EQ(restarted->ecall_migration_init(lib_state, InitState::kRestore,
                                            "m0"),
            Status::kOk);
  // The replay of the stale snapshot (would reset the TrInX counters —
  // the exact attack Hybster's assumption excludes) is rejected...
  EXPECT_EQ(restarted->ecall_restore(stale), Status::kReplayDetected);
  // ...and the latest snapshot restores, preserving counter values.
  ASSERT_EQ(restarted->ecall_restore(fresh), Status::kOk);
  EXPECT_EQ(restarted->ecall_counter_value(counter).value(), 2u);
}

TEST_F(TrinxTest, ServiceSurvivesMigrationWithState) {
  auto trinx = start_app<TrinxEnclave>(m0_, image_, "trinx.ml");
  trinx->ecall_setup();
  const auto key_before = trinx->ecall_public_key().value();
  const uint32_t counter = trinx->ecall_create_trinx_counter().value();
  trinx->ecall_certify(counter, to_bytes(std::string_view("op1")));
  const Bytes blob = trinx->ecall_persist().value();

  auto moved =
      migrate_app(std::move(trinx), m0_, m1_, image_, "trinx.ml");
  ASSERT_EQ(moved->ecall_restore(blob), Status::kOk);
  // Identity (certification key) and counter values are preserved.
  EXPECT_EQ(moved->ecall_public_key().value(), key_before);
  const auto cert =
      moved->ecall_certify(counter, to_bytes(std::string_view("op2"))).value();
  EXPECT_EQ(cert.value, 2u);
  EXPECT_TRUE(cert.verify());
}

// ----- KV store -----

class KvStoreTest : public AppsTest {
 protected:
  std::shared_ptr<const EnclaveImage> image_ =
      EnclaveImage::create("kvstore", 1, "storage-devs");
};

TEST_F(KvStoreTest, PutGetEraseBasics) {
  auto kv = start_app<KvStoreEnclave>(m0_, image_, "kv.ml");
  ASSERT_EQ(kv->ecall_setup(), Status::kOk);
  EXPECT_EQ(kv->ecall_put("user:1", to_bytes(std::string_view("alice"))),
            Status::kOk);
  EXPECT_EQ(to_string(kv->ecall_get("user:1").value()), "alice");
  EXPECT_EQ(kv->ecall_size().value(), 1u);
  EXPECT_EQ(kv->ecall_erase("user:1"), Status::kOk);
  EXPECT_EQ(kv->ecall_get("user:1").status(), Status::kStorageMissing);
}

TEST_F(KvStoreTest, PersistRestoreKeepsEntries) {
  auto kv = start_app<KvStoreEnclave>(m0_, image_, "kv.ml");
  kv->ecall_setup();
  for (int i = 0; i < 50; ++i) {
    kv->ecall_put("key" + std::to_string(i),
                  to_bytes("value" + std::to_string(i)));
  }
  const Bytes blob = kv->ecall_persist().value();
  const Bytes lib_state = kv->sealed_state();
  kv.reset();

  auto restarted = std::make_unique<KvStoreEnclave>(m0_, image_);
  ASSERT_EQ(restarted->ecall_migration_init(lib_state, InitState::kRestore,
                                            "m0"),
            Status::kOk);
  ASSERT_EQ(restarted->ecall_restore(blob), Status::kOk);
  EXPECT_EQ(restarted->ecall_size().value(), 50u);
  EXPECT_EQ(to_string(restarted->ecall_get("key7").value()), "value7");
}

TEST_F(KvStoreTest, RollbackToStaleSnapshotRejected) {
  auto kv = start_app<KvStoreEnclave>(m0_, image_, "kv.ml");
  kv->ecall_setup();
  kv->ecall_put("balance", to_bytes(std::string_view("1000")));
  const Bytes rich_snapshot = kv->ecall_persist().value();
  kv->ecall_put("balance", to_bytes(std::string_view("10")));
  kv->ecall_persist();
  const Bytes lib_state = kv->sealed_state();
  kv.reset();

  auto restarted = std::make_unique<KvStoreEnclave>(m0_, image_);
  ASSERT_EQ(restarted->ecall_migration_init(lib_state, InitState::kRestore,
                                            "m0"),
            Status::kOk);
  EXPECT_EQ(restarted->ecall_restore(rich_snapshot), Status::kReplayDetected);
}

TEST_F(KvStoreTest, StoreSurvivesMigration) {
  auto kv = start_app<KvStoreEnclave>(m0_, image_, "kv.ml");
  kv->ecall_setup();
  kv->ecall_put("config", to_bytes(std::string_view("prod")));
  const Bytes blob = kv->ecall_persist().value();
  auto moved = migrate_app(std::move(kv), m0_, m1_, image_, "kv.ml");
  ASSERT_EQ(moved->ecall_restore(blob), Status::kOk);
  EXPECT_EQ(to_string(moved->ecall_get("config").value()), "prod");
  // And keeps versioning correctly on the destination.
  moved->ecall_put("config", to_bytes(std::string_view("prod-v2")));
  EXPECT_TRUE(moved->ecall_persist().ok());
}

}  // namespace
}  // namespace sgxmig
