// The Migration Library's persist path across restarts: every mutation
// of Table II is sealed and handed to the persist OCALL before the call
// returns, so a "crash" right after any operation restores what it did,
// and a torn newest write never leaves the stored sealed buffer
// unparseable (versioned-slot recovery in platform/storage.h).
#include <gtest/gtest.h>

#include "apps/kvstore.h"
#include "migration/migratable_enclave.h"
#include "migration/migration_enclave.h"
#include "platform/world.h"

namespace sgxmig {
namespace {

using migration::InitState;
using migration::MigratableEnclave;
using migration::MigrationEnclave;
using platform::Machine;
using platform::World;
using sgx::EnclaveImage;

constexpr char kBlob[] = "pe.mlstate";

// ----- library-level invariants -----

class PersistenceLibraryTest : public ::testing::Test {
 protected:
  PersistenceLibraryTest() {
    me0_ = std::make_unique<MigrationEnclave>(
        m0_, MigrationEnclave::standard_image(), world_.provider());
    me1_ = std::make_unique<MigrationEnclave>(
        m1_, MigrationEnclave::standard_image(), world_.provider());
  }

  std::unique_ptr<MigratableEnclave> make_app(Machine& machine) {
    auto enclave = std::make_unique<MigratableEnclave>(machine, image_);
    enclave->set_persist_callback([&machine](ByteView state) {
      machine.storage().put_versioned(kBlob, state);
    });
    return enclave;
  }

  std::unique_ptr<MigratableEnclave> start_new(Machine& machine) {
    auto enclave = make_app(machine);
    EXPECT_EQ(enclave->ecall_migration_init(ByteView(), InitState::kNew,
                                            machine.address()),
              Status::kOk);
    machine.storage().put_versioned(kBlob, enclave->sealed_state());
    return enclave;
  }

  /// "Crash + restart": a fresh enclave restored from whatever the store
  /// currently holds.
  Status restore_status(Machine& machine,
                        std::unique_ptr<MigratableEnclave>* out = nullptr) {
    auto blob = machine.storage().get_versioned(kBlob);
    if (!blob.ok()) return blob.status();
    auto enclave = make_app(machine);
    const Status status = enclave->ecall_migration_init(
        blob.value(), InitState::kRestore, machine.address());
    if (out != nullptr) *out = std::move(enclave);
    return status;
  }

  World world_{/*seed=*/4242};
  Machine& m0_ = world_.add_machine("m0");
  Machine& m1_ = world_.add_machine("m1");
  std::unique_ptr<MigrationEnclave> me0_;
  std::unique_ptr<MigrationEnclave> me1_;
  std::shared_ptr<const EnclaveImage> image_ =
      EnclaveImage::create("pe-app", 1, "acme");
};

TEST_F(PersistenceLibraryTest, FrozenBufferRefusesRestore) {
  auto enclave = start_new(m0_);
  const uint32_t id =
      enclave->ecall_create_migratable_counter().value().counter_id;
  enclave->ecall_increment_migratable_counter(id);
  enclave->ecall_increment_migratable_counter(id);

  ASSERT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
  // The durable freeze flag makes any restart refuse to operate (the
  // §III-B fork).
  EXPECT_EQ(restore_status(m0_), Status::kMigrationFrozen);
}

TEST_F(PersistenceLibraryTest, DestroyIsDurableOnReturn) {
  auto enclave = start_new(m0_);
  const uint32_t keep =
      enclave->ecall_create_migratable_counter().value().counter_id;
  const uint32_t doomed =
      enclave->ecall_create_migratable_counter().value().counter_id;
  enclave->ecall_increment_migratable_counter(keep);
  enclave->ecall_increment_migratable_counter(keep);

  ASSERT_EQ(enclave->ecall_destroy_migratable_counter(doomed), Status::kOk);

  // Crash right after the destroy returns: the restored buffer is
  // parseable, reflects the destroy, and replays every earlier mutation.
  std::unique_ptr<MigratableEnclave> restored;
  ASSERT_EQ(restore_status(m0_, &restored), Status::kOk);
  EXPECT_EQ(restored->ecall_read_migratable_counter(keep).value(), 2u);
  EXPECT_EQ(restored->ecall_read_migratable_counter(doomed).status(),
            Status::kCounterNotFound);
}

TEST_F(PersistenceLibraryTest, TornNewestSlotFallsBackOneGeneration) {
  auto enclave = start_new(m0_);
  // The create commits generation N, the increment generation N+1.
  const uint32_t id =
      enclave->ecall_create_migratable_counter().value().counter_id;
  enclave->ecall_increment_migratable_counter(id);
  const uint64_t latest = m0_.storage().versioned_sequence(kBlob);

  // Tear the newest slot (crash mid-write of the increment's commit);
  // even generations live in slot #0, odd in #1.  The two-slot scheme must
  // fall back to generation N: parseable, one mutation stale.
  ASSERT_TRUE(m0_.storage().corrupt(kBlob + std::string("#") +
                                        std::to_string(latest % 2 == 0 ? 0 : 1),
                                    7));
  std::unique_ptr<MigratableEnclave> restored;
  ASSERT_EQ(restore_status(m0_, &restored), Status::kOk);
  // The hardware counter survived the "crash", so the effective value is
  // intact — only the cached offset table came from the older slot.
  EXPECT_EQ(restored->ecall_read_migratable_counter(id).value(), 1u);
}

TEST_F(PersistenceLibraryTest, VersionedSlotBothCorruptIsTampered) {
  auto& store = m0_.storage();
  store.put_versioned("x", to_bytes(std::string_view("gen1")));
  store.put_versioned("x", to_bytes(std::string_view("gen2")));
  EXPECT_EQ(store.get_versioned("x").value(),
            to_bytes(std::string_view("gen2")));
  ASSERT_TRUE(store.corrupt("x#0", 3));
  ASSERT_TRUE(store.corrupt("x#1", 3));
  EXPECT_EQ(store.get_versioned("x").status(), Status::kTampered);
  EXPECT_EQ(store.get_versioned("absent").status(), Status::kStorageMissing);
}

TEST_F(PersistenceLibraryTest, VersionedSlotSingleCorruptionFallsBack) {
  auto& store = m0_.storage();
  store.put_versioned("y", to_bytes(std::string_view("old")));
  store.put_versioned("y", to_bytes(std::string_view("new")));
  const uint64_t seq = store.versioned_sequence("y");
  ASSERT_EQ(seq, 2u);
  // Even generations live in slot #0, odd in #1: corrupt the newest.
  ASSERT_TRUE(store.corrupt(seq % 2 == 0 ? "y#0" : "y#1", 5));
  EXPECT_EQ(store.get_versioned("y").value(),
            to_bytes(std::string_view("old")));
  EXPECT_EQ(store.versioned_sequence("y"), 1u);
}

TEST_F(PersistenceLibraryTest, VersionedSlotTornPayloadFallsBack) {
  auto& store = m0_.storage();
  store.put_versioned("z", to_bytes(std::string_view("old")));  // #1, seq 1
  store.put_versioned("z", to_bytes(std::string_view("new")));  // #0, seq 2
  // Flip the newest slot's last payload byte: its framing still parses
  // and claims sequence 2, but its checksum fails.
  const size_t last = store.snapshot().at("z#0").size() - 1;
  ASSERT_TRUE(store.corrupt("z#0", last));
  EXPECT_EQ(store.get_versioned("z").value(),
            to_bytes(std::string_view("old")));
  EXPECT_EQ(store.versioned_sequence("z"), 1u);
  // The next write replaces the torn slot and keeps generation 1 intact.
  store.put_versioned("z", to_bytes(std::string_view("next")));
  EXPECT_EQ(store.versioned_sequence("z"), 2u);
  EXPECT_EQ(store.get_versioned("z").value(),
            to_bytes(std::string_view("next")));
  ASSERT_TRUE(store.corrupt("z#0", store.snapshot().at("z#0").size() - 1));
  EXPECT_EQ(store.get_versioned("z").value(),
            to_bytes(std::string_view("old")));
}

// put_versioned overwrites the slot not holding the newest intact
// generation, however the store came to hold it: a host write over a
// slot, a removed slot and a restored snapshot between two versioned
// writes each change which slot that is.
TEST_F(PersistenceLibraryTest, VersionedSlotFollowsHostChangesBetweenPuts) {
  auto& store = m0_.storage();
  const auto put = [&store](std::string_view text) {
    store.put_versioned("w", to_bytes(text));
  };
  const auto newest = [&store] {
    return to_string(store.get_versioned("w").value());
  };
  put("g1");  // #1, seq 1
  const auto only_g1 = store.snapshot();
  put("g2");  // #0, seq 2
  store.put("w#0", Bytes(5, 0));  // a torn write over the newest slot
  put("g3");  // replaces the torn slot: #0, seq 2
  EXPECT_EQ(store.versioned_sequence("w"), 2u);
  EXPECT_EQ(newest(), "g3");
  store.remove("w#0");
  EXPECT_EQ(newest(), "g1");
  const Bytes plain = to_bytes(std::string_view("plain"));
  store.put("w", plain);  // neither is a slot name
  store.put("w.ml", plain);
  put("g4");  // #0 again, seq 2; g1 survives in #1
  EXPECT_EQ(store.versioned_sequence("w"), 2u);
  // Deleting or taking a name that is no slot leaves the slots' last
  // write valid for the next put.
  store.remove("w.ml");
  EXPECT_EQ(store.take("w").value(), plain);
  EXPECT_FALSE(store.take("w").has_value());
  put("g5");  // #1, seq 3
  EXPECT_EQ(store.versioned_sequence("w"), 3u);
  EXPECT_EQ(newest(), "g5");
  store.restore(only_g1);
  put("g6");  // #0, seq 2
  EXPECT_EQ(store.versioned_sequence("w"), 2u);
  EXPECT_EQ(newest(), "g6");
  store.remove("w#0");
  EXPECT_EQ(newest(), "g1");
}

TEST_F(PersistenceLibraryTest, MigrationPreservesValues) {
  auto enclave = start_new(m0_);
  const uint32_t id =
      enclave->ecall_create_migratable_counter().value().counter_id;
  for (int i = 0; i < 5; ++i) {
    enclave->ecall_increment_migratable_counter(id);
  }
  ASSERT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
  enclave.reset();

  auto moved = make_app(m1_);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(moved->ecall_read_migratable_counter(id).value(), 5u);
}

TEST_F(PersistenceLibraryTest, EveryIncrementIsDurableOnReturn) {
  auto enclave = start_new(m0_);
  const uint32_t id =
      enclave->ecall_create_migratable_counter().value().counter_id;
  for (int i = 0; i < 8; ++i) {
    enclave->ecall_increment_migratable_counter(id);
  }

  std::unique_ptr<MigratableEnclave> restored;
  ASSERT_EQ(restore_status(m0_, &restored), Status::kOk);
  EXPECT_EQ(restored->ecall_read_migratable_counter(id).value(), 8u);
}

// A KV store restarted from the versioned store keeps full rollback
// protection: its version counter rides the library's persist path.
TEST_F(PersistenceLibraryTest, KvStoreRollbackStillDetected) {
  const auto kv_image = EnclaveImage::create("kv-app", 1, "acme");
  auto make_kv = [&] {
    auto kv = std::make_unique<apps::KvStoreEnclave>(m0_, kv_image);
    kv->set_persist_callback([this](ByteView state) {
      m0_.storage().put_versioned("kv.mlstate", state);
    });
    return kv;
  };

  auto kv = make_kv();
  ASSERT_EQ(kv->ecall_migration_init(ByteView(), InitState::kNew, "m0"),
            Status::kOk);
  ASSERT_EQ(kv->ecall_setup(), Status::kOk);
  ASSERT_EQ(kv->ecall_put("k", to_bytes(std::string_view("v1"))), Status::kOk);
  auto stale = kv->ecall_persist();
  ASSERT_TRUE(stale.ok());
  ASSERT_EQ(kv->ecall_put("k", to_bytes(std::string_view("v2"))), Status::kOk);
  auto latest = kv->ecall_persist();
  ASSERT_TRUE(latest.ok());
  kv.reset();

  // Restart from the versioned store: latest snapshot restores...
  auto restarted = make_kv();
  const Bytes lib_state = m0_.storage().get_versioned("kv.mlstate").value();
  ASSERT_EQ(
      restarted->ecall_migration_init(lib_state, InitState::kRestore, "m0"),
      Status::kOk);
  ASSERT_EQ(restarted->ecall_restore(latest.value()), Status::kOk);
  EXPECT_EQ(restarted->ecall_get("k").value(),
            to_bytes(std::string_view("v2")));

  // ...and a rolled-back snapshot is still caught by the version counter.
  auto forked = make_kv();
  ASSERT_EQ(forked->ecall_migration_init(lib_state, InitState::kRestore, "m0"),
            Status::kOk);
  EXPECT_EQ(forked->ecall_restore(stale.value()), Status::kReplayDetected);
}

}  // namespace
}  // namespace sgxmig
