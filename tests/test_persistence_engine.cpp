// PersistenceEngine invariants (src/migration/persistence_engine.h):
// batching engines must be fenced before migration/freeze events and
// before hardware-counter destruction, and a crash between batched
// mutations must never leave the stored sealed buffer unparseable
// (versioned-slot recovery in platform/storage.h).
#include <gtest/gtest.h>

#include "apps/kvstore.h"
#include "migration/migratable_enclave.h"
#include "migration/migration_enclave.h"
#include "migration/persistence_engine.h"
#include "platform/world.h"

namespace sgxmig {
namespace {

using migration::GroupCommitOptions;
using migration::InitState;
using migration::MigratableEnclave;
using migration::MigrationEnclave;
using migration::MutationKind;
using migration::PersistenceMode;
using migration::PersistSink;
using platform::Machine;
using platform::World;
using sgx::EnclaveImage;

constexpr char kBlob[] = "pe.mlstate";

// ----- engine-level tests against a fake sink -----

class FakeSink : public PersistSink {
 public:
  Status commit_state() override {
    ++commits;
    return next_status;
  }
  Duration now() const override { return now_value; }

  int commits = 0;
  Status next_status = Status::kOk;
  Duration now_value{0};
};

TEST(PersistenceEngine, SyncCommitsEveryMutation) {
  auto engine = make_persistence_engine(PersistenceMode::kSync);
  FakeSink sink;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(engine->on_mutation(sink, MutationKind::kCounterIncrement),
              Status::kOk);
  }
  EXPECT_EQ(sink.commits, 5);
  EXPECT_FALSE(engine->has_pending());
  EXPECT_EQ(engine->flush(sink), Status::kOk);
  EXPECT_EQ(sink.commits, 5);  // flush is a no-op
}

TEST(PersistenceEngine, GroupCommitCoalescesUntilBatchSize) {
  GroupCommitOptions options;
  options.max_batch = 4;
  options.window = seconds(100.0);
  auto engine = make_persistence_engine(PersistenceMode::kGroupCommit, options);
  FakeSink sink;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(engine->on_mutation(sink, MutationKind::kCounterIncrement),
              Status::kOk);
  }
  EXPECT_EQ(sink.commits, 0);
  EXPECT_TRUE(engine->has_pending());
  EXPECT_EQ(engine->on_mutation(sink, MutationKind::kCounterIncrement),
            Status::kOk);
  EXPECT_EQ(sink.commits, 1);  // 4th mutation hit max_batch
  EXPECT_FALSE(engine->has_pending());
}

TEST(PersistenceEngine, GroupCommitWindowExpiryCommits) {
  GroupCommitOptions options;
  options.max_batch = 1000;
  options.window = milliseconds(50);
  auto engine = make_persistence_engine(PersistenceMode::kGroupCommit, options);
  FakeSink sink;
  EXPECT_EQ(engine->on_mutation(sink, MutationKind::kCounterIncrement),
            Status::kOk);
  EXPECT_EQ(sink.commits, 0);
  sink.now_value = milliseconds(60);  // oldest pending is now past the window
  EXPECT_EQ(engine->on_mutation(sink, MutationKind::kCounterIncrement),
            Status::kOk);
  EXPECT_EQ(sink.commits, 1);
  EXPECT_FALSE(engine->has_pending());
}

TEST(PersistenceEngine, GroupCommitFailedCommitKeepsPending) {
  GroupCommitOptions options;
  options.max_batch = 2;
  auto engine = make_persistence_engine(PersistenceMode::kGroupCommit, options);
  FakeSink sink;
  engine->on_mutation(sink, MutationKind::kCounterIncrement);
  sink.next_status = Status::kSealFailure;
  EXPECT_EQ(engine->on_mutation(sink, MutationKind::kCounterIncrement),
            Status::kSealFailure);
  EXPECT_TRUE(engine->has_pending());
  sink.next_status = Status::kOk;
  EXPECT_EQ(engine->flush(sink), Status::kOk);
  EXPECT_FALSE(engine->has_pending());
}

TEST(PersistenceEngine, WriteBehindOnlyCommitsOnFlush) {
  auto engine = make_persistence_engine(PersistenceMode::kWriteBehind);
  FakeSink sink;
  for (int i = 0; i < 10; ++i) {
    engine->on_mutation(sink, MutationKind::kCounterIncrement);
  }
  EXPECT_EQ(sink.commits, 0);
  EXPECT_TRUE(engine->has_pending());
  EXPECT_EQ(engine->flush(sink), Status::kOk);
  EXPECT_EQ(sink.commits, 1);
  EXPECT_FALSE(engine->has_pending());
  EXPECT_EQ(engine->flush(sink), Status::kOk);
  EXPECT_EQ(sink.commits, 1);  // clean: nothing to do
}

// ----- library-level invariants -----

class PersistenceLibraryTest : public ::testing::Test {
 protected:
  PersistenceLibraryTest() {
    me0_ = std::make_unique<MigrationEnclave>(
        m0_, MigrationEnclave::standard_image(), world_.provider());
    me1_ = std::make_unique<MigrationEnclave>(
        m1_, MigrationEnclave::standard_image(), world_.provider());
  }

  std::unique_ptr<MigratableEnclave> make_app(Machine& machine,
                                              PersistenceMode mode) {
    GroupCommitOptions gc;
    gc.max_batch = 1000;           // only fences may commit
    gc.window = seconds(1e6);      // never expires in these tests
    auto enclave = std::make_unique<MigratableEnclave>(machine, image_, mode,
                                                       gc);
    enclave->set_persist_callback([&machine](ByteView state) {
      machine.storage().put_versioned(kBlob, state);
    });
    return enclave;
  }

  std::unique_ptr<MigratableEnclave> start_new(Machine& machine,
                                               PersistenceMode mode) {
    auto enclave = make_app(machine, mode);
    EXPECT_EQ(enclave->ecall_migration_init(ByteView(), InitState::kNew,
                                            machine.address()),
              Status::kOk);
    machine.storage().put_versioned(kBlob, enclave->sealed_state());
    return enclave;
  }

  /// "Crash + restart": a fresh enclave restored from whatever the store
  /// currently holds.
  Status restore_status(Machine& machine, PersistenceMode mode,
                        std::unique_ptr<MigratableEnclave>* out = nullptr) {
    auto blob = machine.storage().get_versioned(kBlob);
    if (!blob.ok()) return blob.status();
    auto enclave = make_app(machine, mode);
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

TEST_F(PersistenceLibraryTest, FlushForcedBeforeMigrationFreeze) {
  auto enclave = start_new(m0_, PersistenceMode::kGroupCommit);
  const uint32_t id =
      enclave->ecall_create_migratable_counter().value().counter_id;
  enclave->ecall_increment_migratable_counter(id);
  enclave->ecall_increment_migratable_counter(id);
  EXPECT_TRUE(enclave->persistence_engine().has_pending());

  ASSERT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
  // The freeze event drained the batch: nothing may stay pending once the
  // library stops accepting operations.
  EXPECT_FALSE(enclave->persistence_engine().has_pending());
  // And the durable freeze flag makes any restart refuse to operate (the
  // §III-B fork), even though mutations were batched before the freeze.
  EXPECT_EQ(restore_status(m0_, PersistenceMode::kGroupCommit),
            Status::kMigrationFrozen);
}

TEST_F(PersistenceLibraryTest, FlushForcedBeforeCounterDestruction) {
  auto enclave = start_new(m0_, PersistenceMode::kGroupCommit);
  const uint32_t keep =
      enclave->ecall_create_migratable_counter().value().counter_id;
  const uint32_t doomed =
      enclave->ecall_create_migratable_counter().value().counter_id;
  enclave->ecall_increment_migratable_counter(keep);
  enclave->ecall_increment_migratable_counter(keep);
  EXPECT_TRUE(enclave->persistence_engine().has_pending());
  const uint64_t commits_before =
      enclave->persistence_engine().commits_issued();

  ASSERT_EQ(enclave->ecall_destroy_migratable_counter(doomed), Status::kOk);
  // The fence committed the batched mutations BEFORE the hardware destroy,
  // and the destroy record itself is durable on return — nothing may
  // stay pending across the point of no return.
  EXPECT_GT(enclave->persistence_engine().commits_issued(), commits_before);
  EXPECT_FALSE(enclave->persistence_engine().has_pending());

  // Crash right after the destroy returns: the restored buffer is
  // parseable, reflects the destroy, and replays every fenced mutation.
  std::unique_ptr<MigratableEnclave> restored;
  ASSERT_EQ(restore_status(m0_, PersistenceMode::kGroupCommit, &restored),
            Status::kOk);
  EXPECT_EQ(restored->ecall_read_migratable_counter(keep).value(), 2u);
  EXPECT_EQ(restored->ecall_read_migratable_counter(doomed).status(),
            Status::kCounterNotFound);
}

TEST_F(PersistenceLibraryTest, TornGroupCommitRecoversPreviousGeneration) {
  auto enclave = start_new(m0_, PersistenceMode::kWriteBehind);
  const uint32_t id =
      enclave->ecall_create_migratable_counter().value().counter_id;
  ASSERT_EQ(enclave->ecall_persist_flush(), Status::kOk);  // generation N
  enclave->ecall_increment_migratable_counter(id);
  ASSERT_EQ(enclave->ecall_persist_flush(), Status::kOk);  // generation N+1
  const uint64_t latest = m0_.storage().versioned_sequence(kBlob);

  // Tear the newest slot (crash mid-write of the batched commit); even
  // generations live in slot #0, odd in #1.  The two-slot scheme must
  // fall back to generation N: parseable, at most one batch stale.
  ASSERT_TRUE(m0_.storage().corrupt(kBlob + std::string("#") +
                                        std::to_string(latest % 2 == 0 ? 0 : 1),
                                    7));
  std::unique_ptr<MigratableEnclave> restored;
  ASSERT_EQ(restore_status(m0_, PersistenceMode::kWriteBehind, &restored),
            Status::kOk);
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

TEST_F(PersistenceLibraryTest, MigrationUnderGroupCommitPreservesValues) {
  auto enclave = start_new(m0_, PersistenceMode::kGroupCommit);
  const uint32_t id =
      enclave->ecall_create_migratable_counter().value().counter_id;
  for (int i = 0; i < 5; ++i) {
    enclave->ecall_increment_migratable_counter(id);
  }
  ASSERT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
  enclave.reset();

  auto moved = make_app(m1_, PersistenceMode::kGroupCommit);
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(moved->ecall_read_migratable_counter(id).value(), 5u);
}

TEST_F(PersistenceLibraryTest, WriteBehindBatchBoundaryDurability) {
  auto enclave = start_new(m0_, PersistenceMode::kWriteBehind);
  const uint32_t id =
      enclave->ecall_create_migratable_counter().value().counter_id;
  ASSERT_EQ(enclave->ecall_persist_flush(), Status::kOk);
  const uint64_t commits_at_boundary =
      enclave->persistence_engine().commits_issued();

  for (int i = 0; i < 8; ++i) {
    enclave->ecall_increment_migratable_counter(id);
  }
  // Nothing persisted inside the batch...
  EXPECT_EQ(enclave->persistence_engine().commits_issued(),
            commits_at_boundary);
  EXPECT_TRUE(enclave->persistence_engine().has_pending());
  // ...one commit at the boundary.
  ASSERT_EQ(enclave->ecall_persist_flush(), Status::kOk);
  EXPECT_EQ(enclave->persistence_engine().commits_issued(),
            commits_at_boundary + 1);

  std::unique_ptr<MigratableEnclave> restored;
  ASSERT_EQ(restore_status(m0_, PersistenceMode::kWriteBehind, &restored),
            Status::kOk);
  EXPECT_EQ(restored->ecall_read_migratable_counter(id).value(), 8u);
}

TEST_F(PersistenceLibraryTest, PersistFlushRequiresInit) {
  auto enclave = make_app(m0_, PersistenceMode::kWriteBehind);
  EXPECT_EQ(enclave->ecall_persist_flush(), Status::kNotInitialized);
}

// The application-enclave constructor knob: a KV store running its
// version counter through GroupCommitPersist keeps full rollback
// protection semantics.
TEST_F(PersistenceLibraryTest, KvStoreRunsOnGroupCommitEngine) {
  const auto kv_image = EnclaveImage::create("kv-app", 1, "acme");
  auto make_kv = [&] {
    auto kv = std::make_unique<apps::KvStoreEnclave>(
        m0_, kv_image, PersistenceMode::kGroupCommit);
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
  // Clean shutdown fence: batched library mutations become durable.
  ASSERT_EQ(kv->ecall_persist_flush(), Status::kOk);
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
