// Stress and boundary tests for the Migration Library: counter quota,
// many-counter migrations, repeated migrations, determinism of the whole
// protocol stack, and concurrent fleet drains sharing one destination ME.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "migration/migratable_enclave.h"
#include "migration/migration_enclave.h"
#include "orchestrator/fleet_builder.h"
#include "orchestrator/orchestrator.h"
#include "platform/world.h"

namespace sgxmig {
namespace {

// SGXMIG_SEED reseeds the randomized stress worlds so a failing run can
// be replayed exactly (tests/ are exempt from the determinism lint; the
// fallback keeps CI deterministic).
uint64_t seed_from_env(uint64_t fallback) {
  const char* text = std::getenv("SGXMIG_SEED");
  return text != nullptr ? std::strtoull(text, nullptr, 10) : fallback;
}

using migration::InitState;
using migration::kMaxCounters;
using migration::MigratableEnclave;
using migration::MigrationEnclave;
using platform::World;
using sgx::EnclaveImage;

class MigrationStressTest : public ::testing::Test {
 protected:
  MigrationStressTest() {
    me0_ = std::make_unique<MigrationEnclave>(
        m0_, MigrationEnclave::standard_image(), world_.provider());
    me1_ = std::make_unique<MigrationEnclave>(
        m1_, MigrationEnclave::standard_image(), world_.provider());
  }

  std::unique_ptr<MigratableEnclave> start_enclave(platform::Machine& m) {
    auto enclave = std::make_unique<MigratableEnclave>(m, image_);
    enclave->set_persist_callback(
        [&m](ByteView s) { m.storage().put("ml", s); });
    EXPECT_EQ(enclave->ecall_migration_init(ByteView(), InitState::kNew,
                                            m.address()),
              Status::kOk);
    return enclave;
  }

  void TearDown() override {
    if (HasFailure()) {
      std::printf("MigrationStressTest: replay with SGXMIG_SEED=%llu\n",
                  static_cast<unsigned long long>(seed_));
    }
  }

  const uint64_t seed_ = seed_from_env(4242);
  World world_{seed_};
  platform::Machine& m0_ = world_.add_machine("m0");
  platform::Machine& m1_ = world_.add_machine("m1");
  std::unique_ptr<MigrationEnclave> me0_;
  std::unique_ptr<MigrationEnclave> me1_;
  std::shared_ptr<const EnclaveImage> image_ =
      EnclaveImage::create("stress-app", 1, "acme");
};

TEST_F(MigrationStressTest, LibraryQuotaIs256Counters) {
  auto enclave = start_enclave(m0_);
  for (size_t i = 0; i < kMaxCounters; ++i) {
    auto created = enclave->ecall_create_migratable_counter();
    ASSERT_TRUE(created.ok()) << i;
    EXPECT_EQ(created.value().counter_id, i);
  }
  // The 257th fails at the library level (slot table full).
  EXPECT_EQ(enclave->ecall_create_migratable_counter().status(),
            Status::kCounterQuotaExceeded);
  // Destroying one frees its slot for reuse.
  ASSERT_EQ(enclave->ecall_destroy_migratable_counter(100), Status::kOk);
  auto recreated = enclave->ecall_create_migratable_counter();
  ASSERT_TRUE(recreated.ok());
  EXPECT_EQ(recreated.value().counter_id, 100u);
}

TEST_F(MigrationStressTest, MigrationWithManyCounters) {
  auto enclave = start_enclave(m0_);
  constexpr int kCounters = 40;
  for (int i = 0; i < kCounters; ++i) {
    const uint32_t id =
        enclave->ecall_create_migratable_counter().value().counter_id;
    for (int j = 0; j <= i % 5; ++j) {
      enclave->ecall_increment_migratable_counter(id);
    }
  }
  ASSERT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
  enclave.reset();
  auto moved = std::make_unique<MigratableEnclave>(m1_, image_);
  moved->set_persist_callback(
      [this](ByteView s) { m1_.storage().put("ml", s); });
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(moved->active_counters(), static_cast<size_t>(kCounters));
  for (int i = 0; i < kCounters; ++i) {
    EXPECT_EQ(moved->ecall_read_migratable_counter(static_cast<uint32_t>(i))
                  .value(),
              static_cast<uint32_t>(i % 5 + 1))
        << i;
  }
  // All source-machine counters were destroyed.
  EXPECT_EQ(m0_.counter_service().count_for(image_->mr_enclave()), 0u);
}

TEST_F(MigrationStressTest, PingPongMigrationsAccumulateCorrectly) {
  platform::Machine* machines[2] = {&m0_, &m1_};
  auto enclave = start_enclave(m0_);
  const uint32_t id =
      enclave->ecall_create_migratable_counter().value().counter_id;
  uint32_t expected = 0;
  int current = 0;
  for (int round = 0; round < 6; ++round) {
    enclave->ecall_increment_migratable_counter(id);
    ++expected;
    const int next = 1 - current;
    ASSERT_EQ(enclave->ecall_migration_start(machines[next]->address()),
              Status::kOk)
        << "round " << round;
    enclave.reset();
    current = next;
    enclave = std::make_unique<MigratableEnclave>(*machines[current], image_);
    enclave->set_persist_callback([m = machines[current]](ByteView s) {
      m->storage().put("ml", s);
    });
    ASSERT_EQ(enclave->ecall_migration_init(ByteView(), InitState::kMigrate,
                                            machines[current]->address()),
              Status::kOk)
        << "round " << round;
    EXPECT_EQ(enclave->ecall_read_migratable_counter(id).value(), expected);
  }
  // After 6 ping-pong rounds, the hardware counter on the current machine
  // is small (1 per stay) but the effective value accumulated.
  EXPECT_EQ(enclave->ecall_read_migratable_counter(id).value(), 6u);
}

TEST_F(MigrationStressTest, WholeProtocolDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    World world(seed);
    auto& a = world.add_machine("a");
    auto& b = world.add_machine("b");
    MigrationEnclave me_a(a, MigrationEnclave::standard_image(),
                          world.provider());
    MigrationEnclave me_b(b, MigrationEnclave::standard_image(),
                          world.provider());
    const auto image = EnclaveImage::create("det-app", 1, "acme");
    auto enclave = std::make_unique<MigratableEnclave>(a, image);
    enclave->set_persist_callback(
        [&a](ByteView s) { a.storage().put("ml", s); });
    enclave->ecall_migration_init(ByteView(), InitState::kNew, "a");
    enclave->ecall_create_migratable_counter();
    enclave->ecall_migration_start("b");
    enclave.reset();
    auto moved = std::make_unique<MigratableEnclave>(b, image);
    moved->set_persist_callback(
        [&b](ByteView s) { b.storage().put("ml", s); });
    moved->ecall_migration_init(ByteView(), InitState::kMigrate, "b");
    return std::pair{world.clock().now(), moved->sealed_state()};
  };
  const auto first = run(123);
  const auto second = run(123);
  EXPECT_EQ(first.first, second.first);    // identical virtual time
  EXPECT_EQ(first.second, second.second);  // identical sealed state
  const auto different = run(124);
  EXPECT_NE(first.second, different.second);  // seeds matter
}

// ----- concurrent migrations sharing one destination ME -----

TEST_F(MigrationStressTest, ConcurrentDrainToSharedDestinationNoCrossTalk) {
  // 12 enclaves (distinct images) leave m0 concurrently (cap 4) and all
  // land on the single destination ME of m1.  Each must arrive with
  // exactly its own counter table, and the buffer each left stored on m0
  // must carry the freeze flag.
  constexpr int kEnclaves = 12;
  orchestrator::FleetRegistry fleet(world_);
  const auto launched = orchestrator::launch_apps(
      fleet, {.count = kEnclaves,
              .prefix = "shared-",
              .increments = [](int i) { return i + 1u; }});
  ASSERT_TRUE(launched.ok());
  const std::vector<uint64_t>& ids = launched.value();

  orchestrator::Scheduler scheduler(fleet);
  orchestrator::OrchestratorOptions orch_options;
  orch_options.max_inflight_per_machine = 4;
  orchestrator::Orchestrator orch(fleet, scheduler, orch_options);
  const auto report = orch.execute(orchestrator::Plan::drain("m0"));

  EXPECT_EQ(report.succeeded(), static_cast<size_t>(kEnclaves));
  EXPECT_EQ(report.peak_inflight_per_machine.at("m0"), 4u);
  EXPECT_EQ(me1_->pending_incoming_count(), 0u);  // all fetched + confirmed
  for (int i = 0; i < kEnclaves; ++i) {
    const auto* record = fleet.find(ids[i]);
    EXPECT_EQ(record->machine, "m1") << i;
    // No cross-talk: each enclave reads exactly its own effective value.
    auto value = fleet.enclave(ids[i])->ecall_read_migratable_counter(0);
    ASSERT_TRUE(value.ok()) << i;
    EXPECT_EQ(value.value(), static_cast<uint32_t>(i + 1)) << i;
    // The buffer stored on m0 carries the freeze flag, so restoring it
    // refuses to operate.
    auto stored = m0_.storage().get(record->name + ".ml");
    ASSERT_TRUE(stored.ok()) << i;
    MigratableEnclave replay(m0_, record->image);
    EXPECT_EQ(replay.ecall_migration_init(stored.value(),
                                          InitState::kRestore, "m0"),
              Status::kMigrationFrozen)
        << i;
  }
  // Every m0 hardware counter was destroyed before its data left.
  for (int i = 0; i < kEnclaves; ++i) {
    EXPECT_EQ(m0_.counter_service().count_for(
                  fleet.find(ids[i])->image->mr_enclave()),
              0u)
        << i;
  }
}

TEST_F(MigrationStressTest, SameImageEnclavesSerializeOnSharedDestination) {
  // Two instances of the SAME image migrating to one destination ME: the
  // ME accepts only one pending migration per MRENCLAVE (§V-D), so the
  // second classifies as retryable-busy, backs off, and completes after
  // the first restores — with both counter tables intact.
  orchestrator::FleetRegistry fleet(world_);
  const auto id_a = fleet.launch("m0", "twin-a", image_).value();
  const auto id_b = fleet.launch("m0", "twin-b", image_).value();
  ASSERT_TRUE(fleet.enclave(id_a)->ecall_create_migratable_counter().ok());
  for (int i = 0; i < 3; ++i) {
    fleet.enclave(id_a)->ecall_increment_migratable_counter(0);
  }
  ASSERT_TRUE(fleet.enclave(id_b)->ecall_create_migratable_counter().ok());
  for (int i = 0; i < 5; ++i) {
    fleet.enclave(id_b)->ecall_increment_migratable_counter(0);
  }

  orchestrator::Scheduler scheduler(fleet);
  orchestrator::Orchestrator orch(fleet, scheduler, {});
  world_.observability().set_enabled(true);
  const auto report = orch.execute(orchestrator::Plan::drain("m0"));

  EXPECT_EQ(report.succeeded(), 2u);
  EXPECT_GE(report.total_retries(), 1u);  // the busy-ME collision
  bool saw_busy = false;
  for (const obs::TraceInstant& instant :
       world_.observability().trace.instants()) {
    if (instant.name == "orch.start_failed" &&
        instant.args.at(1).second.find("retryable-busy") !=
            std::string::npos) {
      saw_busy = true;
    }
  }
  EXPECT_TRUE(saw_busy);
  EXPECT_EQ(fleet.find(id_a)->machine, "m1");
  EXPECT_EQ(fleet.find(id_b)->machine, "m1");
  EXPECT_EQ(fleet.enclave(id_a)->ecall_read_migratable_counter(0).value(),
            3u);
  EXPECT_EQ(fleet.enclave(id_b)->ecall_read_migratable_counter(0).value(),
            5u);
}

TEST_F(MigrationStressTest, LargeSealedPayloadsThroughSdk) {
  auto enclave = start_enclave(m0_);
  // 4 MB payload seals and unseals through the migratable path.
  Rng rng(1);
  const Bytes payload = rng.bytes(4u << 20);
  auto blob = enclave->ecall_seal_migratable_data(ByteView(), payload);
  ASSERT_TRUE(blob.ok());
  auto back = enclave->ecall_unseal_migratable_data(blob.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().plaintext, payload);
}

}  // namespace
}  // namespace sgxmig
