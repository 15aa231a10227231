// Tests for migration policies (paper §X future work, implemented):
// region restrictions, address denylists, minimum computational
// requirements — evaluated against provider-CERTIFIED attributes.
#include <gtest/gtest.h>

#include "migration/migratable_enclave.h"
#include "migration/migration_enclave.h"
#include "migration/policy.h"
#include "platform/world.h"

namespace sgxmig {
namespace {

using migration::InitState;
using migration::MigratableEnclave;
using migration::MigrationEnclave;
using migration::MigrationPolicy;
using platform::World;
using sgx::EnclaveImage;

TEST(PolicyUnit, UnrestrictedAcceptsAnything) {
  MigrationPolicy policy;
  platform::MachineCredential cred;
  cred.address = "anywhere";
  cred.region = "mars";
  cred.cpu_cores = 1;
  EXPECT_EQ(policy.evaluate(cred), Status::kOk);
}

TEST(PolicyUnit, RegionAllowList) {
  MigrationPolicy policy;
  policy.allowed_regions = {"eu-central", "eu-west"};
  platform::MachineCredential cred;
  cred.region = "eu-west";
  EXPECT_EQ(policy.evaluate(cred), Status::kOk);
  cred.region = "us-east";
  EXPECT_EQ(policy.evaluate(cred), Status::kPolicyViolation);
}

TEST(PolicyUnit, AddressDenyList) {
  MigrationPolicy policy;
  policy.denied_addresses = {"m3", "m4"};
  platform::MachineCredential cred;
  cred.address = "m2";
  EXPECT_EQ(policy.evaluate(cred), Status::kOk);
  cred.address = "m3";
  EXPECT_EQ(policy.evaluate(cred), Status::kPolicyViolation);
}

TEST(PolicyUnit, MinimumCores) {
  MigrationPolicy policy;
  policy.min_cpu_cores = 8;
  platform::MachineCredential cred;
  cred.cpu_cores = 16;
  EXPECT_EQ(policy.evaluate(cred), Status::kOk);
  cred.cpu_cores = 4;
  EXPECT_EQ(policy.evaluate(cred), Status::kPolicyViolation);
}

TEST(PolicyUnit, SerializationRoundTrip) {
  MigrationPolicy policy;
  policy.allowed_regions = {"eu-central"};
  policy.denied_addresses = {"m9", "m10"};
  policy.min_cpu_cores = 32;
  auto back = decode_record<MigrationPolicy>(encode_record(policy));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().allowed_regions, policy.allowed_regions);
  EXPECT_EQ(back.value().denied_addresses, policy.denied_addresses);
  EXPECT_EQ(back.value().min_cpu_cores, policy.min_cpu_cores);
}

class PolicyEndToEnd : public ::testing::Test {
 protected:
  PolicyEndToEnd() {
    me0_ = std::make_unique<MigrationEnclave>(
        m0_, MigrationEnclave::standard_image(), world_.provider());
    me_small_ = std::make_unique<MigrationEnclave>(
        small_, MigrationEnclave::standard_image(), world_.provider());
    me_us_ = std::make_unique<MigrationEnclave>(
        us_, MigrationEnclave::standard_image(), world_.provider());
    me_big_ = std::make_unique<MigrationEnclave>(
        big_, MigrationEnclave::standard_image(), world_.provider());
  }

  std::unique_ptr<MigratableEnclave> start_enclave() {
    auto enclave = std::make_unique<MigratableEnclave>(m0_, image_);
    enclave->set_persist_callback(
        [this](ByteView s) { m0_.storage().put("ml", s); });
    EXPECT_EQ(enclave->ecall_migration_init(ByteView(), InitState::kNew, "m0"),
              Status::kOk);
    return enclave;
  }

  World world_{/*seed=*/909};
  platform::Machine& m0_ = world_.add_machine("m0", "eu-central", 16);
  platform::Machine& small_ = world_.add_machine("small", "eu-central", 4);
  platform::Machine& us_ = world_.add_machine("us0", "us-east", 64);
  platform::Machine& big_ = world_.add_machine("big", "eu-central", 64);
  std::unique_ptr<MigrationEnclave> me0_, me_small_, me_us_, me_big_;
  std::shared_ptr<const EnclaveImage> image_ =
      EnclaveImage::create("policy-app", 1, "acme");
};

TEST_F(PolicyEndToEnd, MinCoresEnforcedAgainstCertifiedValue) {
  auto enclave = start_enclave();
  MigrationPolicy policy;
  policy.min_cpu_cores = 8;
  // "small" is certified with 4 cores: rejected.
  EXPECT_EQ(enclave->ecall_migration_start("small", policy),
            Status::kPolicyViolation);
  // "big" satisfies the requirement; the staged data migrates there.
  EXPECT_EQ(enclave->ecall_migration_start("big", policy),
            Status::kOk);
}

TEST_F(PolicyEndToEnd, CombinedPolicy) {
  auto enclave = start_enclave();
  MigrationPolicy policy;
  policy.allowed_regions = {"eu-central"};
  policy.min_cpu_cores = 8;
  policy.denied_addresses = {"big"};
  // us0: wrong region (despite 64 cores).
  EXPECT_EQ(enclave->ecall_migration_start("us0", policy),
            Status::kPolicyViolation);
  // small: right region, too few cores.
  EXPECT_EQ(enclave->ecall_migration_start("small", policy),
            Status::kPolicyViolation);
  // big: right region + cores, but denied by address.
  EXPECT_EQ(enclave->ecall_migration_start("big", policy),
            Status::kPolicyViolation);
}

TEST_F(PolicyEndToEnd, GeographicComplianceScenario) {
  // The §X example: "ensure that a particular enclave is not migrated
  // outside a specified geographic region".
  auto enclave = start_enclave();
  enclave->ecall_create_migratable_counter();
  MigrationPolicy gdpr;
  gdpr.allowed_regions = {"eu-central", "eu-west"};
  EXPECT_EQ(enclave->ecall_migration_start("us0", gdpr),
            Status::kPolicyViolation);
  ASSERT_EQ(enclave->ecall_migration_start("big", gdpr),
            Status::kOk);
  // Complete the migration and verify the counter arrived.
  enclave.reset();
  auto moved = std::make_unique<MigratableEnclave>(big_, image_);
  moved->set_persist_callback(
      [this](ByteView s) { big_.storage().put("ml", s); });
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "big"),
            Status::kOk);
  EXPECT_EQ(moved->ecall_read_migratable_counter(0).value(), 0u);
}

TEST_F(PolicyEndToEnd, PolicyViolationKeepsDataRetryable) {
  auto enclave = start_enclave();
  const uint32_t id =
      enclave->ecall_create_migratable_counter().value().counter_id;
  enclave->ecall_increment_migratable_counter(id);
  MigrationPolicy strict;
  strict.min_cpu_cores = 1000;
  EXPECT_EQ(enclave->ecall_migration_start("big", strict),
            Status::kPolicyViolation);
  // Counters already destroyed (destroy-before-send), but the staged data
  // can still reach an allowed destination.
  ASSERT_EQ(enclave->ecall_migration_start("big"), Status::kOk);
  enclave.reset();
  auto moved = std::make_unique<MigratableEnclave>(big_, image_);
  moved->set_persist_callback(
      [this](ByteView s) { big_.storage().put("ml", s); });
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "big"),
            Status::kOk);
  EXPECT_EQ(moved->ecall_read_migratable_counter(id).value(), 1u);
}

}  // namespace
}  // namespace sgxmig
