// Migration policies (paper §X, implemented): an enclave provider pins
// its enclave to EU regions with a minimum machine size; the Migration
// Enclave enforces the policy against provider-CERTIFIED machine
// attributes before any data leaves the source.
//
// Run:  ./build/examples/policy_tour
#include <cstdio>

#include "migration/migratable_enclave.h"
#include "migration/migration_enclave.h"
#include "migration/policy.h"
#include "platform/world.h"

using namespace sgxmig;
using migration::InitState;
using migration::MigratableEnclave;
using migration::MigrationEnclave;
using migration::MigrationPolicy;

int main() {
  platform::World world(/*seed=*/6);
  auto& home = world.add_machine("eu-a", "eu-central", /*cpu_cores=*/16);
  auto& eu_small = world.add_machine("eu-b", "eu-central", /*cpu_cores=*/4);
  auto& eu_big = world.add_machine("eu-c", "eu-west", /*cpu_cores=*/64);
  auto& us_big = world.add_machine("us-a", "us-east", /*cpu_cores=*/64);

  MigrationEnclave me_home(home, MigrationEnclave::standard_image(), world.provider());
  MigrationEnclave me_small(eu_small, MigrationEnclave::standard_image(), world.provider());
  MigrationEnclave me_big(eu_big, MigrationEnclave::standard_image(), world.provider());
  MigrationEnclave me_us(us_big, MigrationEnclave::standard_image(), world.provider());

  const auto image = sgx::EnclaveImage::create("gdpr-app", 1, "acme");
  auto enclave = std::make_unique<MigratableEnclave>(home, image);
  enclave->set_persist_callback(
      [&home](ByteView s) { home.storage().put("ml", s); });
  enclave->ecall_migration_init(ByteView(), InitState::kNew, home.address());
  enclave->ecall_create_migratable_counter();

  // Provider-pinned policy: EU only, at least 8 certified cores.
  MigrationPolicy policy;
  policy.allowed_regions = {"eu-central", "eu-west"};
  policy.min_cpu_cores = 8;

  std::printf("policy: regions {eu-central, eu-west}, min 8 cores\n\n");
  for (const auto& [dest, why] :
       {std::pair{"us-a", "wrong region (us-east), despite 64 cores"},
        std::pair{"eu-b", "right region but only 4 certified cores"}}) {
    const Status status = enclave->ecall_migration_start(dest, policy);
    std::printf("migrate to %-5s -> %-18s (%s)\n", dest,
                std::string(status_name(status)).c_str(), why);
  }
  const Status ok = enclave->ecall_migration_start("eu-c", policy);
  std::printf("migrate to %-5s -> %-18s (eu-west, 64 cores)\n", "eu-c",
              std::string(status_name(ok)).c_str());

  enclave.reset();
  auto moved = std::make_unique<MigratableEnclave>(eu_big, image);
  moved->set_persist_callback(
      [&eu_big](ByteView s) { eu_big.storage().put("ml", s); });
  const Status arrived = moved->ecall_migration_init(
      ByteView(), InitState::kMigrate, eu_big.address());
  std::printf("\nenclave restarted on eu-c: %s (counter value %u)\n",
              std::string(status_name(arrived)).c_str(),
              moved->ecall_read_migratable_counter(0).value_or(999));
  std::printf(
      "\nnote: the policy is checked against the destination's provider-\n"
      "signed certificate, so a machine cannot lie about its region or "
      "size.\n");
  return 0;
}
