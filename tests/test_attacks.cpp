// The paper's §III attacks, run against each migration mechanism.  The
// expected matrix (also printed by bench/attack_matrix):
//
//   mechanism            fork        roll-back   migrate-back
//   Gu, volatile flag    SUCCEEDS    SUCCEEDS    possible
//   Gu, persisted flag   blocked     SUCCEEDS    impossible
//   this paper           blocked     blocked     possible
#include <gtest/gtest.h>

#include <string>

#include "attacks/attacks.h"
#include "platform/world.h"

namespace sgxmig {
namespace {

using attacks::Mechanism;

TEST(ForkAttack, SucceedsAgainstGuVolatileFlag) {
  platform::World world(/*seed=*/1);
  const auto report =
      attacks::run_fork_attack(world, Mechanism::kGuVolatileFlag);
  EXPECT_TRUE(report.attack_succeeded) << report.detail;
}

TEST(ForkAttack, BlockedByGuPersistedFlag) {
  platform::World world(/*seed=*/2);
  const auto report =
      attacks::run_fork_attack(world, Mechanism::kGuPersistedFlag);
  EXPECT_FALSE(report.attack_succeeded) << report.detail;
}

TEST(ForkAttack, BlockedByOurScheme) {
  platform::World world(/*seed=*/3);
  const auto report = attacks::run_fork_attack(world, Mechanism::kOurScheme);
  EXPECT_FALSE(report.attack_succeeded) << report.detail;
}

TEST(RollbackAttack, SucceedsAgainstGuVolatileFlag) {
  platform::World world(/*seed=*/4);
  const auto report =
      attacks::run_rollback_attack(world, Mechanism::kGuVolatileFlag);
  EXPECT_TRUE(report.attack_succeeded) << report.detail;
}

TEST(RollbackAttack, SucceedsAgainstGuPersistedFlag) {
  // Persisting the spin flag does not migrate counters: the §III-C
  // roll-back still works against KDC-encrypted persistent state.
  platform::World world(/*seed=*/5);
  const auto report =
      attacks::run_rollback_attack(world, Mechanism::kGuPersistedFlag);
  EXPECT_TRUE(report.attack_succeeded) << report.detail;
}

TEST(RollbackAttack, BlockedByOurScheme) {
  platform::World world(/*seed=*/6);
  const auto report =
      attacks::run_rollback_attack(world, Mechanism::kOurScheme);
  EXPECT_FALSE(report.attack_succeeded) << report.detail;
}

TEST(MigrateBack, PossibleWithGuVolatileFlag) {
  platform::World world(/*seed=*/7);
  const auto report =
      attacks::check_migrate_back(world, Mechanism::kGuVolatileFlag);
  EXPECT_TRUE(report.migrate_back_possible) << report.detail;
}

TEST(MigrateBack, ImpossibleWithGuPersistedFlag) {
  // The cost of fixing the fork with a persisted flag: the enclave can
  // never return to the source machine (§III-B).
  platform::World world(/*seed=*/8);
  const auto report =
      attacks::check_migrate_back(world, Mechanism::kGuPersistedFlag);
  EXPECT_FALSE(report.migrate_back_possible) << report.detail;
}

TEST(MigrateBack, PossibleWithOurScheme) {
  platform::World world(/*seed=*/9);
  const auto report =
      attacks::check_migrate_back(world, Mechanism::kOurScheme);
  EXPECT_TRUE(report.migrate_back_possible) << report.detail;
}

TEST(DataLoss, StandardSealedDataLostWithoutMsk) {
  platform::World world(/*seed=*/10);
  EXPECT_TRUE(attacks::check_sealed_data_loss_without_msk(world));
}

// Warm pre-copy destinations: a set created before the data arrives is
// bound to one attempt, restores only through that attempt's finalize,
// and never restores from its sealed buffer.
TEST(WarmDestinationAttack, ReplayOntoAnotherAttemptsWarmSetIsRefused) {
  platform::World world(/*seed=*/8);
  const auto report = attacks::run_warm_replay_attack(world);
  EXPECT_FALSE(report.attack_succeeded) << report.detail;
  EXPECT_NE(report.detail.find("kReplayDetected"), std::string::npos)
      << report.detail;
}

TEST(WarmDestinationAttack, TwoInstancesRacingForOneAttemptRestoreOnce) {
  platform::World world(/*seed=*/9);
  const auto report = attacks::run_warm_race_attack(world);
  EXPECT_FALSE(report.attack_succeeded) << report.detail;
  EXPECT_EQ(report.detail.find("unexpected"), std::string::npos)
      << report.detail;
}

TEST(WarmDestinationAttack, AbortedAttemptsWarmSetNeverRestores) {
  platform::World world(/*seed=*/10);
  const auto report = attacks::run_warm_abandoned_restore_attack(world);
  EXPECT_FALSE(report.attack_succeeded) << report.detail;
  EXPECT_EQ(report.detail.find("unexpected"), std::string::npos)
      << report.detail;
}

// Determinism: the attack outcomes do not depend on the seed.
class AttackMatrixSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AttackMatrixSweep, OutcomesStableAcrossSeeds) {
  platform::World world(GetParam());
  EXPECT_TRUE(
      attacks::run_fork_attack(world, Mechanism::kGuVolatileFlag).attack_succeeded);
  EXPECT_FALSE(
      attacks::run_fork_attack(world, Mechanism::kOurScheme).attack_succeeded);
  EXPECT_TRUE(attacks::run_rollback_attack(world, Mechanism::kGuPersistedFlag)
                  .attack_succeeded);
  EXPECT_FALSE(attacks::run_rollback_attack(world, Mechanism::kOurScheme)
                   .attack_succeeded);
  EXPECT_FALSE(attacks::run_warm_replay_attack(world).attack_succeeded);
  EXPECT_FALSE(attacks::run_warm_race_attack(world).attack_succeeded);
  EXPECT_FALSE(
      attacks::run_warm_abandoned_restore_attack(world).attack_succeeded);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AttackMatrixSweep,
                         ::testing::Values(11, 222, 3333, 44444));

}  // namespace
}  // namespace sgxmig
