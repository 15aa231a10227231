// Scripted adversaries implementing the paper's §III attacks.
//
// Each function plays the §III-B fork attack or §III-C roll-back attack
// against a migration mechanism and reports whether the ATTACK SUCCEEDED
// (bad) or was blocked (good).  The adversary has full OS power: it can
// restart applications, snapshot/replay untrusted storage, and choose
// which blobs to feed to enclaves — exactly the §III-A threat model.
//
//   mechanism            fork attack   roll-back    migrate back to source
//   Gu et al., volatile   SUCCEEDS      SUCCEEDS     possible
//   Gu et al., persisted  blocked       SUCCEEDS*    IMPOSSIBLE (limitation)
//   this paper            blocked       blocked      possible
//
//   * persisting the spin flag does not migrate counters, so the §III-C
//     roll-back against KDC-encrypted state still works.
#pragma once

#include <string>

#include "platform/world.h"

namespace sgxmig::attacks {

enum class Mechanism {
  kGuVolatileFlag,   // Gu et al. [2], spin flag not persisted
  kGuPersistedFlag,  // Gu et al. [2], spin flag sealed to disk
  kOurScheme,        // this paper: Migration Enclave + Migration Library
};

std::string mechanism_name(Mechanism mechanism);

struct AttackReport {
  bool attack_succeeded = false;
  std::string detail;
};

/// §III-B: create two concurrently operating copies of the enclave with
/// inconsistent persistent state.
AttackReport run_fork_attack(platform::World& world, Mechanism mechanism);

/// §III-C: make the enclave accept a stale version of its persistent
/// state after a migration.
AttackReport run_rollback_attack(platform::World& world, Mechanism mechanism);

/// §III-B discussion: after migrating m0 -> m1, can the enclave legally
/// migrate back to m0?  (Gu et al.'s persisted flag forbids it.)
struct MigrateBackReport {
  bool migrate_back_possible = false;
  std::string detail;
};
MigrateBackReport check_migrate_back(platform::World& world,
                                     Mechanism mechanism);

/// The data-loss failure (§II-B): standard-sealed data after migration.
/// Returns true if the data is lost (unsealable on the destination).
bool check_sealed_data_loss_without_msk(platform::World& world);

// ----- warm pre-copy destinations (this paper's scheme) -----
//
// A warm destination instance creates its counters when the first
// pre-copy round is staged at its Migration Enclave, before any data
// arrives.  The set holds no MSK and no offsets, is bound to one
// attempt's request nonce, and its sealed buffer carries the freeze flag.

/// Replays a later attempt's finalize onto the warm set an earlier,
/// abandoned attempt of the same enclave left at that destination.
AttackReport run_warm_replay_attack(platform::World& world);

/// Two destination instances of one enclave, both warmed for the same
/// attempt, race to restore it: a fork if both come up live.
AttackReport run_warm_race_attack(platform::World& world);

/// Restores an instance from the sealed warm set of an aborted attempt.
AttackReport run_warm_abandoned_restore_attack(platform::World& world);

}  // namespace sgxmig::attacks
