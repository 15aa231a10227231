#include "attacks/attacks.h"

#include <memory>

#include "apps/versioned_state.h"
#include "baseline/nonmigratable.h"
#include "migration/migratable_enclave.h"
#include "migration/migration_enclave.h"

namespace sgxmig::attacks {

namespace {

using apps::PersistenceMode;
using apps::VersionedStateEnclave;
using baseline::GuMigrationLibrary;
using migration::InitState;
using migration::MigrationEnclave;
using platform::Machine;
using platform::World;
using sgx::EnclaveImage;

using FlagMode = GuMigrationLibrary::FlagMode;

constexpr char kGuFlagBlob[] = "gu.flag";
constexpr char kLibStateBlob[] = "ml.state";

/// Unique machine names so one World can host several attack runs.
std::string unique_name(const std::string& prefix) {
  static int counter = 0;
  return prefix + "-" + std::to_string(counter++);
}

sgx::Key128 kdc_key() {
  // The key an external KDC (e.g. AWS KMS, §III-C) provisioned into the
  // enclave via remote attestation; same on every machine by design.
  sgx::Key128 key{};
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<uint8_t>(0x40 + i);
  return key;
}

std::shared_ptr<const EnclaveImage> victim_image() {
  static const auto image = EnclaveImage::create("victim-app", 1, "victim-co");
  return image;
}

/// Starts a Gu-style (KDC-sealed) enclave instance on `machine`, restoring
/// the spin flag from storage as the honest application would.
std::unique_ptr<VersionedStateEnclave> start_gu_instance(Machine& machine,
                                                         FlagMode flag_mode) {
  auto enclave = std::make_unique<VersionedStateEnclave>(
      machine, victim_image(), PersistenceMode::kKdcSeal, flag_mode);
  enclave->ecall_install_kdc_key(kdc_key());
  enclave->gu_library().set_persist_callback([&machine](ByteView blob) {
    machine.storage().put(kGuFlagBlob, blob);
  });
  Bytes flag_blob;
  if (machine.storage().exists(kGuFlagBlob)) {
    flag_blob = machine.storage().get(kGuFlagBlob).value();
  }
  enclave->gu_library().restore(flag_blob);
  return enclave;
}

/// Gu et al. migration of the enclave's memory image src -> dst.
Status gu_migrate(VersionedStateEnclave& source,
                  VersionedStateEnclave& destination) {
  auto image = source.ecall_export_memory_image();
  if (!image.ok()) return image.status();
  Bytes received;
  const Status status = GuMigrationLibrary::migrate_memory(
      source.gu_library(), image.value(), destination.gu_library(), &received);
  if (status != Status::kOk) return status;
  return destination.ecall_import_memory_image(received);
}

/// Starts an instance of OUR migratable enclave with the persist OCALL
/// wired to the machine's storage.
std::unique_ptr<VersionedStateEnclave> make_our_instance(Machine& machine) {
  auto enclave = std::make_unique<VersionedStateEnclave>(
      machine, victim_image(), PersistenceMode::kMigratable);
  enclave->set_persist_callback([&machine](ByteView blob) {
    machine.storage().put(kLibStateBlob, blob);
  });
  return enclave;
}

}  // namespace

std::string mechanism_name(Mechanism mechanism) {
  switch (mechanism) {
    case Mechanism::kGuVolatileFlag: return "Gu et al. (flag not persisted)";
    case Mechanism::kGuPersistedFlag: return "Gu et al. (flag persisted)";
    case Mechanism::kOurScheme: return "this paper (ME + ML)";
  }
  return "?";
}

// ----------------------------------------------------------------------
// §III-B fork attack
// ----------------------------------------------------------------------

namespace {

AttackReport fork_attack_gu(World& world, FlagMode flag_mode) {
  Machine& src = world.add_machine(unique_name("fork-src"));
  Machine& dst = world.add_machine(unique_name("fork-dst"));

  // Step 1 (start-stop-restart): first start creates counter c and
  // persists state with version v = 1.
  auto enclave = start_gu_instance(src, flag_mode);
  enclave->ecall_set_state(to_bytes(std::string_view("channel-keys-v1")));
  auto persisted = enclave->ecall_persist();
  const Bytes blob_v1 = persisted.value().blob;
  const sgx::CounterUuid src_uuid = persisted.value().counter_uuid;
  enclave.reset();
  enclave = start_gu_instance(src, flag_mode);
  if (enclave->ecall_restore(blob_v1, src_uuid) != Status::kOk) {
    return {false, "setup restart failed unexpectedly"};
  }

  // Step 2 (migrate): Gu-style memory migration to the destination, then
  // continued operation there (new counter c', versions advance).
  auto dst_enclave = start_gu_instance(dst, flag_mode);
  if (gu_migrate(*enclave, *dst_enclave) != Status::kOk) {
    return {false, "gu migration failed unexpectedly"};
  }
  dst_enclave->ecall_set_state(to_bytes(std::string_view("state-on-dst")));
  dst_enclave->ecall_persist();
  dst_enclave->ecall_persist();

  // Step 3 (terminate-restart): restart the application on the SOURCE
  // with the persistent state from step 1.
  enclave.reset();
  auto fork = start_gu_instance(src, flag_mode);
  if (fork->gu_library().spin_locked()) {
    return {false,
            "blocked: persisted spin flag refuses to operate on the source "
            "(granting, as the paper does, that the flag blob cannot be "
            "suppressed)"};
  }
  const Status restored = fork->ecall_restore(blob_v1, src_uuid);
  if (restored != Status::kOk) {
    return {false, std::string("blocked: restore failed with ") +
                       std::string(status_name(restored))};
  }
  // Both instances now operate concurrently with inconsistent state.
  const bool src_alive =
      fork->ecall_persist().ok();  // source keeps making progress
  const bool dst_alive = dst_enclave->ecall_persist().ok();
  if (src_alive && dst_alive) {
    return {true,
            "FORK: enclave live on source (from v=1 state) and destination "
            "simultaneously"};
  }
  return {false, "one of the copies could not operate"};
}

AttackReport fork_attack_ours(World& world) {
  Machine& src = world.add_machine(unique_name("fork-src"));
  Machine& dst = world.add_machine(unique_name("fork-dst"));
  MigrationEnclave me_src(src, MigrationEnclave::standard_image(),
                          world.provider());
  MigrationEnclave me_dst(dst, MigrationEnclave::standard_image(),
                          world.provider());

  // Step 1: first start, persist v=1, restart from persistent state.
  auto enclave = make_our_instance(src);
  enclave->ecall_migration_init(ByteView(), InitState::kNew, src.address());
  src.storage().put(kLibStateBlob, enclave->sealed_state());
  enclave->ecall_set_state(to_bytes(std::string_view("channel-keys-v1")));
  const Bytes blob_v1 = enclave->ecall_persist().value().blob;
  const auto pre_migration_disk = src.storage().snapshot();
  enclave.reset();
  enclave = make_our_instance(src);
  if (enclave->ecall_migration_init(src.storage().get(kLibStateBlob).value(),
                                    InitState::kRestore,
                                    src.address()) != Status::kOk ||
      enclave->ecall_restore_migratable(blob_v1) != Status::kOk) {
    return {false, "setup restart failed unexpectedly"};
  }

  // Step 2: migrate with the paper's mechanism; continue on destination.
  if (enclave->ecall_migration_start(dst.address()) != Status::kOk) {
    return {false, "migration failed unexpectedly"};
  }
  auto dst_enclave = make_our_instance(dst);
  if (dst_enclave->ecall_migration_init(ByteView(), InitState::kMigrate,
                                        dst.address()) != Status::kOk) {
    return {false, "incoming migration failed unexpectedly"};
  }
  dst_enclave->ecall_set_state(to_bytes(std::string_view("state-on-dst")));
  dst_enclave->ecall_persist();

  // Step 3: restart on the source.  The adversary tries BOTH the current
  // (frozen) library state and a replayed pre-migration disk image.
  enclave.reset();
  {
    auto fork = make_our_instance(src);
    const Status init = fork->ecall_migration_init(
        src.storage().get(kLibStateBlob).value(), InitState::kRestore,
        src.address());
    if (init == Status::kOk &&
        fork->ecall_restore_migratable(blob_v1) == Status::kOk) {
      return {true, "FORK via current state: freeze flag ineffective"};
    }
  }
  src.storage().restore(pre_migration_disk);
  {
    auto fork = make_our_instance(src);
    const Status init = fork->ecall_migration_init(
        src.storage().get(kLibStateBlob).value(), InitState::kRestore,
        src.address());
    if (init != Status::kOk) {
      return {false, std::string("blocked at init: ") +
                         std::string(status_name(init))};
    }
    // Old, unfrozen state restores — but its hardware counters were
    // destroyed before the migration data left the machine.
    const auto restored = fork->ecall_restore_migratable(blob_v1);
    if (restored == Status::kOk) {
      return {true, "FORK via replayed pre-migration state"};
    }
    return {false, std::string("blocked: replayed state unusable (") +
                       std::string(status_name(restored)) +
                       ", counters destroyed before data left the source)"};
  }
}

}  // namespace

AttackReport run_fork_attack(World& world, Mechanism mechanism) {
  switch (mechanism) {
    case Mechanism::kGuVolatileFlag:
      return fork_attack_gu(world, FlagMode::kVolatile);
    case Mechanism::kGuPersistedFlag:
      return fork_attack_gu(world, FlagMode::kPersisted);
    case Mechanism::kOurScheme:
      return fork_attack_ours(world);
  }
  return {false, "?"};
}

// ----------------------------------------------------------------------
// §III-C roll-back attack
// ----------------------------------------------------------------------

namespace {

AttackReport rollback_attack_gu(World& world, FlagMode flag_mode) {
  Machine& src = world.add_machine(unique_name("rb-src"));
  Machine& dst = world.add_machine(unique_name("rb-dst"));

  // Step 1: start-stop-restart; persist v = 1 and keep the blob.
  auto enclave = start_gu_instance(src, flag_mode);
  enclave->ecall_set_state(to_bytes(std::string_view("ledger-v1")));
  auto persisted = enclave->ecall_persist();
  const Bytes blob_v1 = persisted.value().blob;

  // Step 2: continue on the source (v = 2, 3, ...).
  enclave->ecall_set_state(to_bytes(std::string_view("ledger-v2")));
  enclave->ecall_persist();
  enclave->ecall_set_state(to_bytes(std::string_view("ledger-v3")));
  enclave->ecall_persist();

  // Step 3: migrate to the destination (memory only; counters stay).
  auto dst_enclave = start_gu_instance(dst, flag_mode);
  if (gu_migrate(*enclave, *dst_enclave) != Status::kOk) {
    return {false, "gu migration failed unexpectedly"};
  }

  // Step 4: terminate on the destination -> the enclave persists its
  // state, creating a FRESH counter on the destination (c' = 1).
  auto dst_persisted = dst_enclave->ecall_persist();
  if (!dst_persisted.ok()) {
    return {false, "destination persist failed unexpectedly"};
  }
  const sgx::CounterUuid dst_uuid = dst_persisted.value().counter_uuid;
  dst_enclave.reset();

  // Step 5: restart on the destination, but feed the ORIGINAL v=1 blob.
  auto restarted = start_gu_instance(dst, flag_mode);
  const Status restored = restarted->ecall_restore(blob_v1, dst_uuid);
  if (restored == Status::kOk) {
    return {true,
            "ROLL-BACK: destination accepted v=1 state because its fresh "
            "counter value (1) matches the stale version number"};
  }
  return {false, std::string("blocked: ") + std::string(status_name(restored))};
}

AttackReport rollback_attack_ours(World& world) {
  Machine& src = world.add_machine(unique_name("rb-src"));
  Machine& dst = world.add_machine(unique_name("rb-dst"));
  MigrationEnclave me_src(src, MigrationEnclave::standard_image(),
                          world.provider());
  MigrationEnclave me_dst(dst, MigrationEnclave::standard_image(),
                          world.provider());

  auto enclave = make_our_instance(src);
  enclave->ecall_migration_init(ByteView(), InitState::kNew, src.address());
  src.storage().put(kLibStateBlob, enclave->sealed_state());
  enclave->ecall_set_state(to_bytes(std::string_view("ledger-v1")));
  const Bytes blob_v1 = enclave->ecall_persist().value().blob;
  enclave->ecall_set_state(to_bytes(std::string_view("ledger-v2")));
  enclave->ecall_persist();
  enclave->ecall_set_state(to_bytes(std::string_view("ledger-v3")));
  enclave->ecall_persist();

  if (enclave->ecall_migration_start(dst.address()) != Status::kOk) {
    return {false, "migration failed unexpectedly"};
  }
  enclave.reset();
  auto dst_enclave = make_our_instance(dst);
  if (dst_enclave->ecall_migration_init(ByteView(), InitState::kMigrate,
                                        dst.address()) != Status::kOk) {
    return {false, "incoming migration failed unexpectedly"};
  }

  // Terminate + restart on the destination, feeding the stale v=1 blob.
  dst_enclave.reset();
  auto restarted = make_our_instance(dst);
  const Status init = restarted->ecall_migration_init(
      dst.storage().get(kLibStateBlob).value(), InitState::kRestore,
      dst.address());
  if (init != Status::kOk) {
    return {false,
            std::string("blocked at init: ") + std::string(status_name(init))};
  }
  const Status restored = restarted->ecall_restore_migratable(blob_v1);
  if (restored == Status::kOk) {
    return {true, "ROLL-BACK: stale v=1 state accepted after migration"};
  }
  return {false,
          std::string("blocked: migrated counter kept its effective value (") +
              std::string(status_name(restored)) + ")"};
}

}  // namespace

AttackReport run_rollback_attack(World& world, Mechanism mechanism) {
  switch (mechanism) {
    case Mechanism::kGuVolatileFlag:
      return rollback_attack_gu(world, FlagMode::kVolatile);
    case Mechanism::kGuPersistedFlag:
      return rollback_attack_gu(world, FlagMode::kPersisted);
    case Mechanism::kOurScheme:
      return rollback_attack_ours(world);
  }
  return {false, "?"};
}

// ----------------------------------------------------------------------
// migrate-back restriction (§III-B discussion)
// ----------------------------------------------------------------------

MigrateBackReport check_migrate_back(World& world, Mechanism mechanism) {
  Machine& m0 = world.add_machine(unique_name("mb-m0"));
  Machine& m1 = world.add_machine(unique_name("mb-m1"));

  if (mechanism == Mechanism::kOurScheme) {
    MigrationEnclave me0(m0, MigrationEnclave::standard_image(),
                         world.provider());
    MigrationEnclave me1(m1, MigrationEnclave::standard_image(),
                         world.provider());
    auto enclave = make_our_instance(m0);
    enclave->ecall_migration_init(ByteView(), InitState::kNew, m0.address());
    enclave->ecall_set_state(to_bytes(std::string_view("state")));
    enclave->ecall_persist();
    if (enclave->ecall_migration_start(m1.address()) != Status::kOk) {
      return {false, "first migration failed"};
    }
    enclave.reset();
    enclave = make_our_instance(m1);
    if (enclave->ecall_migration_init(ByteView(), InitState::kMigrate,
                                      m1.address()) != Status::kOk) {
      return {false, "incoming migration failed"};
    }
    if (enclave->ecall_migration_start(m0.address()) != Status::kOk) {
      return {false, "migration back was rejected"};
    }
    enclave.reset();
    enclave = make_our_instance(m0);
    const Status back = enclave->ecall_migration_init(
        ByteView(), InitState::kMigrate, m0.address());
    if (back == Status::kOk) {
      return {true, "m0 -> m1 -> m0 round trip works"};
    }
    return {false, std::string("migrate back failed: ") +
                       std::string(status_name(back))};
  }

  const FlagMode flag_mode = mechanism == Mechanism::kGuPersistedFlag
                                 ? FlagMode::kPersisted
                                 : FlagMode::kVolatile;
  auto enclave = start_gu_instance(m0, flag_mode);
  enclave->ecall_set_state(to_bytes(std::string_view("state")));
  auto dst_enclave = start_gu_instance(m1, flag_mode);
  if (gu_migrate(*enclave, *dst_enclave) != Status::kOk) {
    return {false, "first migration failed"};
  }
  // Migrate back: a fresh instance on m0 must be able to receive.
  enclave.reset();
  auto back_instance = start_gu_instance(m0, flag_mode);
  const Status back = gu_migrate(*dst_enclave, *back_instance);
  if (back == Status::kOk) {
    return {true, "m0 -> m1 -> m0 round trip works"};
  }
  return {false,
          std::string("migrate back blocked: ") +
              std::string(status_name(back)) +
              " (the persisted flag makes the source machine permanently "
              "unusable for this enclave)"};
}

bool check_sealed_data_loss_without_msk(World& world) {
  Machine& m0 = world.add_machine(unique_name("dl-m0"));
  Machine& m1 = world.add_machine(unique_name("dl-m1"));
  baseline::BaselineEnclave src(m0, victim_image());
  const Bytes sealed =
      src.ecall_seal(ByteView(), to_bytes(std::string_view("keys"))).value();
  baseline::BaselineEnclave dst(m1, victim_image());
  return !dst.ecall_unseal(sealed).ok();
}

// ----------------------------------------------------------------------
// warm pre-copy destinations
// ----------------------------------------------------------------------

namespace {

using migration::MigratableEnclave;

constexpr char kWarmStateBlob[] = "warm-victim.ml";

/// Three machines with their Migration Enclaves; the victim runs on src.
struct WarmStage {
  explicit WarmStage(World& world)
      : src(world.add_machine(unique_name("warm-src"))),
        dst(world.add_machine(unique_name("warm-dst"))),
        alt(world.add_machine(unique_name("warm-alt"))),
        me_src(src, MigrationEnclave::standard_image(), world.provider()),
        me_dst(dst, MigrationEnclave::standard_image(), world.provider()),
        me_alt(alt, MigrationEnclave::standard_image(), world.provider()) {}

  Machine& src;
  Machine& dst;
  Machine& alt;
  MigrationEnclave me_src;
  MigrationEnclave me_dst;
  MigrationEnclave me_alt;
};

std::shared_ptr<const EnclaveImage> warm_victim_image() {
  static const auto image =
      EnclaveImage::create("warm-victim-app", 1, "victim-co");
  return image;
}

/// A live-transfer capable instance of the victim on `machine`, its
/// persist OCALL wired to the machine's storage.
std::unique_ptr<MigratableEnclave> make_warm_victim(Machine& machine) {
  auto enclave = std::make_unique<MigratableEnclave>(
      machine, warm_victim_image(), /*live_transfer_capable=*/true);
  enclave->set_persist_callback([&machine](ByteView blob) {
    machine.storage().put(kWarmStateBlob, blob);
  });
  return enclave;
}

/// The victim on src with two counters at 3 and 1.
std::unique_ptr<MigratableEnclave> start_warm_victim(Machine& src) {
  auto enclave = make_warm_victim(src);
  if (enclave->ecall_migration_init(ByteView(), InitState::kNew,
                                    src.address()) != Status::kOk) {
    return nullptr;
  }
  for (int i = 0; i < 2; ++i) {
    if (!enclave->ecall_create_migratable_counter().ok()) return nullptr;
  }
  for (int i = 0; i < 3; ++i) enclave->ecall_increment_migratable_counter(0);
  enclave->ecall_increment_migratable_counter(1);
  return enclave;
}

/// True when `enclave` serves the victim's counters at 3 and 1.
bool serves_victim_counters(MigratableEnclave& enclave) {
  const auto first = enclave.ecall_read_migratable_counter(0);
  const auto second = enclave.ecall_read_migratable_counter(1);
  return first.ok() && first.value() == 3 && second.ok() &&
         second.value() == 1;
}

}  // namespace

AttackReport run_warm_replay_attack(World& world) {
  WarmStage stage(world);
  auto enclave = start_warm_victim(stage.src);
  if (enclave == nullptr) return {false, "setup failed unexpectedly"};
  // Attempt A: one round toward dst, which warms a set bound to it.
  if (!enclave->ecall_migration_precopy_round(stage.dst.address()).ok()) {
    return {false, "round toward dst failed unexpectedly"};
  }
  auto stale = make_warm_victim(stage.dst);
  if (stale->ecall_migration_warm_up(stage.dst.address()) != Status::kOk) {
    return {false, "warm-up failed unexpectedly"};
  }
  // The source re-routes (attempt A is aborted at dst), then comes back:
  // attempt B is a stop-and-copy finalize toward dst under a fresh nonce.
  if (!enclave->ecall_migration_precopy_round(stage.alt.address()).ok() ||
      enclave->ecall_migration_finalize(stage.dst.address()) != Status::kOk) {
    return {false, "re-routed finalize failed unexpectedly"};
  }
  // The host hands attempt B's data to attempt A's warm set.
  const Status replay = stale->ecall_migration_init(
      ByteView(), InitState::kMigrate, stage.dst.address());
  if (replay == Status::kOk) {
    return {true, "another attempt's finalize restored onto a warm set"};
  }
  stale->ecall_retire_warm_set();
  stale.reset();
  // The refusal loses nothing: once the refused instance's delivery pin
  // times out, a fresh instance restores attempt B exactly.
  world.clock().advance(stage.me_dst.delivery_takeover_timeout());
  auto fresh = make_warm_victim(stage.dst);
  if (fresh->ecall_migration_init(ByteView(), InitState::kMigrate,
                                  stage.dst.address()) != Status::kOk ||
      !serves_victim_counters(*fresh)) {
    return {false, "refused, but the honest restore failed afterwards"};
  }
  return {false, std::string("blocked: the warm set refused another "
                             "attempt's data (") +
                     std::string(status_name(replay)) + ")"};
}

AttackReport run_warm_race_attack(World& world) {
  WarmStage stage(world);
  auto enclave = start_warm_victim(stage.src);
  if (enclave == nullptr) return {false, "setup failed unexpectedly"};
  if (!enclave->ecall_migration_precopy_round(stage.dst.address()).ok()) {
    return {false, "round toward dst failed unexpectedly"};
  }
  // The host warms two instances for the one staged attempt.
  auto first = make_warm_victim(stage.dst);
  auto second = make_warm_victim(stage.dst);
  if (first->ecall_migration_warm_up(stage.dst.address()) != Status::kOk ||
      second->ecall_migration_warm_up(stage.dst.address()) != Status::kOk) {
    return {false, "warm-up failed unexpectedly"};
  }
  if (enclave->ecall_migration_finalize(stage.dst.address()) != Status::kOk) {
    return {false, "finalize failed unexpectedly"};
  }
  const Status a = first->ecall_migration_init(ByteView(), InitState::kMigrate,
                                               stage.dst.address());
  const Status b = second->ecall_migration_init(
      ByteView(), InitState::kMigrate, stage.dst.address());
  if (a == Status::kOk && b == Status::kOk) {
    return {true, "FORK: two instances restored one attempt"};
  }
  MigratableEnclave& winner = a == Status::kOk ? *first : *second;
  if (a != Status::kOk && b != Status::kOk) {
    return {false, "neither instance restored (unexpected)"};
  }
  if (!serves_victim_counters(winner)) {
    return {true, "the restored instance lost the victim's counters"};
  }
  (a == Status::kOk ? second : first)->ecall_retire_warm_set();
  return {false, std::string("blocked: one instance restored, the other "
                             "was refused (") +
                     std::string(status_name(a == Status::kOk ? b : a)) +
                     ")"};
}

AttackReport run_warm_abandoned_restore_attack(World& world) {
  WarmStage stage(world);
  auto enclave = start_warm_victim(stage.src);
  if (enclave == nullptr) return {false, "setup failed unexpectedly"};
  if (!enclave->ecall_migration_precopy_round(stage.dst.address()).ok()) {
    return {false, "round toward dst failed unexpectedly"};
  }
  auto warm = make_warm_victim(stage.dst);
  if (warm->ecall_migration_warm_up(stage.dst.address()) != Status::kOk) {
    return {false, "warm-up failed unexpectedly"};
  }
  const Bytes sealed_set = warm->sealed_state().bytes();
  // The attempt is aborted: the source re-routes to alt.
  if (!enclave->ecall_migration_precopy_round(stage.alt.address()).ok()) {
    return {false, "re-route failed unexpectedly"};
  }
  // The adversary restores the abandoned set, from memory and from disk.
  for (const Bytes& blob :
       {sealed_set, stage.dst.storage().get(kWarmStateBlob).value()}) {
    auto replay = make_warm_victim(stage.dst);
    const Status status = replay->ecall_migration_init(
        blob, InitState::kRestore, stage.dst.address());
    if (status == Status::kOk) {
      return {true, "an aborted attempt's warm set restored into a live "
                    "instance"};
    }
  }
  auto fetch = make_warm_victim(stage.dst);
  if (fetch->ecall_migration_init(ByteView(), InitState::kMigrate,
                                  stage.dst.address()) == Status::kOk) {
    return {true, "an aborted attempt restored at its old destination"};
  }
  warm->ecall_retire_warm_set();
  return {false, "blocked: the warm set's buffer carries the freeze flag "
                 "and no data was left to fetch"};
}

}  // namespace sgxmig::attacks
