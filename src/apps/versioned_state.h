// The persistence pattern shared by Teechan [3] and TrInX/Hybster [4], and
// the target of the paper's §III attacks:
//
//   "increment a hardware counter and seal the new counter value along
//    with the enclave's state as a version number.  When the enclave is
//    restarted, it only accepts sealed data whose version number matches
//    the current hardware counter value."
//
// Three persistence modes cover the paper's scenarios:
//  * kNativeSeal — standard SGX sealing + native counter.  Secure on one
//    machine; sealed data is LOST on migration (machine-bound key).
//  * kKdcSeal — state encrypted under a key from an external KDC (e.g.
//    AWS KMS, §III-C), so ciphertexts decrypt on any machine; version
//    protection still relies on the native (machine-local) counter.
//    This is the configuration the §III-C roll-back attack breaks when
//    migrated without counter migration.
//  * kMigratable — this paper's scheme: MSK sealing + migratable counter.
//
// The enclave also supports Gu et al.-style memory export/import so the
// attack harness can migrate it with the baseline mechanism.
#pragma once

#include <optional>

#include "baseline/gu_migration.h"
#include "migration/migratable_enclave.h"

namespace sgxmig::apps {

enum class PersistenceMode : uint8_t {
  kNativeSeal = 1,
  kKdcSeal = 2,
  kMigratable = 3,
};

/// Largest application state a blob carries.
inline constexpr size_t kMaxVersionedState = 1u << 24;

/// The plaintext every mode seals: the application state.
struct VersionedPayload {
  Bytes state;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.bytes(m.state, kMaxVersionedState);
  }
};

/// The AAD every mode seals under: the counter version.
struct VersionedAad {
  uint32_t version = 0;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u32(m.version);
  }
};

/// kNativeSeal's blob: a standard sealed blob behind the mode's magic.
struct NativeStateBlob {
  Bytes sealed;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.magic("VERSIONED-STATE-v1", 64);
    io.bytes(m.sealed, kMaxVersionedState);
  }
};

/// kKdcSeal's blob: the version in the clear (GCM authenticates it as the
/// AAD) and the payload under the KDC key.
struct KdcStateBlob {
  uint32_t version = 0;
  std::array<uint8_t, 12> iv{};
  std::array<uint8_t, 16> tag{};
  Bytes ciphertext;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.magic("VERSIONED-STATE-KDC-v1", 64);
    io.u32(m.version);
    io.fixed(m.iv);
    io.fixed(m.tag);
    io.bytes(m.ciphertext, kMaxVersionedState);
  }
};

/// What Gu et al.'s mechanism copies out of the EPC: the application
/// state and the KDC key.
struct MemoryImage {
  Bytes app_state;
  std::optional<sgx::Key128> kdc_key;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.bytes(m.app_state, kMaxVersionedState);
    io.optional(m.kdc_key, [](auto& f, auto& key) { f.fixed(key); });
  }
};

/// Result of a persist operation: the blob to store, plus (for native/KDC
/// modes) the machine-local counter UUID the application must remember —
/// the UUID is not secret, only a name.
struct PersistedState {
  Bytes blob;
  sgx::CounterUuid counter_uuid{};
};

class VersionedStateEnclave : public migration::MigratableEnclave {
 public:
  VersionedStateEnclave(
      sgx::PlatformIface& platform,
      std::shared_ptr<const sgx::EnclaveImage> image, PersistenceMode mode,
      baseline::GuMigrationLibrary::FlagMode gu_flag_mode =
          baseline::GuMigrationLibrary::FlagMode::kVolatile);

  /// For kKdcSeal: installs the externally provisioned encryption key
  /// (modeled as already delivered via remote attestation from the KDC).
  Status ecall_install_kdc_key(const sgx::Key128& key);

  // ----- application state (lives in enclave memory) -----
  Status ecall_set_state(ByteView state);
  Result<Bytes> ecall_get_state();

  // ----- versioned persistence (the §III pattern) -----
  /// Increments the version counter and seals {state, version}.
  Result<PersistedState> ecall_persist();
  /// Restores from a blob.  For native/KDC modes the application supplies
  /// the UUID of this machine's counter; the version in the blob must
  /// equal the counter's current value, else kReplayDetected.
  Status ecall_restore(ByteView blob, const sgx::CounterUuid& counter_uuid);
  /// Migratable-mode restore (the counter lives in the Migration Library).
  Status ecall_restore_migratable(ByteView blob);

  Result<uint32_t> ecall_current_version();

  // ----- Gu et al.-style memory migration support -----
  baseline::GuMigrationLibrary& gu_library() { return gu_library_; }
  /// Serializes the enclave's in-memory state (app state, counter handle,
  /// KDC key) — what Gu et al.'s mechanism would copy out of the EPC.
  Result<Bytes> ecall_export_memory_image();
  Status ecall_import_memory_image(ByteView image);

 private:
  Status spin_check() const;

  PersistenceMode mode_;
  baseline::GuMigrationLibrary gu_library_;
  Bytes app_state_;
  std::optional<sgx::Key128> kdc_key_;
  // Native/KDC-mode version counter (on the current machine).
  std::optional<sgx::CounterUuid> native_counter_;
  // Migratable-mode version counter id.
  std::optional<uint32_t> migratable_counter_;
};

}  // namespace sgxmig::apps
