#include "apps/versioned_state.h"

#include "crypto/gcm.h"
#include "support/serde.h"

namespace sgxmig::apps {

namespace {
Bytes version_aad(uint32_t version) {
  return encode_record(VersionedAad{version});
}
}  // namespace

VersionedStateEnclave::VersionedStateEnclave(
    sgx::PlatformIface& platform,
    std::shared_ptr<const sgx::EnclaveImage> image, PersistenceMode mode,
    baseline::GuMigrationLibrary::FlagMode gu_flag_mode)
    : MigratableEnclave(platform, std::move(image)),
      mode_(mode),
      gu_library_(*this, gu_flag_mode) {}

Status VersionedStateEnclave::spin_check() const {
  // Gu et al.'s spin lock: a migrated-away enclave performs no work.
  return gu_library_.spin_locked() ? Status::kMigrationFrozen : Status::kOk;
}

Status VersionedStateEnclave::ecall_install_kdc_key(const sgx::Key128& key) {
  auto scope = enter_ecall();
  if (mode_ != PersistenceMode::kKdcSeal) return Status::kInvalidState;
  kdc_key_ = key;
  return Status::kOk;
}

Status VersionedStateEnclave::ecall_set_state(ByteView state) {
  auto scope = enter_ecall();
  const Status spin = spin_check();
  if (spin != Status::kOk) return spin;
  app_state_ = to_bytes(state);
  return Status::kOk;
}

Result<Bytes> VersionedStateEnclave::ecall_get_state() {
  auto scope = enter_ecall();
  const Status spin = spin_check();
  if (spin != Status::kOk) return spin;
  return app_state_;
}

Result<PersistedState> VersionedStateEnclave::ecall_persist() {
  auto scope = enter_ecall();
  const Status spin = spin_check();
  if (spin != Status::kOk) return spin;

  switch (mode_) {
    case PersistenceMode::kMigratable: {
      if (!migratable_counter_.has_value()) {
        auto created = library().create_migratable_counter();
        if (!created.ok()) return created.status();
        migratable_counter_ = created.value().counter_id;
      }
      auto version = library().increment_migratable_counter(*migratable_counter_);
      if (!version.ok()) return version.status();
      auto sealed = library().seal_migratable_data(
          version_aad(version.value()),
          encode_record(VersionedPayload{app_state_}));
      if (!sealed.ok()) return sealed.status();
      PersistedState out;
      out.blob = std::move(sealed).value();
      return out;
    }
    case PersistenceMode::kNativeSeal:
    case PersistenceMode::kKdcSeal: {
      // First persist on this machine: request a counter (the §III attack
      // scripts rely on exactly this "create a fresh counter on a new
      // machine" behaviour).
      if (!native_counter_.has_value()) {
        auto created = counter_create();
        if (!created.ok()) return created.status();
        native_counter_ = created.value().uuid;
      }
      auto version = counter_increment(*native_counter_);
      if (!version.ok()) return version.status();

      PersistedState out;
      out.counter_uuid = *native_counter_;
      if (mode_ == PersistenceMode::kNativeSeal) {
        auto sealed = seal(sgx::KeyPolicy::kMrEnclave,
                           version_aad(version.value()),
                           encode_record(VersionedPayload{app_state_}));
        if (!sealed.ok()) return sealed.status();
        out.blob = encode_record(NativeStateBlob{std::move(sealed).value()});
      } else {
        if (!kdc_key_.has_value()) return Status::kNotInitialized;
        Bytes iv(crypto::kGcmIvSize);
        rng().generate(iv.data(), iv.size());
        charge_gcm(app_state_.size());
        auto ct =
            crypto::gcm_encrypt(ByteView(kdc_key_->data(), kdc_key_->size()),
                                iv, version_aad(version.value()),
                                encode_record(VersionedPayload{app_state_}));
        out.blob = encode_record(KdcStateBlob{version.value(), ct.iv, ct.tag,
                                              std::move(ct.ciphertext)});
      }
      return out;
    }
  }
  return Status::kInvalidParameter;
}

Status VersionedStateEnclave::ecall_restore(ByteView blob,
                                            const sgx::CounterUuid& uuid) {
  auto scope = enter_ecall();
  const Status spin = spin_check();
  if (spin != Status::kOk) return spin;
  if (mode_ == PersistenceMode::kMigratable) return Status::kInvalidState;

  uint32_t stored_version = 0;
  Bytes payload;
  if (mode_ == PersistenceMode::kNativeSeal) {
    auto native = decode_record<NativeStateBlob>(blob);
    if (!native.ok()) return Status::kTampered;
    auto unsealed = unseal(native.value().sealed);
    if (!unsealed.ok()) return unsealed.status();
    auto aad = decode_record<VersionedAad>(unsealed.value().aad);
    if (!aad.ok()) return Status::kTampered;
    stored_version = aad.value().version;
    payload = std::move(unsealed.value().plaintext);
  } else {
    if (!kdc_key_.has_value()) return Status::kNotInitialized;
    auto kdc = decode_record<KdcStateBlob>(blob);
    if (!kdc.ok()) return Status::kTampered;
    const KdcStateBlob& b = kdc.value();
    stored_version = b.version;
    charge_gcm(b.ciphertext.size());
    auto plain = crypto::gcm_decrypt(
        ByteView(kdc_key_->data(), kdc_key_->size()),
        ByteView(b.iv.data(), b.iv.size()), version_aad(stored_version),
        b.ciphertext, ByteView(b.tag.data(), b.tag.size()));
    if (!plain.ok()) return plain.status();
    payload = std::move(plain).value();
  }

  // Roll-back check: the stored version must equal the current value of
  // the supplied machine-local counter.
  auto current = counter_read(uuid);
  if (!current.ok()) return current.status();
  if (current.value() != stored_version) return Status::kReplayDetected;

  auto state = decode_record<VersionedPayload>(payload);
  if (!state.ok()) return Status::kTampered;
  app_state_ = std::move(state.value().state);
  native_counter_ = uuid;
  return Status::kOk;
}

Status VersionedStateEnclave::ecall_restore_migratable(ByteView blob) {
  auto scope = enter_ecall();
  const Status spin = spin_check();
  if (spin != Status::kOk) return spin;
  if (mode_ != PersistenceMode::kMigratable) return Status::kInvalidState;
  auto unsealed = library().unseal_migratable_data(blob);
  if (!unsealed.ok()) return unsealed.status();
  auto aad = decode_record<VersionedAad>(unsealed.value().aad);
  if (!aad.ok()) return Status::kTampered;

  if (!migratable_counter_.has_value()) migratable_counter_ = 0;
  auto current = library().read_migratable_counter(*migratable_counter_);
  if (!current.ok()) return current.status();
  if (current.value() != aad.value().version) return Status::kReplayDetected;

  auto state = decode_record<VersionedPayload>(unsealed.value().plaintext);
  if (!state.ok()) return Status::kTampered;
  app_state_ = std::move(state.value().state);
  return Status::kOk;
}

Result<uint32_t> VersionedStateEnclave::ecall_current_version() {
  auto scope = enter_ecall();
  if (mode_ == PersistenceMode::kMigratable) {
    if (!migratable_counter_.has_value()) return Status::kCounterNotFound;
    return library().read_migratable_counter(*migratable_counter_);
  }
  if (!native_counter_.has_value()) return Status::kCounterNotFound;
  return counter_read(*native_counter_);
}

Result<Bytes> VersionedStateEnclave::ecall_export_memory_image() {
  auto scope = enter_ecall();
  return encode_record(MemoryImage{app_state_, kdc_key_});
}

Status VersionedStateEnclave::ecall_import_memory_image(ByteView image) {
  auto scope = enter_ecall();
  auto decoded = decode_record<MemoryImage>(image);
  if (!decoded.ok()) return Status::kTampered;
  app_state_ = std::move(decoded.value().app_state);
  if (decoded.value().kdc_key.has_value()) kdc_key_ = decoded.value().kdc_key;
  // The destination has no counter yet; the next persist creates one —
  // exactly the behaviour the §III scripts exploit.
  native_counter_.reset();
  return Status::kOk;
}

}  // namespace sgxmig::apps
