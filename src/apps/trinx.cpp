#include "apps/trinx.h"

#include "apps/state_version.h"
#include "crypto/sha256.h"
#include "support/serde.h"

namespace sgxmig::apps {

namespace {
constexpr char kCertLabel[] = "TRINX-CERT-v1";
constexpr char kStateLabel[] = "trinx-state";
}  // namespace

Bytes TrinxCertificate::signed_message() const {
  BinaryWriter w;
  w.str(kCertLabel);
  w.u32(counter_id);
  w.u64(value);
  w.fixed(message_hash);
  w.fixed(signer);
  return w.take();
}

bool TrinxCertificate::verify() const {
  return crypto::ed25519_verify(signer, signed_message(), signature);
}

TrinxEnclave::TrinxEnclave(sgx::PlatformIface& platform,
                           std::shared_ptr<const sgx::EnclaveImage> image,
                           migration::PersistenceMode persistence)
    : MigratableEnclave(platform, std::move(image), persistence) {}

Status TrinxEnclave::ecall_setup() {
  auto scope = enter_ecall();
  if (setup_done_) return Status::kAlreadyExists;
  rng().generate(state_.signing_seed.data(), state_.signing_seed.size());
  signing_key_ = crypto::Ed25519KeyPair::from_seed(state_.signing_seed);
  auto counter = library().create_migratable_counter();
  if (!counter.ok()) return counter.status();
  state_.version_counter = counter.value().counter_id;
  setup_done_ = true;
  return Status::kOk;
}

Result<crypto::Ed25519PublicKey> TrinxEnclave::ecall_public_key() {
  auto scope = enter_ecall();
  if (!setup_done_) return Status::kNotInitialized;
  return signing_key_->public_key();
}

Result<uint32_t> TrinxEnclave::ecall_create_trinx_counter() {
  auto scope = enter_ecall();
  if (!setup_done_) return Status::kNotInitialized;
  if (library().frozen()) return Status::kMigrationFrozen;
  const uint32_t id = state_.next_trinx_id++;
  state_.counters[id] = 0;
  return id;
}

Result<TrinxCertificate> TrinxEnclave::ecall_certify(uint32_t counter_id,
                                                     ByteView message) {
  auto scope = enter_ecall();
  if (!setup_done_) return Status::kNotInitialized;
  if (library().frozen()) return Status::kMigrationFrozen;
  const auto it = state_.counters.find(counter_id);
  if (it == state_.counters.end()) return Status::kCounterNotFound;
  ++it->second;

  TrinxCertificate cert;
  cert.counter_id = counter_id;
  cert.value = it->second;
  cert.message_hash = crypto::Sha256::hash(message);
  cert.signer = signing_key_->public_key();
  cert.signature = signing_key_->sign(cert.signed_message());
  return cert;
}

Result<uint64_t> TrinxEnclave::ecall_counter_value(uint32_t counter_id) {
  auto scope = enter_ecall();
  const auto it = state_.counters.find(counter_id);
  if (it == state_.counters.end()) return Status::kCounterNotFound;
  return it->second;
}

Result<Bytes> TrinxEnclave::ecall_persist() {
  auto scope = enter_ecall();
  if (!setup_done_) return Status::kNotInitialized;
  auto version = library().increment_migratable_counter(state_.version_counter);
  if (!version.ok()) return version.status();
  return library().seal_migratable_data(
      encode_record(StateVersion{kStateLabel, version.value()}),
      encode_record(state_));
}

Status TrinxEnclave::ecall_restore(ByteView blob) {
  auto scope = enter_ecall();
  if (setup_done_) return Status::kInvalidState;
  auto unsealed = library().unseal_migratable_data(blob);
  if (!unsealed.ok()) return unsealed.status();
  auto stored_version = state_version(unsealed.value().aad, kStateLabel);
  if (!stored_version.ok()) return stored_version.status();
  auto state = decode_record<TrinxState>(unsealed.value().plaintext);
  if (!state.ok()) return state.status();

  auto current =
      library().read_migratable_counter(state.value().version_counter);
  if (!current.ok()) return current.status();
  if (current.value() != stored_version.value()) {
    return Status::kReplayDetected;
  }
  state_ = std::move(state).value();
  signing_key_ = crypto::Ed25519KeyPair::from_seed(state_.signing_seed);
  setup_done_ = true;
  return Status::kOk;
}

}  // namespace sgxmig::apps
