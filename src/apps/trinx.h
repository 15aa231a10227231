// TrInX-style trusted counter service (Behl et al., Hybster [4]), rebuilt
// on the Migration Library.
//
// TrInX gives a BFT replication protocol cheap trusted counters: the
// enclave certifies (counter id, value, message) tuples with strictly
// increasing values, which lets Hybster tolerate f faults with 2f+1
// replicas instead of 3f+1.  The protocol's safety rests on the
// assumption quoted in §III: the platform "prevents undetected replay
// attacks where an adversary saves the (encrypted) state of a trusted
// subsystem and starts a new instance using the exact same state".  That
// assumption is provided here the way the paper suggests: sealed state +
// a (migratable) monotonic counter as version number.
#pragma once

#include <map>
#include <optional>

#include "crypto/ed25519.h"
#include "migration/migratable_enclave.h"

namespace sgxmig::apps {

/// A certificate binding `value` of TrInX counter `counter_id` to a
/// message hash; values are strictly increasing per counter.
struct TrinxCertificate {
  uint32_t counter_id = 0;
  uint64_t value = 0;
  std::array<uint8_t, 32> message_hash{};
  crypto::Ed25519PublicKey signer{};
  crypto::Ed25519Signature signature{};

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u32(m.counter_id);
    io.u64(m.value);
    io.fixed(m.message_hash);
    io.fixed(m.signer);
    io.fixed(m.signature);
  }
  Bytes signed_message() const;
  bool verify() const;
};

/// TrInX's sealed state: the certification key seed, every TrInX counter
/// and the id of the migratable counter that versions the state.
struct TrinxState {
  crypto::Ed25519Seed signing_seed{};
  uint32_t next_trinx_id = 0;
  std::map<uint32_t, uint64_t> counters;
  uint32_t version_counter = 0;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.fixed(m.signing_seed);
    io.u32(m.next_trinx_id);
    io.map(m.counters, 100000, [](auto& f, auto& id, auto& value) {
      f.u32(id);
      f.u64(value);
    });
    io.u32(m.version_counter);
  }
};

class TrinxEnclave : public migration::MigratableEnclave {
 public:
  TrinxEnclave(sgx::PlatformIface& platform,
               std::shared_ptr<const sgx::EnclaveImage> image)
      : MigratableEnclave(platform, std::move(image)) {}

  /// Generates the certification key and the version counter (requires
  /// ecall_migration_init first).
  Status ecall_setup();

  Result<crypto::Ed25519PublicKey> ecall_public_key();

  /// Creates a TrInX counter (application-level, lives in sealed state —
  /// distinct from SGX hardware counters, as the paper notes).
  Result<uint32_t> ecall_create_trinx_counter();

  /// Certifies `message` with the next value of `counter_id`.
  Result<TrinxCertificate> ecall_certify(uint32_t counter_id,
                                         ByteView message);

  Result<uint64_t> ecall_counter_value(uint32_t counter_id);

  /// Persists all TrInX counters under a fresh version (rollback
  /// protection); restores only the latest version.
  Result<Bytes> ecall_persist();
  Status ecall_restore(ByteView blob);

 private:
  bool setup_done_ = false;
  TrinxState state_;
  std::optional<crypto::Ed25519KeyPair> signing_key_;
};

}  // namespace sgxmig::apps
