// SGX sealing: sgx_seal_data / sgx_unseal_data equivalents.
//
// The sealed blob mirrors sgx_sealed_data_t: a key request (policy +
// random key id), authenticated additional text (AAD), and an AES-GCM
// payload.  The sealing key comes from EGETKEY, so it is bound to BOTH the
// enclave identity and the machine's CPU secret — sealed data produced on
// one machine cannot be unsealed on another, which is precisely the
// persistent-state problem the paper addresses.
#pragma once

#include "crypto/drbg.h"
#include "sgx/cpu.h"
#include "sgx/types.h"
#include "support/bytes.h"
#include "support/serde.h"
#include "support/status.h"

namespace sgxmig::sgx {

/// The serialized sealed blob: the key request (policy + key id), the AAD,
/// and the AES-GCM payload.
struct SealedBlob {
  static constexpr char kMagic[] = "SGXMIG-SEALED-v1";

  KeyPolicy policy = KeyPolicy::kMrEnclave;
  KeyId key_id{};
  Bytes aad;
  std::array<uint8_t, 12> iv{};
  std::array<uint8_t, 16> tag{};
  Bytes ciphertext;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.magic(kMagic, 64);
    io.u16(m.policy);
    io.require(m.policy == KeyPolicy::kMrEnclave ||
               m.policy == KeyPolicy::kMrSigner);
    io.fixed(m.key_id);
    io.bytes(m.aad, BinaryReader::kDefaultMaxLen);
    io.fixed(m.iv);
    io.fixed(m.tag);
    io.bytes(m.ciphertext, BinaryReader::kDefaultMaxLen);
  }
};

/// A SealedBlob's members as views: seals lay a blob out through
/// SealedBlob's field list, allocated once at its final size, with the
/// payload (plaintext bytes, or an EncodedRecord written in place) where
/// the ciphertext goes, then encrypt it there.
template <class Payload>
struct SealedBlobLayout {
  KeyPolicy policy = KeyPolicy::kMrEnclave;
  KeyId key_id{};
  ByteView aad;
  std::array<uint8_t, 12> iv{};
  std::array<uint8_t, 16> tag{};
  Payload ciphertext;
};

/// Encrypts in place the payload of a blob laid out from a
/// SealedBlobLayout with `aad_len` bytes of AAD, under its own IV, and
/// writes the tag into its slot.
void encrypt_laid_out_blob(const Key128& key, size_t aad_len, Bytes& blob);

/// Everything a seal does after key derivation: draws the IV, lays the
/// blob out and encrypts it, emitting the wire format unseal_data expects.
template <class Payload>
Bytes seal_payload(const Key128& key, const KeyId& key_id, KeyPolicy policy,
                   crypto::CtrDrbg& drbg, ByteView aad,
                   const Payload& payload) {
  SealedBlobLayout<Payload> layout{policy, key_id, aad, {}, {}, payload};
  drbg.generate(layout.iv.data(), layout.iv.size());
  Bytes blob = encode_record_as<SealedBlob>(layout);
  encrypt_laid_out_blob(key, aad.size(), blob);
  return blob;
}

struct UnsealedData {
  Bytes plaintext;
  Bytes aad;  // the additional MAC text, integrity-protected but readable
};

/// Seals `plaintext` (+ authenticated `aad`) for the enclave identified by
/// `self` under `policy`, on the machine owning `cpu`.  `drbg` supplies the
/// random key id and IV.  Returns the serialized sealed blob.
Result<Bytes> seal_data(const SimCpu& cpu, const EnclaveIdentity& self,
                        crypto::CtrDrbg& drbg, KeyPolicy policy, ByteView aad,
                        ByteView plaintext);

/// Unseals a blob produced by seal_data.  The key is re-derived from the
/// *caller's* identity (`self`), exactly like the SDK: a different enclave
/// (or the same enclave on a different machine) derives a different key and
/// gets kMacMismatch.
Result<UnsealedData> unseal_data(const SimCpu& cpu, const EnclaveIdentity& self,
                                 ByteView sealed_blob);

/// Size of the serialized sealed blob for a given payload (used by cost
/// accounting and by callers sizing buffers, like sgx_calc_sealed_data_size).
size_t sealed_blob_size(size_t aad_len, size_t plaintext_len);

/// Reusable sealing context: derives the sealing key ONCE (one EGETKEY /
/// key id) and reuses it for repeated seals.  Hot persist paths — the
/// Migration Library re-seals its Table II buffer on every mutating
/// counter op, the Migration Enclave its queue on every transition —
/// would otherwise re-derive the key per write.  Blobs are wire-identical
/// to seal_data output, so unseal_data opens them; each seal still draws a
/// fresh random IV.
class SealContext {
 public:
  SealContext(const SimCpu& cpu, const EnclaveIdentity& self,
              crypto::CtrDrbg& drbg, KeyPolicy policy);

  Result<Bytes> seal(ByteView aad, ByteView plaintext);
  /// seal(aad, encode_record(record)), with the record encoded straight
  /// into the blob where its ciphertext goes and encrypted there: no
  /// plaintext copy is made, so none is left behind in freed heap.
  template <class T>
  Result<Bytes> seal_record(ByteView aad, const T& record) {
    return seal_payload(key_, key_id_, policy_, drbg_, aad,
                        EncodedRecord<T>{record});
  }

  KeyPolicy policy() const { return policy_; }

 private:
  crypto::CtrDrbg& drbg_;
  KeyPolicy policy_;
  KeyId key_id_{};
  Key128 key_{};
};

}  // namespace sgxmig::sgx
