#include "sgx/sealing.h"

#include "crypto/gcm.h"
#include "support/serde.h"

namespace sgxmig::sgx {

namespace {
// The AAD fed to GCM covers the key request so it cannot be swapped.
Bytes gcm_aad(KeyPolicy policy, const KeyId& key_id, ByteView user_aad) {
  BinaryWriter w;
  w.u16(static_cast<uint16_t>(policy));
  w.fixed(key_id);
  w.bytes(user_aad);
  return w.take();
}
}  // namespace

size_t sealed_blob_size(size_t aad_len, size_t plaintext_len) {
  // magic(str) + policy + key_id + aad + iv + tag + ciphertext, with the
  // u32 length prefixes from the serialization format.
  return 4 + sizeof(SealedBlob::kMagic) - 1 + 2 + 32 + 4 + aad_len + 12 + 16 +
         4 + plaintext_len;
}

namespace {
// Shared by seal_data and SealContext::seal: everything after key
// derivation, emitting the wire format unseal_data expects.
Result<Bytes> seal_with_key(const Key128& key, const KeyId& key_id,
                            KeyPolicy policy, crypto::CtrDrbg& drbg,
                            ByteView aad, ByteView plaintext) {
  Bytes iv(crypto::kGcmIvSize);
  drbg.generate(iv.data(), iv.size());

  crypto::GcmCiphertext ct =
      crypto::gcm_encrypt(ByteView(key.data(), key.size()), iv,
                          gcm_aad(policy, key_id, aad), plaintext);
  // Sized once: every Table II persist seals, and growing the buffer
  // step by step leaves the heap fragmented.
  BinaryWriter w;
  w.reserve(sealed_blob_size(aad.size(), plaintext.size()));
  write_record(w, SealedBlob{policy, key_id, to_bytes(aad), ct.iv, ct.tag,
                             std::move(ct.ciphertext)});
  return w.take();
}
}  // namespace

Result<Bytes> seal_data(const SimCpu& cpu, const EnclaveIdentity& self,
                        crypto::CtrDrbg& drbg, KeyPolicy policy, ByteView aad,
                        ByteView plaintext) {
  KeyId key_id{};
  drbg.generate(key_id.data(), key_id.size());
  const Key128 key = cpu.get_key(KeyName::kSeal, policy, self, key_id);
  return seal_with_key(key, key_id, policy, drbg, aad, plaintext);
}

SealContext::SealContext(const SimCpu& cpu, const EnclaveIdentity& self,
                         crypto::CtrDrbg& drbg, KeyPolicy policy)
    : drbg_(drbg), policy_(policy) {
  drbg.generate(key_id_.data(), key_id_.size());
  key_ = cpu.get_key(KeyName::kSeal, policy, self, key_id_);
}

Result<Bytes> SealContext::seal(ByteView aad, ByteView plaintext) {
  return seal_with_key(key_, key_id_, policy_, drbg_, aad, plaintext);
}

Result<UnsealedData> unseal_data(const SimCpu& cpu,
                                 const EnclaveIdentity& self,
                                 ByteView sealed_blob) {
  auto blob = decode_record<SealedBlob>(sealed_blob);
  if (!blob.ok()) return Status::kTampered;
  SealedBlob& b = blob.value();

  const Key128 key = cpu.get_key(KeyName::kSeal, b.policy, self, b.key_id);
  auto plaintext = crypto::gcm_decrypt(
      ByteView(key.data(), key.size()), ByteView(b.iv.data(), b.iv.size()),
      gcm_aad(b.policy, b.key_id, b.aad), b.ciphertext,
      ByteView(b.tag.data(), b.tag.size()));
  if (!plaintext.ok()) return plaintext.status();

  UnsealedData out;
  out.plaintext = std::move(plaintext).value();
  out.aad = std::move(b.aad);
  return out;
}

}  // namespace sgxmig::sgx
