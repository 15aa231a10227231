#include "sgx/sealing.h"

#include "crypto/gcm.h"
#include "support/serde.h"

namespace sgxmig::sgx {

namespace {
// Where a blob's key request (policy, key id and the length-prefixed AAD)
// starts: after the magic's u32 length and bytes.  The key request is
// also the AAD fed to GCM, so it cannot be swapped.
constexpr size_t kKeyRequestAt = 4 + sizeof(SealedBlob::kMagic) - 1;

constexpr size_t key_request_size(size_t aad_len) {
  return 2 + sizeof(KeyId) + 4 + aad_len;
}
}  // namespace

size_t sealed_blob_size(size_t aad_len, size_t plaintext_len) {
  // magic(str) + key request + iv + tag + ciphertext, with the u32 length
  // prefixes from the serialization format.
  return kKeyRequestAt + key_request_size(aad_len) + crypto::kGcmIvSize +
         crypto::kGcmTagSize + 4 + plaintext_len;
}

void encrypt_laid_out_blob(const Key128& key, size_t aad_len, Bytes& blob) {
  // The key request, then the IV, the tag, the ciphertext's u32 length and
  // the ciphertext, which runs to the end.
  const size_t iv_at = kKeyRequestAt + key_request_size(aad_len);
  const size_t tag_at = iv_at + crypto::kGcmIvSize;
  const size_t ciphertext_at = tag_at + crypto::kGcmTagSize + 4;
  uint8_t* ciphertext = blob.data() + ciphertext_at;
  crypto::gcm_encrypt_into(
      ByteView(key.data(), key.size()),
      ByteView(blob).subspan(iv_at, crypto::kGcmIvSize),
      ByteView(blob).subspan(kKeyRequestAt, key_request_size(aad_len)),
      ByteView(ciphertext, blob.size() - ciphertext_at), ciphertext,
      blob.data() + tag_at);
}

Result<Bytes> seal_data(const SimCpu& cpu, const EnclaveIdentity& self,
                        crypto::CtrDrbg& drbg, KeyPolicy policy, ByteView aad,
                        ByteView plaintext) {
  KeyId key_id{};
  drbg.generate(key_id.data(), key_id.size());
  const Key128 key = cpu.get_key(KeyName::kSeal, policy, self, key_id);
  return seal_payload(key, key_id, policy, drbg, aad, plaintext);
}

SealContext::SealContext(const SimCpu& cpu, const EnclaveIdentity& self,
                         crypto::CtrDrbg& drbg, KeyPolicy policy)
    : drbg_(drbg), policy_(policy) {
  drbg.generate(key_id_.data(), key_id_.size());
  key_ = cpu.get_key(KeyName::kSeal, policy, self, key_id_);
}

Result<Bytes> SealContext::seal(ByteView aad, ByteView plaintext) {
  return seal_payload(key_, key_id_, policy_, drbg_, aad, plaintext);
}

Result<UnsealedData> unseal_data(const SimCpu& cpu,
                                 const EnclaveIdentity& self,
                                 ByteView sealed_blob) {
  auto blob = decode_record<SealedBlob>(sealed_blob);
  if (!blob.ok()) return Status::kTampered;
  SealedBlob& b = blob.value();

  const Key128 key = cpu.get_key(KeyName::kSeal, b.policy, self, b.key_id);
  // It decoded, so its magic is SealedBlob's and the key request sits at
  // kKeyRequestAt.
  auto plaintext = crypto::gcm_decrypt(
      ByteView(key.data(), key.size()), ByteView(b.iv.data(), b.iv.size()),
      sealed_blob.subspan(kKeyRequestAt, key_request_size(b.aad.size())),
      b.ciphertext, ByteView(b.tag.data(), b.tag.size()));
  if (!plaintext.ok()) return plaintext.status();

  UnsealedData out;
  out.plaintext = std::move(plaintext).value();
  out.aad = std::move(b.aad);
  return out;
}

}  // namespace sgxmig::sgx
