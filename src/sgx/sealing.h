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
/// counter op, and a batching PersistenceEngine flushes it repeatedly —
/// would otherwise re-derive the key per flush.  Blobs are wire-identical
/// to seal_data output, so unseal_data opens them; each seal still draws a
/// fresh random IV.
class SealContext {
 public:
  SealContext(const SimCpu& cpu, const EnclaveIdentity& self,
              crypto::CtrDrbg& drbg, KeyPolicy policy);

  Result<Bytes> seal(ByteView aad, ByteView plaintext);

  KeyPolicy policy() const { return policy_; }

 private:
  crypto::CtrDrbg& drbg_;
  KeyPolicy policy_;
  KeyId key_id_{};
  Key128 key_{};
};

}  // namespace sgxmig::sgx
