// AES-GCM authenticated encryption (NIST SP 800-38D).
//
// This is the algorithm behind SGX's sgx_seal_data (the SDK uses
// AES-128-GCM via sgx_rijndael128GCM_encrypt); every sealed blob, secure
// channel record, and migration-data payload in this repo goes through it.
//
// Three kernels implement it (crypto/gcm_kernels.h), chosen once per
// process from CPUID, with no option to override, and the same choice
// crypto::Aes makes for CMAC and the DRBG: on x86-64 with AVX2, VAES and
// VPCLMULQDQ, 256-bit vaesenc CTR and vpclmulqdq GHASH over 256-byte
// strides; else, with AES-NI, PCLMULQDQ and SSSE3, AES-NI rounds and
// carry-less GHASH, as on the paper's SGX hardware; elsewhere the portable
// T-table AES and Shoup 4-bit GHASH, which the tests also run everywhere
// as the reference the hardware kernels must match byte for byte.
// Virtual time comes from the cost model (aes_gcm_ns_per_byte), never
// from which kernel ran.
#pragma once

#include <optional>

#include "support/bytes.h"
#include "support/status.h"

namespace sgxmig::crypto {

constexpr size_t kGcmIvSize = 12;
constexpr size_t kGcmTagSize = 16;

struct GcmCiphertext {
  std::array<uint8_t, kGcmIvSize> iv{};
  std::array<uint8_t, kGcmTagSize> tag{};
  Bytes ciphertext;
};

/// Encrypts `plaintext` with AES-GCM.  `key` must be 16 or 32 bytes; `iv`
/// must be exactly 12 bytes (the caller is responsible for uniqueness).
GcmCiphertext gcm_encrypt(ByteView key, ByteView iv, ByteView aad,
                          ByteView plaintext);

/// gcm_encrypt into caller-owned memory: the ciphertext over
/// `plaintext.size()` bytes at `ciphertext` and the tag at `tag`.
/// `ciphertext` is `plaintext.data()` (encrypting in place) or does not
/// overlap `plaintext`; neither output may overlap `iv` or `aad`.
void gcm_encrypt_into(ByteView key, ByteView iv, ByteView aad,
                      ByteView plaintext, uint8_t* ciphertext,
                      uint8_t tag[kGcmTagSize]);

/// Decrypts and authenticates.  Returns kMacMismatch if the tag (over the
/// AAD and ciphertext) does not verify; no plaintext is released then.
Result<Bytes> gcm_decrypt(ByteView key, ByteView iv, ByteView aad,
                          ByteView ciphertext, ByteView tag);

}  // namespace sgxmig::crypto
