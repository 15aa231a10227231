// AES-GCM authenticated encryption (NIST SP 800-38D).
//
// This is the algorithm behind SGX's sgx_seal_data (the SDK uses
// AES-128-GCM via sgx_rijndael128GCM_encrypt); every sealed blob, secure
// channel record, and migration-data payload in this repo goes through it.
//
// Two kernels implement it (crypto/gcm_kernels.h), chosen once per
// process from CPUID, with no option to override, and the same choice
// crypto::Aes makes for CMAC and the DRBG: on x86-64 with AES-NI,
// PCLMULQDQ and SSSE3, an AES-NI key schedule and rounds and carry-less
// GHASH, as on the paper's SGX hardware; elsewhere the portable T-table
// AES and Shoup 4-bit GHASH, which the tests also run everywhere as the
// reference the hardware kernel must match byte for byte.  Virtual time
// comes from the cost model (aes_gcm_ns_per_byte), never from which
// kernel ran.
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

/// Decrypts and authenticates.  Returns kMacMismatch if the tag (over the
/// AAD and ciphertext) does not verify; no plaintext is released then.
Result<Bytes> gcm_decrypt(ByteView key, ByteView iv, ByteView aad,
                          ByteView ciphertext, ByteView tag);

}  // namespace sgxmig::crypto
