// AES-CMAC (RFC 4493 / NIST SP 800-38B).
//
// SGX uses CMAC with the report key to MAC local-attestation REPORTs
// (EREPORT), and CMAC-based KDFs in EGETKEY; the simulated SGX layer does
// the same.
#pragma once

#include <array>

#include "crypto/aes.h"
#include "support/bytes.h"

namespace sgxmig::crypto {

using CmacTag = std::array<uint8_t, 16>;

/// CMAC under one key: the AES key schedule and the two subkeys are
/// derived once, so a key that MACs many messages expands once.
class Cmac {
 public:
  /// `key` is an AES key (16, 24, or 32 bytes).
  explicit Cmac(ByteView key);

  CmacTag mac(ByteView message) const;

 private:
  Aes aes_;
  uint8_t k1_[16];  // subkey for a complete final block
  uint8_t k2_[16];  // subkey for a padded final block
};

/// One-shot CMAC: Cmac(key).mac(message).
CmacTag aes_cmac(ByteView key, ByteView message);

}  // namespace sgxmig::crypto
