// AES-128 CTR deterministic random bit generator (simplified NIST
// SP 800-90A CTR_DRBG without derivation function).
//
// Inside the simulated world this stands in for RDRAND: each enclave's
// trusted runtime owns a CtrDrbg seeded from the (deterministic) world
// entropy source, so nonces, keys, and IVs are reproducible per seed yet
// unpredictable without it.
#pragma once

#include <array>
#include <cstdint>

#include "support/bytes.h"

namespace sgxmig::crypto {

class Aes;

class CtrDrbg {
 public:
  /// `seed` must be at least 32 bytes of entropy (key || V).
  explicit CtrDrbg(ByteView seed);

  void generate(uint8_t* out, size_t len);
  Bytes bytes(size_t len);

  /// Mixes additional entropy into the state.
  void reseed(ByteView entropy);

 private:
  /// The SP 800-90A update step, with `aes` keyed by the current key.
  void update(const Aes& aes, ByteView provided);
  /// An AES instance keyed by the current key.
  Aes key_schedule() const;
  void increment_v();

  std::array<uint8_t, 16> key_{};
  std::array<uint8_t, 16> v_{};
};

}  // namespace sgxmig::crypto
