// Deterministic pseudo-randomness for the simulation.
//
// This generator (xoshiro256**) seeds everything that is random in the
// simulated world — CPU secrets, nonces via the crypto DRBG, and latency
// jitter — so that every test and benchmark run is reproducible from a
// single seed.  It is NOT a cryptographic generator by itself; enclaves
// draw their randomness from crypto::CtrDrbg, which is seeded from here
// to stand in for RDRAND.
#pragma once

#include <cstdint>

#include "support/bytes.h"

namespace sgxmig {

class Rng {
 public:
  explicit Rng(uint64_t seed);

  uint64_t next_u64();
  uint32_t next_u32();

  /// Uniform in [0, bound). bound must be > 0.
  uint64_t uniform(uint64_t bound);

  /// Uniform double in [0, 1).
  double uniform_double();

  /// Standard normal via the Marsaglia polar method.
  double gaussian();

  /// Multiplicative jitter factor: max(0.05, 1 + sigma * N(0,1)).
  double jitter(double sigma);

  void fill(uint8_t* out, size_t len);
  Bytes bytes(size_t len);

 private:
  uint64_t state_[4];
  bool have_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

}  // namespace sgxmig
