// Scalar arithmetic modulo the Ed25519 group order
// L = 2^252 + 27742317777372353535851937790883648493.
//
// Reduction folds in one byte at a time, subtracting the quotient digit
// times L; multiplication is schoolbook with 128-bit accumulation.
#pragma once

#include <array>
#include <cstdint>

#include "support/bytes.h"

namespace sgxmig::crypto {

/// A scalar in [0, L), little-endian 64-bit limbs.
struct Sc {
  uint64_t v[4];
};

Sc sc_zero();

/// Reduces a little-endian byte string (any length <= 64) mod L.
Sc sc_from_bytes(ByteView bytes);

/// (a * b + c) mod L.
Sc sc_muladd(const Sc& a, const Sc& b, const Sc& c);

/// (a + b) mod L.
Sc sc_add(const Sc& a, const Sc& b);

void sc_tobytes(uint8_t out[32], const Sc& s);

/// True iff the 32-byte little-endian value is < L (canonical S check for
/// signature verification, RFC 8032 §5.1.7).
bool sc_is_canonical(const uint8_t bytes[32]);

}  // namespace sgxmig::crypto
