// Group arithmetic on edwards25519, -x^2 + y^2 = 1 + d x^2 y^2 (RFC 8032
// §5.1), shared by Ed25519 and by X25519's fixed-base path.
//
// Scalars are 32-byte little-endian strings with s[31] <= 127, which every
// caller meets: clamped secret scalars, and values reduced mod L.  The
// scalar multiplications run signed radix-16 windows (Bernstein et al.,
// "High-speed high-security signatures", CHES 2011) and are variable time;
// see fe25519.h for why that is acceptable here.
#pragma once

#include <cstdint>

#include "crypto/fe25519.h"

namespace sgxmig::crypto {

/// A point in extended coordinates (X : Y : Z : T), x = X/Z, y = Y/Z,
/// T = XY/Z.
struct Ge {
  Fe x, y, z, t;
};

Ge ge_identity();
Ge ge_neg(const Ge& p);

/// Decompression per RFC 8032 §5.1.3.  Refuses y >= p, a y with no
/// matching x, and x = 0 with the sign bit set.
bool ge_frombytes(Ge& out, const uint8_t s[32]);
void ge_tobytes(uint8_t out[32], const Ge& p);

/// [a]B for the standard base point B, from a lazily built table of
/// [k * 256^j]B (32 rows of 8 affine points, 30 KB).
Ge ge_scalarmult_base(const uint8_t a[32]);

/// [a]P + [b]B in one joint (Straus) pass over both scalars' windows.
Ge ge_double_scalarmult(const uint8_t a[32], const Ge& p, const uint8_t b[32]);

/// True iff [8]p is the identity, i.e. p lies in the order-8 torsion.
bool ge_is_small_order(const Ge& p);

}  // namespace sgxmig::crypto
