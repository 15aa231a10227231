// Field arithmetic modulo p = 2^255 - 19, with 5 limbs of 51 bits
// (curve25519-donna style, using unsigned __int128 accumulation).
//
// Shared by X25519 (Montgomery ladder) and Ed25519 (Edwards curve).
// Inversion and square roots run fixed addition chains; nothing here
// branches on secret limbs, but the point code above it is variable time:
// this is a simulator, not a hardened production signer.  The simulated
// adversary is a malicious host acting through the simulated platform's
// interfaces; timing the simulator process itself is outside that model.
#pragma once

#include <cstdint>

namespace sgxmig::crypto {

struct Fe {
  uint64_t v[5];
};

namespace fe_detail {
constexpr uint64_t kMask51 = 0x7ffffffffffffULL;  // 2^51 - 1

// Carries each limb's bits above 51 into the next limb (the top limb's
// into limb 0, times 19), all from the input limbs at once: a serial chain
// is twice as slow.  Limbs below 2^54 come out below 2^52.
inline Fe carry_reduce(const uint64_t t[5]) {
  return Fe{{(t[0] & kMask51) + 19 * (t[4] >> 51),
             (t[1] & kMask51) + (t[0] >> 51), (t[2] & kMask51) + (t[1] >> 51),
             (t[3] & kMask51) + (t[2] >> 51), (t[4] & kMask51) + (t[3] >> 51)}};
}
}  // namespace fe_detail

inline Fe fe_zero() { return Fe{{0, 0, 0, 0, 0}}; }
inline Fe fe_one() { return Fe{{1, 0, 0, 0, 0}}; }
Fe fe_from_u64(uint64_t x);

inline Fe fe_add(const Fe& a, const Fe& b) {
  const uint64_t t[5] = {a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2],
                         a.v[3] + b.v[3], a.v[4] + b.v[4]};
  return fe_detail::carry_reduce(t);
}

inline Fe fe_sub(const Fe& a, const Fe& b) {
  // a + 4p - b keeps every limb positive for inputs with limbs < 2^53.
  constexpr uint64_t k4p0 = 0x1fffffffffffb4ULL;  // 4*(2^51-19)
  constexpr uint64_t k4pi = 0x1ffffffffffffcULL;  // 4*(2^51-1)
  const uint64_t t[5] = {a.v[0] + k4p0 - b.v[0], a.v[1] + k4pi - b.v[1],
                         a.v[2] + k4pi - b.v[2], a.v[3] + k4pi - b.v[3],
                         a.v[4] + k4pi - b.v[4]};
  return fe_detail::carry_reduce(t);
}

inline Fe fe_neg(const Fe& a) { return fe_sub(fe_zero(), a); }

Fe fe_mul(const Fe& a, const Fe& b);
Fe fe_sq(const Fe& a);
Fe fe_mul_small(const Fe& a, uint64_t s);  // s < 2^13

Fe fe_invert(const Fe& a);     // a^(p-2)
Fe fe_pow22523(const Fe& a);   // a^((p-5)/8), used for square roots

/// Conditionally swaps a and b when `swap` is 1 (branch-free).
void fe_cswap(Fe& a, Fe& b, uint64_t swap);

/// Decodes 32 little-endian bytes (top bit ignored, as in RFC 7748/8032).
Fe fe_frombytes(const uint8_t s[32]);
/// Encodes fully reduced (canonical) 32-byte little-endian form.
void fe_tobytes(uint8_t out[32], const Fe& f);

bool fe_is_zero(const Fe& a);
/// The "sign" used by Ed25519 encodings: lowest bit of the canonical form.
int fe_is_negative(const Fe& a);
bool fe_equal(const Fe& a, const Fe& b);

/// sqrt(-1) mod p (lazily computed constant).
const Fe& fe_sqrtm1();

}  // namespace sgxmig::crypto
