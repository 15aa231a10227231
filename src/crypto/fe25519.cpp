#include "crypto/fe25519.h"

#include <cstring>

#include "support/bytes.h"

namespace sgxmig::crypto {

namespace {
using u128 = unsigned __int128;
using fe_detail::carry_reduce;
using fe_detail::kMask51;

// Carries 128-bit column sums (each < 2^115) back into 51-bit limbs.
// Inlined: as a call, passing ten 64-bit halves costs as much as the carry.
[[gnu::always_inline]] inline Fe carry_wide(u128 t0, u128 t1, u128 t2,
                                            u128 t3, u128 t4) {
  Fe r;
  uint64_t c;
  r.v[0] = (uint64_t)t0 & kMask51; c = (uint64_t)(t0 >> 51);
  t1 += c; r.v[1] = (uint64_t)t1 & kMask51; c = (uint64_t)(t1 >> 51);
  t2 += c; r.v[2] = (uint64_t)t2 & kMask51; c = (uint64_t)(t2 >> 51);
  t3 += c; r.v[3] = (uint64_t)t3 & kMask51; c = (uint64_t)(t3 >> 51);
  t4 += c; r.v[4] = (uint64_t)t4 & kMask51; c = (uint64_t)(t4 >> 51);
  r.v[0] += c * 19;
  c = r.v[0] >> 51;
  r.v[0] &= kMask51;
  r.v[1] += c;
  return r;
}

// a^(2^n): n successive squarings.  Kept out of line: inlined at the
// chains' ten call sites it only grows the code.
[[gnu::noinline]] Fe fe_sq_n(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = fe_sq(a);
  return a;
}

// The shared head of the inversion and square-root addition chains
// (RFC 7748 / ref10): returns a^(2^250 - 1) and sets a11 = a^11.
Fe fe_pow_2_250_1(const Fe& a, Fe& a11) {
  const Fe a2 = fe_sq(a);
  const Fe a9 = fe_mul(fe_sq_n(a2, 2), a);
  a11 = fe_mul(a9, a2);
  const Fe e5 = fe_mul(fe_sq(a11), a9);             // 2^5 - 1
  const Fe e10 = fe_mul(fe_sq_n(e5, 5), e5);        // 2^10 - 1
  const Fe e20 = fe_mul(fe_sq_n(e10, 10), e10);     // 2^20 - 1
  const Fe e40 = fe_mul(fe_sq_n(e20, 20), e20);     // 2^40 - 1
  const Fe e50 = fe_mul(fe_sq_n(e40, 10), e10);     // 2^50 - 1
  const Fe e100 = fe_mul(fe_sq_n(e50, 50), e50);    // 2^100 - 1
  const Fe e200 = fe_mul(fe_sq_n(e100, 100), e100); // 2^200 - 1
  return fe_mul(fe_sq_n(e200, 50), e50);            // 2^250 - 1
}
}  // namespace

Fe fe_from_u64(uint64_t x) {
  const uint64_t t[5] = {x, 0, 0, 0, 0};
  return carry_reduce(t);
}

Fe fe_mul(const Fe& a, const Fe& b) {
  // Products that wrap past 2^255 take the factor 19 on b's limb, which
  // stays below 2^57 for the < 2^52 limbs every field operation returns.
  const uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3], b4 = b.v[4];
  const uint64_t b1_19 = 19 * b1, b2_19 = 19 * b2, b3_19 = 19 * b3,
                 b4_19 = 19 * b4;

  const u128 t0 = (u128)a0 * b0 + (u128)a1 * b4_19 + (u128)a2 * b3_19 +
                  (u128)a3 * b2_19 + (u128)a4 * b1_19;
  const u128 t1 = (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2 * b4_19 +
                  (u128)a3 * b3_19 + (u128)a4 * b2_19;
  const u128 t2 = (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 +
                  (u128)a3 * b4_19 + (u128)a4 * b3_19;
  const u128 t3 = (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 +
                  (u128)a3 * b0 + (u128)a4 * b4_19;
  const u128 t4 = (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 +
                  (u128)a3 * b1 + (u128)a4 * b0;
  return carry_wide(t0, t1, t2, t3, t4);
}

Fe fe_sq(const Fe& a) {
  // fe_mul(a, a) with the symmetric cross products merged: 15 products.
  const uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const uint64_t d0 = 2 * a0, d1 = 2 * a1;
  const uint64_t a3_19 = 19 * a3, a4_19 = 19 * a4;
  const u128 t0 =
      (u128)a0 * a0 + (u128)(2 * a4_19) * a1 + (u128)(2 * a3_19) * a2;
  const u128 t1 = (u128)d0 * a1 + (u128)(2 * a4_19) * a2 + (u128)a3_19 * a3;
  const u128 t2 = (u128)d0 * a2 + (u128)a1 * a1 + (u128)(2 * a4_19) * a3;
  const u128 t3 = (u128)d0 * a3 + (u128)d1 * a2 + (u128)a4_19 * a4;
  const u128 t4 = (u128)d0 * a4 + (u128)d1 * a3 + (u128)a2 * a2;
  return carry_wide(t0, t1, t2, t3, t4);
}

Fe fe_mul_small(const Fe& a, uint64_t s) {
  u128 t;
  Fe r;
  uint64_t c = 0;
  for (int i = 0; i < 5; ++i) {
    t = (u128)a.v[i] * s + c;
    r.v[i] = (uint64_t)t & kMask51;
    c = (uint64_t)(t >> 51);
  }
  r.v[0] += c * 19;
  c = r.v[0] >> 51;
  r.v[0] &= kMask51;
  r.v[1] += c;
  return r;
}

Fe fe_invert(const Fe& a) {
  // p - 2 = 2^255 - 21 = (2^250 - 1) * 2^5 + 11.
  Fe a11{};
  const Fe e250 = fe_pow_2_250_1(a, a11);
  return fe_mul(fe_sq_n(e250, 5), a11);
}

Fe fe_pow22523(const Fe& a) {
  // (p - 5) / 8 = 2^252 - 3 = (2^250 - 1) * 2^2 + 1.
  Fe a11{};
  const Fe e250 = fe_pow_2_250_1(a, a11);
  return fe_mul(fe_sq_n(e250, 2), a);
}

void fe_cswap(Fe& a, Fe& b, uint64_t swap) {
  const uint64_t mask = 0 - swap;  // 0 or all-ones
  for (int i = 0; i < 5; ++i) {
    const uint64_t x = mask & (a.v[i] ^ b.v[i]);
    a.v[i] ^= x;
    b.v[i] ^= x;
  }
}

Fe fe_frombytes(const uint8_t s[32]) {
  Fe out;
  out.v[0] = load_le64(s) & kMask51;
  out.v[1] = (load_le64(s + 6) >> 3) & kMask51;
  out.v[2] = (load_le64(s + 12) >> 6) & kMask51;
  out.v[3] = (load_le64(s + 19) >> 1) & kMask51;
  out.v[4] = (load_le64(s + 24) >> 12) & kMask51;
  return out;
}

void fe_tobytes(uint8_t out[32], const Fe& f) {
  Fe t = carry_reduce(f.v);
  t = carry_reduce(t.v);
  // Compute q = floor((t + 19) / 2^255) ∈ {0, 1}: 1 iff t >= p.
  uint64_t q = (t.v[0] + 19) >> 51;
  q = (t.v[1] + q) >> 51;
  q = (t.v[2] + q) >> 51;
  q = (t.v[3] + q) >> 51;
  q = (t.v[4] + q) >> 51;
  // Subtract p by adding 19q and dropping the 2^255 bit.
  t.v[0] += 19 * q;
  for (int i = 0; i < 4; ++i) {
    t.v[i + 1] += t.v[i] >> 51;
    t.v[i] &= kMask51;
  }
  t.v[4] &= kMask51;

  // Pack 5 x 51 bits little-endian.  The accumulator never holds more
  // than 7 + 51 = 58 bits, so the shifts below cannot overflow.
  uint8_t buf[40] = {0};
  uint64_t acc = 0;
  int acc_bits = 0;
  int pos = 0;
  for (int i = 0; i < 5; ++i) {
    acc |= t.v[i] << acc_bits;
    acc_bits += 51;
    while (acc_bits >= 8) {
      buf[pos++] = static_cast<uint8_t>(acc);
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  while (acc_bits > 0) {
    buf[pos++] = static_cast<uint8_t>(acc);
    acc >>= 8;
    acc_bits -= 8;
  }
  std::memcpy(out, buf, 32);
}

bool fe_is_zero(const Fe& a) {
  uint8_t bytes[32];
  fe_tobytes(bytes, a);
  uint8_t acc = 0;
  for (uint8_t b : bytes) acc |= b;
  return acc == 0;
}

int fe_is_negative(const Fe& a) {
  uint8_t bytes[32];
  fe_tobytes(bytes, a);
  return bytes[0] & 1;
}

bool fe_equal(const Fe& a, const Fe& b) {
  uint8_t ab[32], bb[32];
  fe_tobytes(ab, a);
  fe_tobytes(bb, b);
  return constant_time_eq(ByteView(ab, 32), ByteView(bb, 32));
}

const Fe& fe_sqrtm1() {
  // sqrt(-1) = 2^((p-1)/4) mod p, and (p-1)/4 = 2 * (p-5)/8 + 1.
  static const Fe value = [] {
    const Fe two = fe_from_u64(2);
    return fe_mul(fe_sq(fe_pow22523(two)), two);
  }();
  return value;
}

}  // namespace sgxmig::crypto
