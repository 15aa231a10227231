#include "crypto/sc25519.h"

#include <cstring>

namespace sgxmig::crypto {

namespace {
using u128 = unsigned __int128;

constexpr uint64_t kL[4] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0,
                            0x1000000000000000ULL};

// True iff a >= L.
bool ge_l(const uint64_t a[4]) {
  for (int i = 3; i >= 0; --i) {
    if (a[i] > kL[i]) return true;
    if (a[i] < kL[i]) return false;
  }
  return true;  // equal
}

void sub_l(uint64_t a[4]) {
  unsigned __int128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 diff = (u128)a[i] - kL[i] - (uint64_t)borrow;
    a[i] = (uint64_t)diff;
    borrow = (diff >> 64) & 1;  // 1 if borrowed
  }
}

// r = (256 r + byte) mod L; requires r < L on entry.  With x = 256 r + byte
// < 2^261 and q = floor(x / 2^252) < 2^9, x - qL = (x mod 2^252) - q*delta
// for delta = L - 2^252 < 2^125.  That lies in (-L, L), so at most one
// addition of L restores 0 <= r < L.
void shl8_add_mod(uint64_t r[4], uint8_t byte) {
  const uint64_t q = r[3] >> 52;  // bits 252..260 of x
  const uint64_t x3 = ((r[3] << 8) | (r[2] >> 56)) & ((1ULL << 60) - 1);
  const uint64_t x2 = (r[2] << 8) | (r[1] >> 56);
  const uint64_t x1 = (r[1] << 8) | (r[0] >> 56);
  const uint64_t x0 = (r[0] << 8) | byte;
  // q * delta = q * (kL[0] + 2^64 kL[1]), three limbs.
  const u128 d0 = (u128)q * kL[0];
  const u128 d1 = (u128)q * kL[1] + (uint64_t)(d0 >> 64);
  const uint64_t qd[4] = {(uint64_t)d0, (uint64_t)d1, (uint64_t)(d1 >> 64), 0};
  const uint64_t x[4] = {x0, x1, x2, x3};
  uint64_t borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 diff = (u128)x[i] - qd[i] - borrow;
    r[i] = (uint64_t)diff;
    borrow = (uint64_t)(diff >> 64) & 1;
  }
  if (borrow) {
    u128 carry = 0;
    for (int i = 0; i < 4; ++i) {
      const u128 sum = (u128)r[i] + kL[i] + (uint64_t)carry;
      r[i] = (uint64_t)sum;
      carry = sum >> 64;
    }
  }
}
}  // namespace

Sc sc_zero() { return Sc{{0, 0, 0, 0}}; }

Sc sc_from_bytes(ByteView bytes) {
  Sc r = sc_zero();
  // Most-significant byte first.
  for (size_t i = bytes.size(); i-- > 0;) shl8_add_mod(r.v, bytes[i]);
  return r;
}

Sc sc_add(const Sc& a, const Sc& b) {
  uint64_t r[4];
  u128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 sum = (u128)a.v[i] + b.v[i] + (uint64_t)carry;
    r[i] = (uint64_t)sum;
    carry = sum >> 64;
  }
  // a, b < L < 2^253 so the sum fits in 254 bits (no carry out).
  if (ge_l(r)) sub_l(r);
  Sc out;
  std::memcpy(out.v, r, sizeof(r));
  return out;
}

Sc sc_muladd(const Sc& a, const Sc& b, const Sc& c) {
  // 512-bit schoolbook product.
  uint64_t wide[8] = {0};
  for (int i = 0; i < 4; ++i) {
    u128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 t = (u128)a.v[i] * b.v[j] + wide[i + j] + (uint64_t)carry;
      wide[i + j] = (uint64_t)t;
      carry = t >> 64;
    }
    wide[i + 4] += (uint64_t)carry;
  }
  // Add c.
  u128 carry = 0;
  for (int i = 0; i < 8; ++i) {
    const u128 t = (u128)wide[i] + (i < 4 ? c.v[i] : 0) + (uint64_t)carry;
    wide[i] = (uint64_t)t;
    carry = t >> 64;
  }
  // Reduce the 512-bit value mod L, most-significant byte first.
  Sc r = sc_zero();
  for (int limb = 7; limb >= 0; --limb) {
    for (int shift = 56; shift >= 0; shift -= 8) {
      shl8_add_mod(r.v, static_cast<uint8_t>(wide[limb] >> shift));
    }
  }
  return r;
}

void sc_tobytes(uint8_t out[32], const Sc& s) {
  for (int i = 0; i < 4; ++i) {
    for (int b = 0; b < 8; ++b) {
      out[8 * i + b] = static_cast<uint8_t>(s.v[i] >> (8 * b));
    }
  }
}

bool sc_is_canonical(const uint8_t bytes[32]) {
  uint64_t limbs[4];
  for (int i = 0; i < 4; ++i) {
    uint64_t limb = 0;
    for (int b = 7; b >= 0; --b) limb = (limb << 8) | bytes[8 * i + b];
    limbs[i] = limb;
  }
  return !ge_l(limbs);
}

}  // namespace sgxmig::crypto
