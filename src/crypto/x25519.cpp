#include "crypto/x25519.h"

#include "crypto/fe25519.h"
#include "crypto/ge25519.h"

namespace sgxmig::crypto {

namespace {

// RFC 7748 §5 decodeScalar25519.
X25519Key clamp(const X25519Key& scalar) {
  X25519Key k = scalar;
  k[0] &= 248;
  k[31] &= 127;
  k[31] |= 64;
  return k;
}

}  // namespace

X25519Key x25519(const X25519Key& scalar, const X25519Key& point) {
  const X25519Key k = clamp(scalar);

  const Fe x1 = fe_frombytes(point.data());
  Fe x2 = fe_one();
  Fe z2 = fe_zero();
  Fe x3 = x1;
  Fe z3 = fe_one();
  uint64_t swap = 0;

  for (int t = 254; t >= 0; --t) {
    const uint64_t k_t = (k[t / 8] >> (t % 8)) & 1;
    swap ^= k_t;
    fe_cswap(x2, x3, swap);
    fe_cswap(z2, z3, swap);
    swap = k_t;

    const Fe a = fe_add(x2, z2);
    const Fe aa = fe_sq(a);
    const Fe b = fe_sub(x2, z2);
    const Fe bb = fe_sq(b);
    const Fe e = fe_sub(aa, bb);
    const Fe c = fe_add(x3, z3);
    const Fe d = fe_sub(x3, z3);
    const Fe da = fe_mul(d, a);
    const Fe cb = fe_mul(c, b);
    x3 = fe_sq(fe_add(da, cb));
    z3 = fe_mul(x1, fe_sq(fe_sub(da, cb)));
    x2 = fe_mul(aa, bb);
    z2 = fe_mul(e, fe_add(aa, fe_mul_small(e, 121665)));
  }
  fe_cswap(x2, x3, swap);
  fe_cswap(z2, z3, swap);

  const Fe result = fe_mul(x2, fe_invert(z2));
  X25519Key out{};
  fe_tobytes(out.data(), result);
  return out;
}

X25519Key x25519_base(const X25519Key& scalar) {
  // The base point u = 9 is the image of Ed25519's B under the birational
  // map u = (1 + y) / (1 - y) = (Z + Y) / (Z - Y) (RFC 7748 §4.1), so
  // [k]B on the Edwards curve, from the fixed-base table, maps to the
  // ladder's result.  A clamped k is 2^254 + 8m < 8L and not a multiple
  // of L, so [k]B is never the identity and Z - Y is never zero.
  const X25519Key k = clamp(scalar);
  const Ge p = ge_scalarmult_base(k.data());
  X25519Key out{};
  fe_tobytes(out.data(), fe_mul(fe_add(p.z, p.y), fe_invert(fe_sub(p.z, p.y))));
  return out;
}

}  // namespace sgxmig::crypto
