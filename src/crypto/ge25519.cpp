#include "crypto/ge25519.h"

#include <cstring>

namespace sgxmig::crypto {

namespace {

// (Y + X, Y - X, Z, 2dT): the second operand of an addition.
struct GeCached {
  Fe ypx, ymx, z, t2d;
};

// (y + x, y - x, 2dxy): an affine GeCached (Z = 1), for table entries.
struct GePrecomp {
  Fe ypx, ymx, xy2d;
};

// Curve constant d = -121665/121666 mod p, computed once.
const Fe& curve_d() {
  static const Fe value = fe_neg(
      fe_mul(fe_from_u64(121665), fe_invert(fe_from_u64(121666))));
  return value;
}

const Fe& curve_2d() {
  static const Fe value = fe_add(curve_d(), curve_d());
  return value;
}

// Finishes add-2008-hwcd-3 (a = -1) from A = (Y1-X1)(Y2-X2),
// B = (Y1+X1)(Y2+X2), C = 2d T1 T2 and D = 2 Z1 Z2.  The formula is
// complete on edwards25519: it also doubles and takes the identity.
Ge add_finish(const Fe& a, const Fe& b, const Fe& c, const Fe& d) {
  const Fe e = fe_sub(b, a);
  const Fe f = fe_sub(d, c);
  const Fe g = fe_add(d, c);
  const Fe h = fe_add(b, a);
  return Ge{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

Ge ge_add(const Ge& p, const GeCached& q) {
  return add_finish(fe_mul(fe_sub(p.y, p.x), q.ymx),
                    fe_mul(fe_add(p.y, p.x), q.ypx), fe_mul(p.t, q.t2d),
                    fe_mul(fe_add(p.z, p.z), q.z));
}

Ge ge_add(const Ge& p, const GePrecomp& q) {
  return add_finish(fe_mul(fe_sub(p.y, p.x), q.ymx),
                    fe_mul(fe_add(p.y, p.x), q.ypx), fe_mul(p.t, q.xy2d),
                    fe_add(p.z, p.z));
}

// dbl-2008-hwcd (a = -1), negated throughout so that every product has a
// non-negated factor; complete on edwards25519 like the addition.
Ge ge_dbl(const Ge& p) {
  const Fe xx = fe_sq(p.x);
  const Fe yy = fe_sq(p.y);
  const Fe zz = fe_sq(p.z);
  const Fe e = fe_sub(fe_sub(fe_sq(fe_add(p.x, p.y)), xx), yy);  // 2XY
  const Fe g = fe_sub(yy, xx);
  const Fe h = fe_add(yy, xx);
  const Fe f = fe_sub(fe_add(zz, zz), g);
  return Ge{fe_mul(e, f), fe_mul(h, g), fe_mul(g, f), fe_mul(e, h)};
}

GeCached to_cached(const Ge& p) {
  return GeCached{fe_add(p.y, p.x), fe_sub(p.y, p.x), p.z,
                  fe_mul(p.t, curve_2d())};
}

GeCached negate(const GeCached& q) {
  return GeCached{q.ymx, q.ypx, q.z, fe_neg(q.t2d)};
}

GePrecomp negate(const GePrecomp& q) {
  return GePrecomp{q.ymx, q.ypx, fe_neg(q.xy2d)};
}

// h + [digit]Q, where row[k] holds [k + 1]Q and |digit| <= 8.
template <typename Entry>
Ge add_digit(const Ge& h, const Entry row[8], int8_t digit) {
  if (digit > 0) return ge_add(h, row[digit - 1]);
  if (digit < 0) return ge_add(h, negate(row[-digit - 1]));
  return h;
}

// Signed radix-16 digits with a = sum e[i] 16^i: e[0..62] in [-8, 7] and
// e[63] in [0, 8].  Needs a[31] <= 127 so the last carry fits.
void recode(int8_t e[64], const uint8_t a[32]) {
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<int8_t>(a[i] & 15);
    e[2 * i + 1] = static_cast<int8_t>(a[i] >> 4);
  }
  int8_t carry = 0;
  for (int i = 0; i < 63; ++i) {
    e[i] = static_cast<int8_t>(e[i] + carry);
    carry = static_cast<int8_t>((e[i] + 8) >> 4);
    e[i] = static_cast<int8_t>(e[i] - carry * 16);
  }
  e[63] = static_cast<int8_t>(e[63] + carry);
}

Ge dbl4(Ge p) {
  for (int i = 0; i < 4; ++i) p = ge_dbl(p);
  return p;
}

const Ge& base_point() {
  static const Ge value = [] {
    // Standard little-endian encoding of B = (x, 4/5) with x "positive":
    // 0x58 0x66 0x66 ... 0x66.
    uint8_t enc[32];
    std::memset(enc, 0x66, 32);
    enc[0] = 0x58;
    Ge b{};
    const bool ok = ge_frombytes(b, enc);
    (void)ok;
    return b;
  }();
  return value;
}

// rows[j][k] = [(k + 1) * 256^j]B in affine form, built in place (no
// 30 KB temporary on the stack).
struct BaseTable {
  BaseTable();
  GePrecomp rows[32][8];
};

BaseTable::BaseTable() {
  Ge row_base = base_point();
  for (auto& row : rows) {
    const GeCached step = to_cached(row_base);
    Ge multiple = row_base;
    for (GePrecomp& entry : row) {
      const Fe zinv = fe_invert(multiple.z);
      const Fe x = fe_mul(multiple.x, zinv);
      const Fe y = fe_mul(multiple.y, zinv);
      entry = GePrecomp{fe_add(y, x), fe_sub(y, x),
                        fe_mul(fe_mul(x, y), curve_2d())};
      multiple = ge_add(multiple, step);
    }
    for (int i = 0; i < 8; ++i) row_base = ge_dbl(row_base);
  }
}

const BaseTable& base_table() {
  static const BaseTable table;
  return table;
}

}  // namespace

Ge ge_identity() { return Ge{fe_zero(), fe_one(), fe_one(), fe_zero()}; }

Ge ge_neg(const Ge& p) { return Ge{fe_neg(p.x), p.y, p.z, fe_neg(p.t)}; }

void ge_tobytes(uint8_t out[32], const Ge& p) {
  const Fe zinv = fe_invert(p.z);
  const Fe x = fe_mul(p.x, zinv);
  const Fe y = fe_mul(p.y, zinv);
  fe_tobytes(out, y);
  out[31] ^= static_cast<uint8_t>(fe_is_negative(x) << 7);
}

bool ge_frombytes(Ge& out, const uint8_t s[32]) {
  const Fe y = fe_frombytes(s);
  const int sign = s[31] >> 7;

  // y must be canonical: its reduced encoding gives back the input.
  uint8_t canonical[32];
  fe_tobytes(canonical, y);
  canonical[31] |= static_cast<uint8_t>(sign << 7);
  if (std::memcmp(canonical, s, 32) != 0) return false;

  const Fe y2 = fe_sq(y);
  const Fe u = fe_sub(y2, fe_one());                     // y^2 - 1
  const Fe v = fe_add(fe_mul(y2, curve_d()), fe_one());  // d y^2 + 1

  // Candidate root: x = (u/v)^((p+3)/8) = u v^3 (u v^7)^((p-5)/8).
  const Fe v3 = fe_mul(fe_sq(v), v);
  const Fe v7 = fe_mul(fe_sq(v3), v);
  Fe x = fe_mul(fe_mul(u, v3), fe_pow22523(fe_mul(u, v7)));

  const Fe vx2 = fe_mul(v, fe_sq(x));
  if (!fe_equal(vx2, u)) {
    if (fe_equal(vx2, fe_neg(u))) {
      x = fe_mul(x, fe_sqrtm1());
    } else {
      return false;
    }
  }
  if (fe_is_zero(x) && sign == 1) return false;  // -0 is invalid
  if (fe_is_negative(x) != sign) x = fe_neg(x);

  out = Ge{x, y, fe_one(), fe_mul(x, y)};
  return true;
}

Ge ge_scalarmult_base(const uint8_t a[32]) {
  int8_t e[64] = {};
  recode(e, a);
  const BaseTable& table = base_table();
  // a = sum_j (e[2j] + 16 e[2j+1]) 256^j: add the odd digits, multiply
  // by 16, then add the even digits.
  Ge h = ge_identity();
  for (int i = 1; i < 64; i += 2) h = add_digit(h, table.rows[i / 2], e[i]);
  h = dbl4(h);
  for (int i = 0; i < 64; i += 2) h = add_digit(h, table.rows[i / 2], e[i]);
  return h;
}

Ge ge_double_scalarmult(const uint8_t a[32], const Ge& p, const uint8_t b[32]) {
  int8_t ea[64] = {}, eb[64] = {};
  recode(ea, a);
  recode(eb, b);
  GeCached p_multiples[8];  // [k]P for k = 1..8
  p_multiples[0] = to_cached(p);
  Ge multiple = p;
  for (int k = 1; k < 8; ++k) {
    multiple = ge_add(multiple, p_multiples[0]);
    p_multiples[k] = to_cached(multiple);
  }
  const GePrecomp* b_multiples = base_table().rows[0];  // [k]B for k = 1..8

  Ge h = ge_identity();
  for (int i = 63; i >= 0; --i) {
    if (i != 63) h = dbl4(h);
    h = add_digit(h, p_multiples, ea[i]);
    h = add_digit(h, b_multiples, eb[i]);
  }
  return h;
}

bool ge_is_small_order(const Ge& p) {
  // [8]p has X = 0 only at the identity: the other X = 0 point, (0, -1),
  // has order 2 and would make p a point of order 16, which the group
  // (order 8L, L an odd prime) does not have.
  const Ge q = ge_dbl(ge_dbl(ge_dbl(p)));
  return fe_is_zero(q.x);
}

}  // namespace sgxmig::crypto
