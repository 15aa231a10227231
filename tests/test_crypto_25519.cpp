// X25519 (RFC 7748) and Ed25519 (RFC 8032) tests against the RFC vectors,
// negative tests, field/scalar arithmetic properties, and a differential
// test of the windowed and table-driven point code against a textbook
// double-and-add reference kept here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "crypto/ed25519.h"
#include "crypto/fe25519.h"
#include "crypto/ge25519.h"
#include "crypto/sc25519.h"
#include "crypto/sha512.h"
#include "crypto/x25519.h"
#include "support/bytes.h"
#include "support/rng.h"

namespace sgxmig::crypto {
namespace {

X25519Key key_from_hex(std::string_view hex) {
  bool ok = false;
  const Bytes b = hex_decode(hex, &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(b.size(), 32u);
  return to_array<32>(b);
}

std::string key_to_hex(const X25519Key& k) {
  return hex_encode(ByteView(k.data(), k.size()));
}

TEST(Fe25519, AddSubRoundTrip) {
  const Fe a = fe_from_u64(123456789);
  const Fe b = fe_from_u64(987654321);
  const Fe sum = fe_add(a, b);
  EXPECT_TRUE(fe_equal(fe_sub(sum, b), a));
  EXPECT_TRUE(fe_equal(fe_sub(sum, a), b));
}

TEST(Fe25519, MulCommutesAndDistributes) {
  const Fe a = fe_from_u64(0xdeadbeefcafeULL);
  const Fe b = fe_from_u64(0x123456789abcULL);
  const Fe c = fe_from_u64(0x42);
  EXPECT_TRUE(fe_equal(fe_mul(a, b), fe_mul(b, a)));
  EXPECT_TRUE(fe_equal(fe_mul(a, fe_add(b, c)),
                       fe_add(fe_mul(a, b), fe_mul(a, c))));
}

TEST(Fe25519, InvertGivesOne) {
  const Fe a = fe_from_u64(0x1234567890abcdefULL);
  EXPECT_TRUE(fe_equal(fe_mul(a, fe_invert(a)), fe_one()));
}

TEST(Fe25519, SqrtM1SquaresToMinusOne) {
  const Fe& s = fe_sqrtm1();
  EXPECT_TRUE(fe_equal(fe_sq(s), fe_neg(fe_one())));
}

TEST(Fe25519, ToBytesIsCanonical) {
  // p encodes as 0, p+1 encodes as 1.
  Fe p = fe_zero();
  p.v[0] = 0x7ffffffffffedULL;  // 2^51 - 19
  for (int i = 1; i < 5; ++i) p.v[i] = 0x7ffffffffffffULL;
  uint8_t out[32];
  fe_tobytes(out, p);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(out[i], 0) << i;
  p.v[0] += 1;
  fe_tobytes(out, p);
  EXPECT_EQ(out[0], 1);
  for (int i = 1; i < 32; ++i) EXPECT_EQ(out[i], 0) << i;
}

TEST(Fe25519, FromBytesToBytesRoundTrip) {
  uint8_t in[32];
  for (int i = 0; i < 32; ++i) in[i] = static_cast<uint8_t>(3 * i + 1);
  in[31] &= 0x7f;  // canonical (below p)
  const Fe f = fe_frombytes(in);
  uint8_t out[32];
  fe_tobytes(out, f);
  EXPECT_EQ(hex_encode(ByteView(out, 32)), hex_encode(ByteView(in, 32)));
}

TEST(Fe25519, CswapSwapsExactlyWhenAsked) {
  Fe a = fe_from_u64(1);
  Fe b = fe_from_u64(2);
  fe_cswap(a, b, 0);
  EXPECT_TRUE(fe_equal(a, fe_from_u64(1)));
  fe_cswap(a, b, 1);
  EXPECT_TRUE(fe_equal(a, fe_from_u64(2)));
  EXPECT_TRUE(fe_equal(b, fe_from_u64(1)));
}

TEST(X25519, Rfc7748Vector1) {
  const auto scalar = key_from_hex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  const auto point = key_from_hex(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  EXPECT_EQ(key_to_hex(x25519(scalar, point)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519, Rfc7748Vector2) {
  const auto scalar = key_from_hex(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  const auto point = key_from_hex(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  EXPECT_EQ(key_to_hex(x25519(scalar, point)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

TEST(X25519, Rfc7748DiffieHellman) {
  const auto alice_priv = key_from_hex(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  const auto bob_priv = key_from_hex(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  const auto alice_pub = x25519_base(alice_priv);
  const auto bob_pub = x25519_base(bob_priv);
  EXPECT_EQ(key_to_hex(alice_pub),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(key_to_hex(bob_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
  const auto shared_a = x25519(alice_priv, bob_pub);
  const auto shared_b = x25519(bob_priv, alice_pub);
  EXPECT_EQ(shared_a, shared_b);
  EXPECT_EQ(key_to_hex(shared_a),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

TEST(X25519, Rfc7748IteratedOnce) {
  X25519Key k{};
  k[0] = 9;
  X25519Key u = k;
  const X25519Key r = x25519(k, u);
  EXPECT_EQ(key_to_hex(r),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079");
}

TEST(X25519, Rfc7748Iterated1000) {
  X25519Key k{};
  k[0] = 9;
  X25519Key u = k;
  for (int i = 0; i < 1000; ++i) {
    const X25519Key r = x25519(k, u);
    u = k;
    k = r;
  }
  EXPECT_EQ(key_to_hex(k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

TEST(Sc25519, ReduceKnownValues) {
  // L reduces to 0.
  const Bytes l_bytes = hex_decode(
      "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  const Sc r = sc_from_bytes(l_bytes);
  uint8_t out[32];
  sc_tobytes(out, r);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(out[i], 0) << i;
}

TEST(Sc25519, SmallValuesUntouched) {
  const Bytes five = {5};
  const Sc r = sc_from_bytes(five);
  uint8_t out[32];
  sc_tobytes(out, r);
  EXPECT_EQ(out[0], 5);
  for (int i = 1; i < 32; ++i) EXPECT_EQ(out[i], 0);
}

TEST(Sc25519, MulAddMatchesSchoolbook) {
  // (3 * 7 + 5) mod L = 26.
  const Sc a = sc_from_bytes(Bytes{3});
  const Sc b = sc_from_bytes(Bytes{7});
  const Sc c = sc_from_bytes(Bytes{5});
  uint8_t out[32];
  sc_tobytes(out, sc_muladd(a, b, c));
  EXPECT_EQ(out[0], 26);
}

TEST(Sc25519, AddWrapsModL) {
  // (L - 1) + 2 = 1 mod L.
  const Bytes l_minus_1 = hex_decode(
      "ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  const Sc a = sc_from_bytes(l_minus_1);
  const Sc b = sc_from_bytes(Bytes{2});
  uint8_t out[32];
  sc_tobytes(out, sc_add(a, b));
  EXPECT_EQ(out[0], 1);
  for (int i = 1; i < 32; ++i) EXPECT_EQ(out[i], 0);
}

// Reference reduction mod L: one bit at a time, MSB first, with a
// conditional subtraction of L after each doubling.
std::array<uint8_t, 32> ref_reduce(ByteView bytes) {
  const Bytes l = hex_decode(
      "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  std::array<uint8_t, 33> r{};  // little-endian, one spare byte
  for (size_t i = bytes.size(); i-- > 0;) {
    for (int bit = 7; bit >= 0; --bit) {
      unsigned carry = (bytes[i] >> bit) & 1;
      for (auto& byte : r) {
        const unsigned v = (byte << 1) | carry;
        byte = static_cast<uint8_t>(v);
        carry = v >> 8;
      }
      // r >= L, compared from the most significant byte.
      int j = 31;
      while (j > 0 && r[j] == l[j]) --j;
      if (r[32] == 0 && r[j] < l[j]) continue;
      int borrow = 0;
      for (size_t k = 0; k < r.size(); ++k) {
        const int v = r[k] - (k < 32 ? l[k] : 0) - borrow;
        r[k] = static_cast<uint8_t>(v);
        borrow = v < 0;
      }
    }
  }
  std::array<uint8_t, 32> out{};
  std::copy(r.begin(), r.begin() + 32, out.begin());
  return out;
}

std::array<uint8_t, 32> sc_bytes(const Sc& s) {
  std::array<uint8_t, 32> out{};
  sc_tobytes(out.data(), s);
  return out;
}

TEST(Sc25519, ReduceAndMulAddMatchBitSerialReference) {
  Rng rng(0x1ced);
  // 2^252 and 2^252 + 5 lie just below L = 2^252 + delta: folding their
  // last byte subtracts delta from a smaller remainder and must add L back.
  std::vector<Bytes> inputs = {
      Bytes(64, 0xff), Bytes(32, 0xff), Bytes(64, 0),
      hex_decode("00000000000000000000000000000000"
                 "00000000000000000000000000000010"),
      hex_decode("05000000000000000000000000000000"
                 "00000000000000000000000000000010")};
  for (int i = 0; i < 64; ++i) inputs.push_back(rng.bytes(i % 2 ? 64 : 32));
  for (const Bytes& in : inputs) {
    EXPECT_EQ(sc_bytes(sc_from_bytes(in)), ref_reduce(in)) << hex_encode(in);
  }
  // a * b + c, with the 512-bit product formed bytewise here.
  for (int i = 0; i < 32; ++i) {
    const Bytes a = rng.bytes(32), b = rng.bytes(32), c = rng.bytes(32);
    const auto ar = ref_reduce(a), br = ref_reduce(b), cr = ref_reduce(c);
    Bytes wide(65, 0);
    for (size_t x = 0; x < 32; ++x) {
      unsigned carry = 0;
      for (size_t y = 0; y < 32; ++y) {
        const unsigned v = wide[x + y] + ar[x] * br[y] + carry;
        wide[x + y] = static_cast<uint8_t>(v);
        carry = v >> 8;
      }
      for (size_t k = x + 32; carry != 0; ++k) {
        const unsigned v = wide[k] + carry;
        wide[k] = static_cast<uint8_t>(v);
        carry = v >> 8;
      }
    }
    unsigned carry = 0;
    for (size_t k = 0; k < wide.size(); ++k) {
      const unsigned v = wide[k] + (k < 32 ? cr[k] : 0) + carry;
      wide[k] = static_cast<uint8_t>(v);
      carry = v >> 8;
    }
    EXPECT_EQ(sc_bytes(sc_muladd(sc_from_bytes(a), sc_from_bytes(b),
                                 sc_from_bytes(c))),
              ref_reduce(wide))
        << i;
  }
}

TEST(Sc25519, CanonicalCheck) {
  uint8_t zero[32] = {0};
  EXPECT_TRUE(sc_is_canonical(zero));
  const Bytes l_bytes = hex_decode(
      "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  EXPECT_FALSE(sc_is_canonical(l_bytes.data()));
  uint8_t max[32];
  for (auto& b : max) b = 0xff;
  EXPECT_FALSE(sc_is_canonical(max));
}

struct Rfc8032Vector {
  const char* seed;
  const char* public_key;
  const char* message;
  const char* signature;
};

const Rfc8032Vector kEd25519Vectors[] = {
    {"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
     "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
    {"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
     "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
    {"c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
     "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
     "af82",
     "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
     "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
};

class Ed25519Rfc8032 : public ::testing::TestWithParam<Rfc8032Vector> {};

TEST_P(Ed25519Rfc8032, KeyGenSignVerify) {
  const auto& v = GetParam();
  const auto seed = to_array<32>(hex_decode(v.seed));
  const Bytes message = hex_decode(v.message);
  const auto kp = Ed25519KeyPair::from_seed(seed);
  EXPECT_EQ(hex_encode(ByteView(kp.public_key().data(), 32)), v.public_key);
  const Ed25519Signature sig = kp.sign(message);
  EXPECT_EQ(hex_encode(ByteView(sig.data(), sig.size())), v.signature);
  EXPECT_TRUE(ed25519_verify(kp.public_key(), message, sig));
}

INSTANTIATE_TEST_SUITE_P(Rfc8032, Ed25519Rfc8032,
                         ::testing::ValuesIn(kEd25519Vectors));

TEST(Ed25519, RejectsTamperedSignature) {
  const auto seed = to_array<32>(Bytes(32, 0x42));
  const auto kp = Ed25519KeyPair::from_seed(seed);
  const Bytes msg = to_bytes(std::string_view("migrate me"));
  Ed25519Signature sig = kp.sign(msg);
  sig[0] ^= 1;
  EXPECT_FALSE(ed25519_verify(kp.public_key(), msg, sig));
}

TEST(Ed25519, RejectsTamperedMessage) {
  const auto seed = to_array<32>(Bytes(32, 0x42));
  const auto kp = Ed25519KeyPair::from_seed(seed);
  const Ed25519Signature sig = kp.sign(to_bytes(std::string_view("v1")));
  EXPECT_FALSE(
      ed25519_verify(kp.public_key(), to_bytes(std::string_view("v2")), sig));
}

TEST(Ed25519, RejectsWrongPublicKey) {
  const auto kp1 = Ed25519KeyPair::from_seed(to_array<32>(Bytes(32, 1)));
  const auto kp2 = Ed25519KeyPair::from_seed(to_array<32>(Bytes(32, 2)));
  const Bytes msg = to_bytes(std::string_view("hello"));
  EXPECT_FALSE(ed25519_verify(kp2.public_key(), msg, kp1.sign(msg)));
}

TEST(Ed25519, RejectsNonCanonicalS) {
  const auto kp = Ed25519KeyPair::from_seed(to_array<32>(Bytes(32, 3)));
  const Bytes msg = to_bytes(std::string_view("msg"));
  Ed25519Signature sig = kp.sign(msg);
  // Force S >= L by setting the top bytes.
  for (int i = 32; i < 64; ++i) sig[i] = 0xff;
  EXPECT_FALSE(ed25519_verify(kp.public_key(), msg, sig));
}

TEST(Ed25519, DifferentSeedsDifferentKeys) {
  const auto kp1 = Ed25519KeyPair::from_seed(to_array<32>(Bytes(32, 7)));
  const auto kp2 = Ed25519KeyPair::from_seed(to_array<32>(Bytes(32, 8)));
  EXPECT_NE(kp1.public_key(), kp2.public_key());
}

TEST(Ed25519, SignatureDeterministic) {
  const auto kp = Ed25519KeyPair::from_seed(to_array<32>(Bytes(32, 9)));
  const Bytes msg = to_bytes(std::string_view("deterministic"));
  EXPECT_EQ(kp.sign(msg), kp.sign(msg));
}

// ----------------------------------------------------------------------
// Small-order keys and non-canonical encodings
// ----------------------------------------------------------------------

using Scalar = std::array<uint8_t, 32>;

Scalar scalar_from_hex(std::string_view hex) {
  return to_array<32>(hex_decode(hex));
}

// enc(B), the standard base point's encoding.
const char* const kBaseHex =
    "5866666666666666666666666666666666666666666666666666666666666666";

TEST(Ed25519, RejectsForgeryUnderSmallOrderKeys) {
  // With A the identity, [k]A vanishes from the check, so R = enc(B) and
  // S = 1 satisfied enc([S]B - [k]A) == R for every message.  Both the
  // canonical identity (y = 1) and y = p + 1, a non-canonical spelling of
  // the same point, must be refused.
  Ed25519Signature forged{};
  const Scalar r = scalar_from_hex(kBaseHex);
  std::memcpy(forged.data(), r.data(), 32);
  forged[32] = 1;
  for (const char* key_hex :
       {"0100000000000000000000000000000000000000000000000000000000000000",
        "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"}) {
    const Ed25519PublicKey key = scalar_from_hex(key_hex);
    for (const char* msg : {"", "pay 1000 to mallory", "migrate me"}) {
      EXPECT_FALSE(ed25519_verify(key, to_bytes(std::string_view(msg)), forged))
          << key_hex << " / " << msg;
    }
  }
}

TEST(Ge25519, FromBytesRefusesNonCanonicalY) {
  Ge point{};
  // y = p + 1, y = p, and y = 2^255 - 1, with either sign bit.
  for (const char* hex :
       {"eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"}) {
    const Scalar enc = scalar_from_hex(hex);
    EXPECT_FALSE(ge_frombytes(point, enc.data())) << hex;
  }
  // y = p - 1 = -1 is canonical: the point (0, -1) of order 2.
  const Scalar minus_one = scalar_from_hex(
      "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
  ASSERT_TRUE(ge_frombytes(point, minus_one.data()));
  EXPECT_TRUE(ge_is_small_order(point));
}

// ----------------------------------------------------------------------
// Differential test against a textbook double-and-add reference
// ----------------------------------------------------------------------

// The reference: the unified addition law (add-2008-hwcd-3, a = -1) used
// for doubling too, one bit at a time.  It shares only the field
// arithmetic with ge25519.cpp: no window, table or dedicated doubling.
Ge ref_add(const Ge& p, const Ge& q) {
  static const Fe d2 = [] {
    const Fe d =
        fe_neg(fe_mul(fe_from_u64(121665), fe_invert(fe_from_u64(121666))));
    return fe_add(d, d);
  }();
  const Fe a = fe_mul(fe_sub(p.y, p.x), fe_sub(q.y, q.x));
  const Fe b = fe_mul(fe_add(p.y, p.x), fe_add(q.y, q.x));
  const Fe c = fe_mul(fe_mul(p.t, d2), q.t);
  const Fe d = fe_mul(fe_add(p.z, p.z), q.z);
  const Fe e = fe_sub(b, a), f = fe_sub(d, c), g = fe_add(d, c),
           h = fe_add(b, a);
  return Ge{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

Ge ref_scalarmult(const Ge& p, const Scalar& s) {
  Ge r = ge_identity();
  for (int i = 255; i >= 0; --i) {
    r = ref_add(r, r);
    if ((s[i / 8] >> (i % 8)) & 1) r = ref_add(r, p);
  }
  return r;
}

Scalar encode(const Ge& p) {
  Scalar out{};
  ge_tobytes(out.data(), p);
  return out;
}

const Ge& base() {
  static const Ge b = [] {
    Ge out{};
    EXPECT_TRUE(ge_frombytes(out, scalar_from_hex(kBaseHex).data()));
    return out;
  }();
  return b;
}

Scalar clamped(Scalar s) {
  s[0] &= 248;
  s[31] &= 127;
  s[31] |= 64;
  return s;
}

// Edge scalars: 0, 1, L - 1, every nibble 8 (each window digit carries),
// and every nibble 8 under a top nibble of 7 (the carry makes the top
// digit 8, the table's last entry).
std::vector<Scalar> edge_scalars() {
  Scalar eights{}, top_seven{};
  eights.fill(0x88);
  eights[31] = 0x08;
  top_seven.fill(0x88);
  top_seven[31] = 0x78;
  return {Scalar{}, scalar_from_hex("01000000000000000000000000000000"
                                    "00000000000000000000000000000000"),
          scalar_from_hex("ecd3f55c1a631258d69cf7a2def9de14"
                          "00000000000000000000000000000010"),
          eights, top_seven};
}

// Edge scalars plus seeded random ones with s[31] <= 127.
std::vector<Scalar> test_scalars(uint64_t seed, int random_count) {
  std::vector<Scalar> out = edge_scalars();
  Rng rng(seed);
  for (int i = 0; i < random_count; ++i) {
    Scalar s{};
    rng.fill(s.data(), s.size());
    s[31] &= 127;
    out.push_back(s);
  }
  return out;
}

TEST(Ge25519Differential, FixedBaseMatchesReference) {
  for (const Scalar& s : test_scalars(0x25519, 24)) {
    EXPECT_EQ(encode(ge_scalarmult_base(s.data())),
              encode(ref_scalarmult(base(), s)))
        << hex_encode(ByteView(s.data(), 32));
  }
}

TEST(Ge25519Differential, DoubleScalarMultMatchesReference) {
  const std::vector<Scalar> scalars = test_scalars(0xd5, 6);
  Rng rng(0xd6);
  for (const Scalar& a : scalars) {
    Scalar p_scalar{};
    rng.fill(p_scalar.data(), p_scalar.size());
    const Ge p = ref_scalarmult(base(), p_scalar);
    for (const Scalar& b : {scalars[0], scalars[3], scalars[4], a}) {
      const Ge expected =
          ref_add(ref_scalarmult(p, a), ref_scalarmult(base(), b));
      EXPECT_EQ(encode(ge_double_scalarmult(a.data(), p, b.data())),
                encode(expected))
          << hex_encode(ByteView(a.data(), 32)) << " / "
          << hex_encode(ByteView(b.data(), 32));
    }
  }
}

TEST(Ge25519Differential, X25519BaseMatchesLadder) {
  // The Montgomery ladder on u = 9, pinned by the RFC 7748 vectors, is the
  // reference for the Edwards fixed-base path; clamping maps the edge
  // scalars onto 2^254 + 8m.
  X25519Key nine{};
  nine[0] = 9;
  std::vector<Scalar> scalars = test_scalars(0x7748, 24);
  Scalar ones{};
  ones.fill(0xff);
  scalars.push_back(ones);
  for (const Scalar& s : scalars) {
    EXPECT_EQ(x25519_base(s), x25519(s, nine))
        << hex_encode(ByteView(s.data(), 32));
  }
}

TEST(Ge25519Differential, KeyGenAndSignMatchReference) {
  Rng rng(0x8032);
  for (int i = 0; i < 8; ++i) {
    Ed25519Seed seed{};
    rng.fill(seed.data(), seed.size());
    const Bytes msg = rng.bytes(static_cast<size_t>(i) * 37);
    const auto kp = Ed25519KeyPair::from_seed(seed);

    const Sha512Digest h = Sha512::hash(ByteView(seed.data(), seed.size()));
    Scalar secret{};
    std::memcpy(secret.data(), h.data(), 32);
    secret = clamped(secret);
    const Scalar pub = encode(ref_scalarmult(base(), secret));
    EXPECT_EQ(kp.public_key(), pub);

    Sha512 hr;
    hr.update(ByteView(h.data() + 32, 32));
    hr.update(msg);
    const Sha512Digest r_hash = hr.finish();
    const Sc r = sc_from_bytes(ByteView(r_hash.data(), r_hash.size()));
    Scalar r_bytes{};
    sc_tobytes(r_bytes.data(), r);
    const Scalar big_r = encode(ref_scalarmult(base(), r_bytes));
    Sha512 hk;
    hk.update(ByteView(big_r.data(), 32));
    hk.update(ByteView(pub.data(), 32));
    hk.update(msg);
    const Sha512Digest k_hash = hk.finish();
    const Sc k = sc_from_bytes(ByteView(k_hash.data(), k_hash.size()));
    Ed25519Signature expected{};
    std::memcpy(expected.data(), big_r.data(), 32);
    sc_tobytes(expected.data() + 32,
               sc_muladd(k, sc_from_bytes(ByteView(secret.data(), 32)), r));
    EXPECT_EQ(kp.sign(msg), expected) << i;
  }
}

// RFC 8032 §5.1.7 verification by the reference group law, with the same
// small-order key refusal as ed25519_verify.
bool ref_verify(const Ed25519PublicKey& key, ByteView msg,
                const Ed25519Signature& sig) {
  if (!sc_is_canonical(sig.data() + 32)) return false;
  Ge a{};
  if (!ge_frombytes(a, key.data())) return false;
  Scalar eight{};
  eight[0] = 8;
  if (encode(ref_scalarmult(a, eight)) == encode(ge_identity())) return false;
  Sha512 hk;
  hk.update(ByteView(sig.data(), 32));
  hk.update(ByteView(key.data(), 32));
  hk.update(msg);
  const Sha512Digest k_hash = hk.finish();
  Scalar k{}, s{};
  sc_tobytes(k.data(), sc_from_bytes(ByteView(k_hash.data(), k_hash.size())));
  std::memcpy(s.data(), sig.data() + 32, 32);
  const Ge check =
      ref_add(ref_scalarmult(base(), s), ref_scalarmult(ge_neg(a), k));
  return std::memcmp(encode(check).data(), sig.data(), 32) == 0;
}

TEST(Ge25519Differential, VerifyDecisionsMatchReference) {
  // One flipped bit per byte of the signature and of the key, on top of
  // the untouched pair: every decision must match the reference's.
  Rng rng(0x5eed);
  Ed25519Seed seed{};
  rng.fill(seed.data(), seed.size());
  const auto kp = Ed25519KeyPair::from_seed(seed);
  const Bytes msg = rng.bytes(100);
  const Ed25519Signature sig = kp.sign(msg);
  ASSERT_TRUE(ed25519_verify(kp.public_key(), msg, sig));
  ASSERT_TRUE(ref_verify(kp.public_key(), msg, sig));
  for (size_t i = 0; i < sig.size(); ++i) {
    Ed25519Signature flipped = sig;
    flipped[i] ^= static_cast<uint8_t>(1u << (i % 8));
    EXPECT_EQ(ed25519_verify(kp.public_key(), msg, flipped),
              ref_verify(kp.public_key(), msg, flipped))
        << "signature byte " << i;
  }
  for (size_t i = 0; i < kp.public_key().size(); ++i) {
    Ed25519PublicKey flipped = kp.public_key();
    flipped[i] ^= static_cast<uint8_t>(1u << (i % 8));
    EXPECT_EQ(ed25519_verify(flipped, msg, sig), ref_verify(flipped, msg, sig))
        << "key byte " << i;
  }
}

TEST(Ge25519Differential, SmallOrderMatchesReference) {
  // [L]P lies in the 8-torsion for every point P; a point from [s]B with
  // s not a multiple of L does not.
  const Scalar l = scalar_from_hex(
      "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  Rng rng(0x8);
  int points = 0;
  for (int i = 0; i < 16; ++i) {
    Scalar y{};
    rng.fill(y.data(), y.size());
    y[31] &= 127;
    Ge p{};
    if (!ge_frombytes(p, y.data())) continue;  // not a curve point
    ++points;
    EXPECT_FALSE(ge_is_small_order(ge_scalarmult_base(y.data())));
    const Ge torsion = ref_scalarmult(p, l);
    EXPECT_TRUE(ge_is_small_order(torsion)) << i;
    Ge decoded{};
    ASSERT_TRUE(ge_frombytes(decoded, encode(torsion).data()));
    EXPECT_TRUE(ge_is_small_order(decoded)) << i;
  }
  EXPECT_GE(points, 4);
}

}  // namespace
}  // namespace sgxmig::crypto
