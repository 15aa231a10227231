// AES / GCM / CMAC / DRBG tests against published vectors (FIPS 197
// appendix C, the original GCM spec test cases, RFC 4493), plus
// differential tests of the table-driven AES and GHASH against simple
// reference implementations on seeded random inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "crypto/aes.h"
#include "crypto/cmac.h"
#include "crypto/drbg.h"
#include "crypto/gcm.h"
#include "support/bytes.h"
#include "support/rng.h"

namespace sgxmig::crypto {
namespace {

Bytes hx(std::string_view s) {
  bool ok = false;
  Bytes b = hex_decode(s, &ok);
  EXPECT_TRUE(ok) << s;
  return b;
}

TEST(Aes, Fips197Aes128) {
  const Bytes key = hx("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = hx("00112233445566778899aabbccddeeff");
  const Aes aes(key);
  uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(hex_encode(ByteView(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
  uint8_t back[16];
  aes.decrypt_block(ct, back);
  EXPECT_EQ(hex_encode(ByteView(back, 16)), hex_encode(pt));
}

TEST(Aes, Fips197Aes192) {
  const Bytes key = hx("000102030405060708090a0b0c0d0e0f1011121314151617");
  const Bytes pt = hx("00112233445566778899aabbccddeeff");
  const Aes aes(key);
  uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(hex_encode(ByteView(ct, 16)), "dda97ca4864cdfe06eaf70a0ec0d7191");
}

TEST(Aes, Fips197Aes256) {
  const Bytes key =
      hx("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes pt = hx("00112233445566778899aabbccddeeff");
  const Aes aes(key);
  uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(hex_encode(ByteView(ct, 16)), "8ea2b7ca516745bfeafc49904b496089");
  uint8_t back[16];
  aes.decrypt_block(ct, back);
  EXPECT_EQ(hex_encode(ByteView(back, 16)), hex_encode(pt));
}

TEST(Aes, Sp800_38aVector) {
  const Bytes key = hx("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes pt = hx("6bc1bee22e409f96e93d7e117393172a");
  const Aes aes(key);
  uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(hex_encode(ByteView(ct, 16)), "3ad77bb40d7a3660a89ecaf32466ef97");
}

TEST(Aes, RejectsBadKeySize) {
  EXPECT_THROW(Aes(Bytes(15, 0)), std::invalid_argument);
  EXPECT_THROW(Aes(Bytes(33, 0)), std::invalid_argument);
}

TEST(Gcm, SpecTestCase1EmptyEverything) {
  const Bytes key(16, 0);
  const Bytes iv(12, 0);
  const GcmCiphertext ct = gcm_encrypt(key, iv, ByteView(), ByteView());
  EXPECT_TRUE(ct.ciphertext.empty());
  EXPECT_EQ(hex_encode(ByteView(ct.tag.data(), ct.tag.size())),
            "58e2fccefa7e3061367f1d57a4e7455a");
}

TEST(Gcm, SpecTestCase2SingleZeroBlock) {
  const Bytes key(16, 0);
  const Bytes iv(12, 0);
  const Bytes pt(16, 0);
  const GcmCiphertext ct = gcm_encrypt(key, iv, ByteView(), pt);
  EXPECT_EQ(hex_encode(ct.ciphertext), "0388dace60b6a392f328c2b971b2fe78");
  EXPECT_EQ(hex_encode(ByteView(ct.tag.data(), ct.tag.size())),
            "ab6e47d42cec13bdf53a67b21257bddf");
}

TEST(Gcm, SpecTestCase3FourBlocks) {
  const Bytes key = hx("feffe9928665731c6d6a8f9467308308");
  const Bytes iv = hx("cafebabefacedbaddecaf888");
  const Bytes pt = hx(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255");
  const GcmCiphertext ct = gcm_encrypt(key, iv, ByteView(), pt);
  EXPECT_EQ(hex_encode(ct.ciphertext),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985");
  EXPECT_EQ(hex_encode(ByteView(ct.tag.data(), ct.tag.size())),
            "4d5c2af327cd64a62cf35abd2ba6fab4");
}

TEST(Gcm, SpecTestCase4WithAad) {
  const Bytes key = hx("feffe9928665731c6d6a8f9467308308");
  const Bytes iv = hx("cafebabefacedbaddecaf888");
  const Bytes pt = hx(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const Bytes aad = hx("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  const GcmCiphertext ct = gcm_encrypt(key, iv, aad, pt);
  EXPECT_EQ(hex_encode(ct.ciphertext),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091");
  EXPECT_EQ(hex_encode(ByteView(ct.tag.data(), ct.tag.size())),
            "5bc94fbc3221a5db94fae95ae7121a47");
  // Round trip.
  const auto back = gcm_decrypt(key, iv, aad, ct.ciphertext,
                                ByteView(ct.tag.data(), ct.tag.size()));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), pt);
}

TEST(Gcm, DecryptRejectsTamperedCiphertext) {
  const Bytes key(16, 0x42);
  const Bytes iv(12, 0x01);
  const Bytes pt = to_bytes(std::string_view("attack at dawn"));
  GcmCiphertext ct = gcm_encrypt(key, iv, ByteView(), pt);
  ct.ciphertext[3] ^= 0x80;
  const auto r = gcm_decrypt(key, iv, ByteView(), ct.ciphertext,
                             ByteView(ct.tag.data(), ct.tag.size()));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status(), Status::kMacMismatch);
}

TEST(Gcm, DecryptRejectsTamperedAad) {
  const Bytes key(16, 0x42);
  const Bytes iv(12, 0x01);
  const Bytes pt = to_bytes(std::string_view("attack at dawn"));
  const Bytes aad = to_bytes(std::string_view("header-v1"));
  const GcmCiphertext ct = gcm_encrypt(key, iv, aad, pt);
  const Bytes bad_aad = to_bytes(std::string_view("header-v2"));
  const auto r = gcm_decrypt(key, iv, bad_aad, ct.ciphertext,
                             ByteView(ct.tag.data(), ct.tag.size()));
  EXPECT_EQ(r.status(), Status::kMacMismatch);
}

TEST(Gcm, DecryptRejectsWrongKey) {
  const Bytes key(16, 0x42);
  const Bytes other_key(16, 0x43);
  const Bytes iv(12, 0x01);
  const Bytes pt = to_bytes(std::string_view("secret"));
  const GcmCiphertext ct = gcm_encrypt(key, iv, ByteView(), pt);
  const auto r = gcm_decrypt(other_key, iv, ByteView(), ct.ciphertext,
                             ByteView(ct.tag.data(), ct.tag.size()));
  EXPECT_EQ(r.status(), Status::kMacMismatch);
}

TEST(Gcm, Aes256KeysWork) {
  const Bytes key(32, 0x11);
  const Bytes iv(12, 0x22);
  const Bytes pt = to_bytes(std::string_view("sealed with a 256-bit key"));
  const GcmCiphertext ct = gcm_encrypt(key, iv, ByteView(), pt);
  const auto back = gcm_decrypt(key, iv, ByteView(), ct.ciphertext,
                                ByteView(ct.tag.data(), ct.tag.size()));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), pt);
}

TEST(Gcm, RoundTripManySizes) {
  const Bytes key(16, 0x37);
  for (size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16}, size_t{17},
                   size_t{100}, size_t{1000}, size_t{4096}}) {
    Bytes pt(n);
    for (size_t i = 0; i < n; ++i) pt[i] = static_cast<uint8_t>(i * 7 + 1);
    Bytes iv(12, static_cast<uint8_t>(n & 0xff));
    const GcmCiphertext ct = gcm_encrypt(key, iv, ByteView(), pt);
    const auto back = gcm_decrypt(key, iv, ByteView(), ct.ciphertext,
                                  ByteView(ct.tag.data(), ct.tag.size()));
    ASSERT_TRUE(back.ok()) << n;
    EXPECT_EQ(back.value(), pt) << n;
  }
}

// ---- differential tests against a reference GCM ----

struct RefBlock {
  uint64_t hi = 0;
  uint64_t lo = 0;
};

// Reference GHASH multiplication in GF(2^128): bit by bit, the right-shift
// algorithm of SP 800-38D §6.3.
RefBlock ghash_multiply(const RefBlock& x, const RefBlock& h) {
  RefBlock z{0, 0};
  RefBlock v = h;
  for (int i = 0; i < 128; ++i) {
    const uint64_t bit =
        i < 64 ? (x.hi >> (63 - i)) & 1 : (x.lo >> (127 - i)) & 1;
    if (bit != 0) {
      z.hi ^= v.hi;
      z.lo ^= v.lo;
    }
    const uint64_t lsb = v.lo & 1;
    v.lo = (v.lo >> 1) | (v.hi << 63);
    v.hi >>= 1;
    if (lsb != 0) v.hi ^= 0xe100000000000000ULL;
  }
  return z;
}

void ref_ghash_absorb(RefBlock& y, const RefBlock& h, ByteView data) {
  for (size_t offset = 0; offset < data.size(); offset += 16) {
    uint8_t block[16] = {0};
    std::memcpy(block, data.data() + offset,
                std::min<size_t>(16, data.size() - offset));
    y.hi ^= load_be64(block);
    y.lo ^= load_be64(block + 8);
    y = ghash_multiply(y, h);
  }
}

// Reference AES-GCM encryption (SP 800-38D §7.1) on the reference GHASH.
GcmCiphertext reference_gcm_encrypt(ByteView key, ByteView iv, ByteView aad,
                                    ByteView plaintext) {
  const Aes aes(key);
  uint8_t block[16] = {0};
  uint8_t h_bytes[16];
  aes.encrypt_block(block, h_bytes);
  const RefBlock h{load_be64(h_bytes), load_be64(h_bytes + 8)};

  uint8_t j0[16];
  std::memcpy(j0, iv.data(), 12);
  store_be32(j0 + 12, 1);

  GcmCiphertext out;
  std::memcpy(out.iv.data(), iv.data(), kGcmIvSize);
  out.ciphertext.resize(plaintext.size());
  uint8_t counter[16];
  std::memcpy(counter, j0, 16);
  for (size_t i = 0; i < plaintext.size(); ++i) {
    if (i % 16 == 0) {
      store_be32(counter + 12, load_be32(counter + 12) + 1);
      aes.encrypt_block(counter, block);
    }
    out.ciphertext[i] = plaintext[i] ^ block[i % 16];
  }

  RefBlock y{0, 0};
  ref_ghash_absorb(y, h, aad);
  ref_ghash_absorb(y, h, out.ciphertext);
  y.hi ^= static_cast<uint64_t>(aad.size()) * 8;
  y.lo ^= static_cast<uint64_t>(out.ciphertext.size()) * 8;
  y = ghash_multiply(y, h);
  uint8_t e[16];
  aes.encrypt_block(j0, e);
  store_be64(out.tag.data(), y.hi);
  store_be64(out.tag.data() + 8, y.lo);
  for (int i = 0; i < 16; ++i) out.tag[i] ^= e[i];
  return out;
}

void expect_matches_reference(Rng& rng, size_t key_size, size_t aad_len,
                              size_t pt_len) {
  const Bytes key = rng.bytes(key_size);
  const Bytes iv = rng.bytes(kGcmIvSize);
  const Bytes aad = rng.bytes(aad_len);
  const Bytes pt = rng.bytes(pt_len);
  const GcmCiphertext want = reference_gcm_encrypt(key, iv, aad, pt);
  const GcmCiphertext got = gcm_encrypt(key, iv, aad, pt);
  ASSERT_EQ(hex_encode(got.ciphertext), hex_encode(want.ciphertext))
      << "key " << key_size << " aad " << aad_len << " pt " << pt_len;
  ASSERT_EQ(got.tag, want.tag)
      << "key " << key_size << " aad " << aad_len << " pt " << pt_len;
  const auto back =
      gcm_decrypt(key, iv, aad, want.ciphertext,
                  ByteView(want.tag.data(), want.tag.size()));
  ASSERT_TRUE(back.ok())
      << "key " << key_size << " aad " << aad_len << " pt " << pt_len;
  ASSERT_EQ(back.value(), pt);
}

TEST(GcmDifferential, MatchesReferenceOnEveryLengthUpTo300) {
  Rng rng(0x6c6d);
  for (const size_t key_size : {size_t{16}, size_t{32}}) {
    for (size_t len = 0; len <= 300; ++len) {
      // Every plaintext length with a random AAD length, and vice versa,
      // so both GHASH inputs cover full and partial final blocks.
      expect_matches_reference(rng, key_size, rng.uniform(301), len);
      expect_matches_reference(rng, key_size, len, rng.uniform(301));
    }
  }
}

TEST(AesDifferential, EncryptThenDecryptRoundTripsRandomBlocks) {
  // decrypt_block is the byte-wise inverse cipher, independent of the
  // T-table encrypt path, so a round trip cross-checks every round.
  Rng rng(0xae5);
  for (const size_t key_size : {size_t{16}, size_t{24}, size_t{32}}) {
    for (int trial = 0; trial < 200; ++trial) {
      const Aes aes(rng.bytes(key_size));
      const Bytes in = rng.bytes(16);
      uint8_t ct[16];
      uint8_t back[16];
      aes.encrypt_block(in.data(), ct);
      aes.decrypt_block(ct, back);
      ASSERT_EQ(hex_encode(ByteView(back, 16)), hex_encode(in))
          << "key " << key_size << " trial " << trial;
    }
  }
}

// RFC 4493 AES-CMAC test vectors.
TEST(Cmac, Rfc4493EmptyMessage) {
  const Bytes key = hx("2b7e151628aed2a6abf7158809cf4f3c");
  const CmacTag tag = aes_cmac(key, ByteView());
  EXPECT_EQ(hex_encode(ByteView(tag.data(), tag.size())),
            "bb1d6929e95937287fa37d129b756746");
}

TEST(Cmac, Rfc4493Block16) {
  const Bytes key = hx("2b7e151628aed2a6abf7158809cf4f3c");
  const CmacTag tag = aes_cmac(key, hx("6bc1bee22e409f96e93d7e117393172a"));
  EXPECT_EQ(hex_encode(ByteView(tag.data(), tag.size())),
            "070a16b46b4d4144f79bdd9dd04a287c");
}

TEST(Cmac, Rfc4493Block40) {
  const Bytes key = hx("2b7e151628aed2a6abf7158809cf4f3c");
  const CmacTag tag = aes_cmac(
      key, hx("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
              "30c81c46a35ce411"));
  EXPECT_EQ(hex_encode(ByteView(tag.data(), tag.size())),
            "dfa66747de9ae63030ca32611497c827");
}

TEST(Cmac, Rfc4493Block64) {
  const Bytes key = hx("2b7e151628aed2a6abf7158809cf4f3c");
  const CmacTag tag = aes_cmac(
      key, hx("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
              "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"));
  EXPECT_EQ(hex_encode(ByteView(tag.data(), tag.size())),
            "51f0bebf7e3b9d92fc49741779363cfe");
}

TEST(Drbg, DeterministicFromSeed) {
  const Bytes seed(32, 0x55);
  CtrDrbg a(seed);
  CtrDrbg b(seed);
  EXPECT_EQ(a.bytes(64), b.bytes(64));
}

TEST(Drbg, OutputAdvances) {
  CtrDrbg d(Bytes(32, 0x55));
  const Bytes first = d.bytes(32);
  const Bytes second = d.bytes(32);
  EXPECT_NE(first, second);
}

TEST(Drbg, DifferentSeedsDiffer) {
  CtrDrbg a(Bytes(32, 0x01));
  CtrDrbg b(Bytes(32, 0x02));
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(Drbg, ReseedChangesStream) {
  CtrDrbg a(Bytes(32, 0x01));
  CtrDrbg b(Bytes(32, 0x01));
  b.reseed(to_bytes(std::string_view("extra entropy")));
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(Drbg, RejectsShortSeed) {
  EXPECT_THROW(CtrDrbg(Bytes(16, 0)), std::invalid_argument);
}

}  // namespace
}  // namespace sgxmig::crypto
