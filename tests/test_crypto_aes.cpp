// AES / GCM / CMAC / DRBG tests against published vectors (FIPS 197
// appendix C, SP 800-38A, the original GCM spec test cases, RFC 4493)
// and a pinned DRBG stream, plus differential tests of every AES and GCM
// kernel (portable T-table/Shoup; AES-NI + PCLMULQDQ, and 256-bit VAES +
// VPCLMULQDQ, where the CPU has them) against the portable kernel and
// simple reference implementations on seeded random inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "crypto/aes.h"
#include "crypto/cmac.h"
#include "crypto/drbg.h"
#include "crypto/gcm.h"
#include "crypto/gcm_kernels.h"
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

// ---- GCM, run through each kernel ----
//
// Every GCM test below runs once per kernel (crypto/gcm_kernels.h): the
// portable T-table/Shoup kernel always, the AES-NI + PCLMULQDQ and the
// VAES + VPCLMULQDQ kernels where the CPU has them.  The public
// gcm_encrypt/gcm_decrypt run the selected kernel; GcmKernelSelection
// pins which one that is.

using gcm_kernels::Kernel;

std::string kernel_test_name(const ::testing::TestParamInfo<Kernel>& param) {
  switch (param.param) {
    case Kernel::kPortable:
      return "Portable";
    case Kernel::kAesNi:
      return "AesNi";
    case Kernel::kVaes:
      return "Vaes";
  }
  return "Unknown";
}

class GcmKernelTest : public ::testing::TestWithParam<Kernel> {
 protected:
  void SetUp() override {
    if (GetParam() == Kernel::kAesNi && !gcm_kernels::cpu_has_aesni()) {
      GTEST_SKIP() << "CPU lacks AES-NI/PCLMULQDQ/SSSE3";
    }
    if (GetParam() == Kernel::kVaes && !gcm_kernels::cpu_has_vaes()) {
      GTEST_SKIP() << "CPU lacks AVX2/VAES/VPCLMULQDQ";
    }
  }

  GcmCiphertext encrypt(ByteView key, ByteView iv, ByteView aad,
                        ByteView plaintext) const {
    return gcm_kernels::encrypt(GetParam(), key, iv, aad, plaintext);
  }

  Result<Bytes> decrypt(ByteView key, ByteView iv, ByteView aad,
                        const GcmCiphertext& ct) const {
    return gcm_kernels::decrypt(GetParam(), key, iv, aad, ct.ciphertext,
                                ByteView(ct.tag.data(), ct.tag.size()));
  }
};

INSTANTIATE_TEST_SUITE_P(Kernels, GcmKernelTest,
                         ::testing::Values(Kernel::kPortable, Kernel::kAesNi,
                                           Kernel::kVaes),
                         kernel_test_name);

TEST_P(GcmKernelTest, SpecTestCase1EmptyEverything) {
  const Bytes key(16, 0);
  const Bytes iv(12, 0);
  const GcmCiphertext ct = encrypt(key, iv, ByteView(), ByteView());
  EXPECT_TRUE(ct.ciphertext.empty());
  EXPECT_EQ(hex_encode(ByteView(ct.tag.data(), ct.tag.size())),
            "58e2fccefa7e3061367f1d57a4e7455a");
}

TEST_P(GcmKernelTest, SpecTestCase2SingleZeroBlock) {
  const Bytes key(16, 0);
  const Bytes iv(12, 0);
  const Bytes pt(16, 0);
  const GcmCiphertext ct = encrypt(key, iv, ByteView(), pt);
  EXPECT_EQ(hex_encode(ct.ciphertext), "0388dace60b6a392f328c2b971b2fe78");
  EXPECT_EQ(hex_encode(ByteView(ct.tag.data(), ct.tag.size())),
            "ab6e47d42cec13bdf53a67b21257bddf");
}

TEST_P(GcmKernelTest, SpecTestCase3FourBlocks) {
  const Bytes key = hx("feffe9928665731c6d6a8f9467308308");
  const Bytes iv = hx("cafebabefacedbaddecaf888");
  const Bytes pt = hx(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255");
  const GcmCiphertext ct = encrypt(key, iv, ByteView(), pt);
  EXPECT_EQ(hex_encode(ct.ciphertext),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985");
  EXPECT_EQ(hex_encode(ByteView(ct.tag.data(), ct.tag.size())),
            "4d5c2af327cd64a62cf35abd2ba6fab4");
}

TEST_P(GcmKernelTest, SpecTestCase4WithAad) {
  const Bytes key = hx("feffe9928665731c6d6a8f9467308308");
  const Bytes iv = hx("cafebabefacedbaddecaf888");
  const Bytes pt = hx(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const Bytes aad = hx("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  const GcmCiphertext ct = encrypt(key, iv, aad, pt);
  EXPECT_EQ(hex_encode(ct.ciphertext),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091");
  EXPECT_EQ(hex_encode(ByteView(ct.tag.data(), ct.tag.size())),
            "5bc94fbc3221a5db94fae95ae7121a47");
  // Round trip.
  const auto back = decrypt(key, iv, aad, ct);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), pt);
}

TEST_P(GcmKernelTest, SpecTestCase16Aes256WithAad) {
  // The original GCM spec's 256-bit key case (test case 16): 14 rounds.
  const Bytes key = hx(
      "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308");
  const Bytes iv = hx("cafebabefacedbaddecaf888");
  const Bytes pt = hx(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const Bytes aad = hx("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  const GcmCiphertext ct = encrypt(key, iv, aad, pt);
  EXPECT_EQ(hex_encode(ct.ciphertext),
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
            "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662");
  EXPECT_EQ(hex_encode(ByteView(ct.tag.data(), ct.tag.size())),
            "76fc6ece0f4e1768cddf8853bb2d551b");
}

TEST_P(GcmKernelTest, DecryptRejectsTamperedCiphertext) {
  const Bytes key(16, 0x42);
  const Bytes iv(12, 0x01);
  const Bytes pt = to_bytes(std::string_view("attack at dawn"));
  GcmCiphertext ct = encrypt(key, iv, ByteView(), pt);
  ct.ciphertext[3] ^= 0x80;
  const auto r = decrypt(key, iv, ByteView(), ct);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status(), Status::kMacMismatch);
}

TEST_P(GcmKernelTest, DecryptRejectsTamperedAad) {
  const Bytes key(16, 0x42);
  const Bytes iv(12, 0x01);
  const Bytes pt = to_bytes(std::string_view("attack at dawn"));
  const Bytes aad = to_bytes(std::string_view("header-v1"));
  const GcmCiphertext ct = encrypt(key, iv, aad, pt);
  const Bytes bad_aad = to_bytes(std::string_view("header-v2"));
  const auto r = decrypt(key, iv, bad_aad, ct);
  EXPECT_EQ(r.status(), Status::kMacMismatch);
}

TEST_P(GcmKernelTest, DecryptRejectsWrongKey) {
  const Bytes key(16, 0x42);
  const Bytes other_key(16, 0x43);
  const Bytes iv(12, 0x01);
  const Bytes pt = to_bytes(std::string_view("secret"));
  const GcmCiphertext ct = encrypt(key, iv, ByteView(), pt);
  const auto r = decrypt(other_key, iv, ByteView(), ct);
  EXPECT_EQ(r.status(), Status::kMacMismatch);
}

TEST_P(GcmKernelTest, DecryptRejectsTamperedTagAndBadSizes) {
  const Bytes key(16, 0x42);
  const Bytes iv(12, 0x01);
  const Bytes pt(100, 0x5a);
  GcmCiphertext ct = encrypt(key, iv, ByteView(), pt);
  ct.tag[15] ^= 0x01;
  EXPECT_EQ(decrypt(key, iv, ByteView(), ct).status(),
            Status::kMacMismatch);
  EXPECT_EQ(gcm_kernels::decrypt(GetParam(), key, iv, ByteView(),
                                 ct.ciphertext, ByteView(ct.tag.data(), 15))
                .status(),
            Status::kInvalidParameter);
  EXPECT_EQ(gcm_kernels::decrypt(GetParam(), key, Bytes(11, 0), ByteView(),
                                 ct.ciphertext,
                                 ByteView(ct.tag.data(), ct.tag.size()))
                .status(),
            Status::kInvalidParameter);
  EXPECT_THROW(encrypt(key, Bytes(16, 0), ByteView(), pt),
               std::invalid_argument);
}

TEST_P(GcmKernelTest, Aes256KeysWork) {
  const Bytes key(32, 0x11);
  const Bytes iv(12, 0x22);
  const Bytes pt = to_bytes(std::string_view("sealed with a 256-bit key"));
  const GcmCiphertext ct = encrypt(key, iv, ByteView(), pt);
  const auto back = decrypt(key, iv, ByteView(), ct);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), pt);
}

TEST_P(GcmKernelTest, RoundTripManySizes) {
  const Bytes key(16, 0x37);
  for (size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16}, size_t{17},
                   size_t{100}, size_t{1000}, size_t{4096}}) {
    Bytes pt(n);
    for (size_t i = 0; i < n; ++i) pt[i] = static_cast<uint8_t>(i * 7 + 1);
    Bytes iv(12, static_cast<uint8_t>(n & 0xff));
    const GcmCiphertext ct = encrypt(key, iv, ByteView(), pt);
    const auto back = decrypt(key, iv, ByteView(), ct);
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

// Reference CTR (SP 800-38D §6.5): the keystream of inc32(j0) on, one
// byte at a time, on the portable AES.
Bytes reference_ctr(const Aes& aes, const uint8_t j0[16], ByteView in) {
  Bytes out(in.size());
  uint8_t counter[16];
  std::memcpy(counter, j0, 16);
  uint8_t block[16];
  for (size_t i = 0; i < in.size(); ++i) {
    if (i % 16 == 0) {
      store_be32(counter + 12, load_be32(counter + 12) + 1);
      aes.encrypt_block(counter, block);
    }
    out[i] = in[i] ^ block[i % 16];
  }
  return out;
}

// Reference AES-GCM encryption (SP 800-38D §7.1) on the reference GHASH.
GcmCiphertext reference_gcm_encrypt(ByteView key, ByteView iv, ByteView aad,
                                    ByteView plaintext) {
  const Aes aes(key, Kernel::kPortable);
  const uint8_t zero[16] = {0};
  uint8_t h_bytes[16];
  aes.encrypt_block(zero, h_bytes);
  const RefBlock h{load_be64(h_bytes), load_be64(h_bytes + 8)};

  uint8_t j0[16];
  std::memcpy(j0, iv.data(), 12);
  store_be32(j0 + 12, 1);

  GcmCiphertext out;
  std::memcpy(out.iv.data(), iv.data(), kGcmIvSize);
  out.ciphertext = reference_ctr(aes, j0, plaintext);

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

void expect_matches_reference(Kernel kernel, Rng& rng, size_t key_size,
                              size_t aad_len, size_t pt_len) {
  const Bytes key = rng.bytes(key_size);
  const Bytes iv = rng.bytes(kGcmIvSize);
  const Bytes aad = rng.bytes(aad_len);
  const Bytes pt = rng.bytes(pt_len);
  const GcmCiphertext want = reference_gcm_encrypt(key, iv, aad, pt);
  const GcmCiphertext got = gcm_kernels::encrypt(kernel, key, iv, aad, pt);
  ASSERT_EQ(hex_encode(got.ciphertext), hex_encode(want.ciphertext))
      << "key " << key_size << " aad " << aad_len << " pt " << pt_len;
  ASSERT_EQ(got.tag, want.tag)
      << "key " << key_size << " aad " << aad_len << " pt " << pt_len;
  const auto back =
      gcm_kernels::decrypt(kernel, key, iv, aad, want.ciphertext,
                           ByteView(want.tag.data(), want.tag.size()));
  ASSERT_TRUE(back.ok())
      << "key " << key_size << " aad " << aad_len << " pt " << pt_len;
  ASSERT_EQ(back.value(), pt);
}

TEST_P(GcmKernelTest, MatchesReferenceOnEveryLengthUpTo300) {
  Rng rng(0x6c6d);
  for (const size_t key_size : {size_t{16}, size_t{32}}) {
    for (size_t len = 0; len <= 300; ++len) {
      // Every plaintext length with a random AAD length, and vice versa,
      // so both GHASH inputs cover full and partial final blocks.
      expect_matches_reference(GetParam(), rng, key_size, rng.uniform(301),
                               len);
      expect_matches_reference(GetParam(), rng, key_size, len,
                               rng.uniform(301));
    }
  }
}

TEST_P(GcmKernelTest, MatchesReferenceOnEveryLengthUpTo1100) {
  // Past four 256-byte strides: every stride count with every tail, and
  // every AAD length up to 70 bytes, on AES-128 and AES-256.
  Rng rng(0x1100);
  for (const size_t key_size : {size_t{16}, size_t{32}}) {
    for (size_t len = 0; len <= 1100; ++len) {
      expect_matches_reference(GetParam(), rng, key_size, len % 71, len);
    }
  }
}

TEST_P(GcmKernelTest, EncryptsInPlaceLikeIntoAFreshBuffer) {
  Rng rng(0x1a1a);
  for (const size_t len : {size_t{0}, size_t{1}, size_t{255}, size_t{256},
                           size_t{257}, size_t{5436}}) {
    const Bytes key = rng.bytes(16);
    const Bytes iv = rng.bytes(kGcmIvSize);
    const Bytes aad = rng.bytes(38);
    Bytes buffer = rng.bytes(len);
    const GcmCiphertext want = encrypt(key, iv, aad, buffer);
    uint8_t tag[kGcmTagSize];
    gcm_kernels::encrypt_into(GetParam(), key, iv, aad, buffer, buffer.data(),
                              tag);
    EXPECT_EQ(buffer, want.ciphertext) << len;
    EXPECT_EQ(hex_encode(ByteView(tag, kGcmTagSize)),
              hex_encode(ByteView(want.tag.data(), want.tag.size())))
        << len;
  }
}

TEST_P(GcmKernelTest, MatchesReferenceAtSealedBufferSizes) {
  // A sealed Table II (LibraryState, 5,436 B) and the largest sealed ME
  // queue blob of the precopy_live benchmark (65,082 B), each with and
  // without AAD and one byte either side.
  Rng rng(0x5ea1);
  for (const size_t len : {size_t{5436}, size_t{65082}}) {
    for (const size_t n : {len - 1, len, len + 1}) {
      expect_matches_reference(GetParam(), rng, 16, 0, n);
      expect_matches_reference(GetParam(), rng, 16, 37, n);
    }
  }
}

TEST(GcmKernelSelection, HardwareKernelIsSelectedWhenTheCpuHasIt) {
  // Asks the CPU directly (not through gcm_kernels::cpu_has_*), so a
  // silent fallback to a slower kernel fails here: VAES, then AES-NI,
  // then portable.
#if defined(__x86_64__)
  const bool has_aesni = __builtin_cpu_supports("aes") &&
                         __builtin_cpu_supports("pclmul") &&
                         __builtin_cpu_supports("ssse3");
  const bool has_vaes = has_aesni && __builtin_cpu_supports("avx2") &&
                        __builtin_cpu_supports("vaes") &&
                        __builtin_cpu_supports("vpclmulqdq");
#else
  const bool has_aesni = false;
  const bool has_vaes = false;
#endif
  EXPECT_EQ(gcm_kernels::cpu_has_aesni(), has_aesni);
  EXPECT_EQ(gcm_kernels::cpu_has_vaes(), has_vaes);
  const Kernel expected = has_vaes    ? Kernel::kVaes
                          : has_aesni ? Kernel::kAesNi
                                      : Kernel::kPortable;
  EXPECT_EQ(gcm_kernels::selected(), expected)
      << "selected " << gcm_kernels::kernel_name(gcm_kernels::selected());
  // The public entry points run the selected kernel.
  const Bytes key(16, 0x0b);
  const Bytes iv(12, 0x0c);
  const Bytes pt(200, 0x0d);
  const GcmCiphertext got = gcm_encrypt(key, iv, ByteView(), pt);
  const GcmCiphertext want =
      gcm_kernels::encrypt(Kernel::kPortable, key, iv, ByteView(), pt);
  EXPECT_EQ(got.ciphertext, want.ciphertext);
  EXPECT_EQ(got.tag, want.tag);
  const auto back = gcm_decrypt(key, iv, ByteView(), got.ciphertext,
                                ByteView(got.tag.data(), got.tag.size()));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), pt);
}

#if defined(__x86_64__)
TEST(GcmCtr, LowCounterWordWrapsInsideAStride) {
  // A 12-byte IV always starts the counter at 1, so no GCM call wraps it;
  // the CTR kernels are run directly from a J0 whose low word wraps
  // inside the first 256-byte stride, the second, and the tail after
  // two, and must leave the other 96 counter bits alone.
  if (!gcm_kernels::cpu_has_aesni()) GTEST_SKIP() << "CPU lacks AES-NI";
  Rng rng(0xc7e0);
  for (const size_t key_size : {size_t{16}, size_t{32}}) {
    const Bytes key = rng.bytes(key_size);
    const Aes aes(key, Kernel::kAesNi);
    const Aes portable(key, Kernel::kPortable);
    for (const uint32_t low : {0xfffffff8u, 0xffffffebu, 0xffffffdeu}) {
      uint8_t j0[16];
      const Bytes iv = rng.bytes(12);
      std::memcpy(j0, iv.data(), 12);
      store_be32(j0 + 12, low);
      for (const size_t len : {size_t{256}, size_t{600}, size_t{1031}}) {
        const Bytes in = rng.bytes(len);
        const Bytes want = reference_ctr(portable, j0, in);
        Bytes got(len);
        gcm_kernels::aesni_ctr(aes.round_keys(), j0, in.data(), len,
                               got.data());
        EXPECT_EQ(got, want) << "aesni key " << key_size << " low " << low
                             << " len " << len;
        if (!gcm_kernels::cpu_has_vaes()) continue;
        gcm_kernels::vaes_ctr(aes.round_keys(), j0, in.data(), len,
                              got.data());
        EXPECT_EQ(got, want) << "vaes key " << key_size << " low " << low
                             << " len " << len;
      }
    }
  }
}
#endif

// ---- the AES block cipher, run through each kernel ----
//
// FIPS-197 appendix C and the SP 800-38A ECB vectors at every key size,
// and random keys and blocks against the portable kernel.

class AesKernelTest : public ::testing::TestWithParam<Kernel> {
 protected:
  void SetUp() override {
    if (GetParam() == Kernel::kAesNi && !gcm_kernels::cpu_has_aesni()) {
      GTEST_SKIP() << "CPU lacks AES-NI/PCLMULQDQ/SSSE3";
    }
  }

  std::string encrypt_hex(ByteView key, ByteView block) const {
    const Aes aes(key, GetParam());
    uint8_t out[16];
    aes.encrypt_block(block.data(), out);
    return hex_encode(ByteView(out, 16));
  }
};

INSTANTIATE_TEST_SUITE_P(Kernels, AesKernelTest,
                         ::testing::Values(Kernel::kPortable, Kernel::kAesNi),
                         kernel_test_name);

TEST_P(AesKernelTest, Fips197AppendixC) {
  const Bytes pt = hx("00112233445566778899aabbccddeeff");
  EXPECT_EQ(encrypt_hex(hx("000102030405060708090a0b0c0d0e0f"), pt),
            "69c4e0d86a7b0430d8cdb78070b4c55a");
  EXPECT_EQ(
      encrypt_hex(hx("000102030405060708090a0b0c0d0e0f1011121314151617"), pt),
      "dda97ca4864cdfe06eaf70a0ec0d7191");
  EXPECT_EQ(encrypt_hex(hx("000102030405060708090a0b0c0d0e0f"
                           "101112131415161718191a1b1c1d1e1f"),
                        pt),
            "8ea2b7ca516745bfeafc49904b496089");
}

TEST_P(AesKernelTest, Sp800_38aEcbVectors) {
  const char* const plaintexts[4] = {
      "6bc1bee22e409f96e93d7e117393172a", "ae2d8a571e03ac9c9eb76fac45af8e51",
      "30c81c46a35ce411e5fbc1191a0a52ef", "f69f2445df4f9b17ad2b417be66c3710"};
  struct Vector {
    const char* key;
    const char* ciphertexts[4];
  };
  const Vector vectors[] = {
      {"2b7e151628aed2a6abf7158809cf4f3c",  // F.1.1 ECB-AES128
       {"3ad77bb40d7a3660a89ecaf32466ef97", "f5d3d58503b9699de785895a96fdbaaf",
        "43b1cd7f598ece23881b00e3ed030688", "7b0c785e27e8ad3f8223207104725dd4"}},
      {"8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",  // F.1.3 ECB-AES192
       {"bd334f1d6e45f25ff712a214571fa5cc", "974104846d0ad3ad7734ecb3ecee4eef",
        "ef7afd2270e2e60adce0ba2face6444e", "9a4b41ba738d6c72fb16691603c18e0e"}},
      {"603deb1015ca71be2b73aef0857d7781"  // F.1.5 ECB-AES256
       "1f352c073b6108d72d9810a30914dff4",
       {"f3eed1bdb5d2a03c064b5a7e3db181f8", "591ccb10d410ed26dc5ba74a31362870",
        "b6ed21b99ca6f4f9f153e7b1beafed1d", "23304b7a39f9f3ff067d8d8f9e24ecc7"}},
  };
  for (const Vector& v : vectors) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(encrypt_hex(hx(v.key), hx(plaintexts[i])), v.ciphertexts[i])
          << "key " << v.key << " block " << i;
    }
  }
}

TEST_P(AesKernelTest, RandomKeysAndBlocksMatchThePortableKernel) {
  Rng rng(0xae51);
  for (const size_t key_size : {size_t{16}, size_t{24}, size_t{32}}) {
    for (int trial = 0; trial < 300; ++trial) {
      const Bytes key = rng.bytes(key_size);
      const Bytes in = rng.bytes(16);
      const Aes portable(key, Kernel::kPortable);
      uint8_t want[16];
      portable.encrypt_block(in.data(), want);
      ASSERT_EQ(encrypt_hex(key, in), hex_encode(ByteView(want, 16)))
          << "key " << key_size << " trial " << trial;
    }
  }
}

TEST_P(AesKernelTest, RoundKeysMatchThePortableSchedule) {
  Rng rng(0x5c4e);
  for (const size_t key_size : {size_t{16}, size_t{24}, size_t{32}}) {
    for (int trial = 0; trial < 300; ++trial) {
      const Bytes key = rng.bytes(key_size);
      const Aes aes(key, GetParam());
      ASSERT_EQ(aes.kernel(), GetParam());
      ASSERT_EQ(hex_encode(aes.round_keys()),
                hex_encode(Aes(key, Kernel::kPortable).round_keys()))
          << "key " << key_size << " trial " << trial;
    }
  }
  // FIPS-197 appendix A.1: the last AES-128 round key.
  const Aes aes(hx("2b7e151628aed2a6abf7158809cf4f3c"), GetParam());
  EXPECT_EQ(hex_encode(aes.round_keys().last(16)),
            "d014f9a8c9ee2589e13f0cc8b6630ca6");
}

TEST(AesDifferential, EncryptThenDecryptRoundTripsRandomBlocks) {
  // decrypt_block is the byte-wise inverse cipher, independent of either
  // encrypt kernel, so a round trip cross-checks every round.
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

TEST(Cmac, KeyedOnceMacsEveryRfc4493Message) {
  const Cmac cmac(hx("2b7e151628aed2a6abf7158809cf4f3c"));
  const std::pair<const char*, const char*> vectors[] = {
      {"", "bb1d6929e95937287fa37d129b756746"},
      {"6bc1bee22e409f96e93d7e117393172a", "070a16b46b4d4144f79bdd9dd04a287c"},
      {"6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
       "30c81c46a35ce411",
       "dfa66747de9ae63030ca32611497c827"},
      {"6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
       "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
       "51f0bebf7e3b9d92fc49741779363cfe"},
  };
  for (const auto& [message, tag] : vectors) {
    const CmacTag got = cmac.mac(hx(message));
    EXPECT_EQ(hex_encode(ByteView(got.data(), got.size())), tag) << message;
  }
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

// The exact stream one fixed seed draws: a partial block, whole blocks, an
// empty draw (which still rekeys), a multi-block tail, and draws after a
// reseed.  Every simulated nonce, key and IV comes from this generator.
TEST(Drbg, KnownAnswerStream) {
  Bytes seed(48);
  for (size_t i = 0; i < seed.size(); ++i) {
    seed[i] = static_cast<uint8_t>(7 * i + 1);
  }
  CtrDrbg drbg(seed);
  EXPECT_EQ(hex_encode(drbg.bytes(12)), "7de5f5881587ebea2ccf671b");
  EXPECT_EQ(hex_encode(drbg.bytes(32)),
            "4bc73417154351320b526313feb65a4c7dbff6989b0b74d211bca41f117abac0");
  EXPECT_TRUE(drbg.bytes(0).empty());
  EXPECT_EQ(hex_encode(drbg.bytes(33)),
            "87f33a7b7f660dbb5bd0174b70e8842f21acfbd7f256b791a0136061dfca9e11cc");
  drbg.reseed(to_bytes(std::string_view("reseed entropy")));
  EXPECT_EQ(hex_encode(drbg.bytes(12)), "5fd146a77519c81ce52fcc3b");
  EXPECT_EQ(hex_encode(drbg.bytes(16)), "55259745b5f6a2ffcdf6adf0b4fee5d4");
}

TEST(Drbg, RejectsShortSeed) {
  EXPECT_THROW(CtrDrbg(Bytes(16, 0)), std::invalid_argument);
}

}  // namespace
}  // namespace sgxmig::crypto
