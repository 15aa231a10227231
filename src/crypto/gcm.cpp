#include "crypto/gcm.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

#include "crypto/aes.h"
#include "crypto/gcm_kernels.h"

namespace sgxmig::crypto {
namespace gcm_kernels {

namespace {

struct Block {
  uint64_t hi = 0;
  uint64_t lo = 0;
};

Block load_block(const uint8_t* p) {
  return Block{load_be64(p), load_be64(p + 8)};
}

void store_block(uint8_t* p, const Block& b) {
  store_be64(p, b.hi);
  store_be64(p + 8, b.lo);
}

// Multiplication by x in GF(2^128) with the GCM polynomial.  GCM's bit
// order puts x^0 in the most significant bit, so this is a right shift
// that folds the x^128 term back in as 0xe1 << 120 (SP 800-38D §6.3).
constexpr Block mul_x(const Block& v) {
  const uint64_t lsb = v.lo & 1;
  return Block{(v.hi >> 1) ^ (lsb * 0xe100000000000000ULL),
               (v.lo >> 1) | (v.hi << 63)};
}

// kReduce4[r]: what shifting the four coefficients x^124..x^127 (the low
// nibble r) past x^127 folds back into the high word.
constexpr std::array<uint64_t, 16> make_reduce4() {
  std::array<uint64_t, 16> table{};
  for (uint64_t r = 0; r < 16; ++r) {
    Block b{0, r};
    for (int i = 0; i < 4; ++i) b = mul_x(b);
    table[r] = b.hi;
  }
  return table;
}

constexpr std::array<uint64_t, 16> kReduce4 = make_reduce4();

// GHASH with Shoup's 4-bit tables: m_[n] = n·H for every 4-bit n (the
// nibble's top bit is the x^0 coefficient), so one multiplication by H is
// 32 Horner steps of "multiply by x^4, add a table entry" instead of 128
// shift-and-add steps.
class Ghash {
 public:
  explicit Ghash(const Block& h) {
    m_[8] = h;
    m_[4] = mul_x(m_[8]);
    m_[2] = mul_x(m_[4]);
    m_[1] = mul_x(m_[2]);
    for (int i = 2; i < 16; i <<= 1) {
      for (int j = 1; j < i; ++j) {
        m_[i + j] = Block{m_[i].hi ^ m_[j].hi, m_[i].lo ^ m_[j].lo};
      }
    }
  }

  void update(ByteView data) {
    const uint8_t* p = data.data();
    size_t left = data.size();
    for (; left >= 16; p += 16, left -= 16) absorb(load_block(p));
    if (left > 0) {
      uint8_t block[16] = {0};
      std::memcpy(block, p, left);
      absorb(load_block(block));
    }
  }

  void lengths(uint64_t aad_bits, uint64_t ct_bits) {
    absorb(Block{aad_bits, ct_bits});
  }

  Block digest() const { return y_; }

 private:
  // y = (y ^ b)·H, nibbles taken from x^127 down to x^0.
  void absorb(const Block& b) {
    const uint64_t hi = y_.hi ^ b.hi;
    const uint64_t lo = y_.lo ^ b.lo;
    Block z = m_[lo & 0xf];
    for (int n = 1; n < 32; ++n) {
      const uint64_t word = n < 16 ? lo : hi;
      const uint64_t nibble = (word >> (4 * (n & 15))) & 0xf;
      const uint64_t rem = z.lo & 0xf;
      z.lo = (z.lo >> 4) | (z.hi << 60);
      z.hi = (z.hi >> 4) ^ kReduce4[rem];
      z.hi ^= m_[nibble].hi;
      z.lo ^= m_[nibble].lo;
    }
    y_ = z;
  }

  std::array<Block, 16> m_{};
  Block y_{0, 0};
};

void portable_ctr(const Aes& aes, const uint8_t j0[16], const uint8_t* in,
                  size_t n, uint8_t* out) {
  uint8_t counter[16];
  std::memcpy(counter, j0, 16);
  for (size_t offset = 0; offset < n; offset += 16) {
    // Increment the low 32 bits (inc32).
    store_be32(counter + 12, load_be32(counter + 12) + 1);
    uint8_t keystream[16];
    aes.encrypt_block(counter, keystream);
    const size_t take = std::min<size_t>(16, n - offset);
    for (size_t i = 0; i < take; ++i) {
      out[offset + i] = in[offset + i] ^ keystream[i];
    }
  }
}

void portable_ghash(const uint8_t h[16], ByteView aad, ByteView ct,
                    uint8_t s[16]) {
  Ghash ghash(load_block(h));
  ghash.update(aad);
  ghash.update(ct);
  ghash.lengths(static_cast<uint64_t>(aad.size()) * 8,
                static_cast<uint64_t>(ct.size()) * 8);
  store_block(s, ghash.digest());
}

// The kernel-independent framing of SP 800-38D: the hash subkey
// H = E(0^128), J0 = IV || 1 and the tag mask E(J0), on the kernel's AES.
// The kernel also supplies the CTR keystream and the GHASH.
class Gcm {
 public:
  Gcm(Kernel kernel, ByteView key, ByteView iv) : aes_(key, kernel) {
    const uint8_t zero[16] = {0};
    aes_.encrypt_block(zero, h_);
    std::memcpy(j0_, iv.data(), kGcmIvSize);
    store_be32(j0_ + 12, 1);
  }

  // `out` is `in.data()` or does not overlap `in`.
  void ctr(ByteView in, uint8_t* out) const {
#if defined(__x86_64__)
    if (aes_.kernel() == Kernel::kVaes) {
      vaes_ctr(aes_.round_keys(), j0_, in.data(), in.size(), out);
      return;
    }
    if (aes_.kernel() == Kernel::kAesNi) {
      aesni_ctr(aes_.round_keys(), j0_, in.data(), in.size(), out);
      return;
    }
#endif
    portable_ctr(aes_, j0_, in.data(), in.size(), out);
  }

  void tag(ByteView aad, ByteView ciphertext, uint8_t out[16]) const {
    ghash(aad, ciphertext, out);
    uint8_t mask[16];
    aes_.encrypt_block(j0_, mask);
    for (int i = 0; i < 16; ++i) out[i] ^= mask[i];
  }

 private:
  void ghash(ByteView aad, ByteView ciphertext, uint8_t out[16]) const {
#if defined(__x86_64__)
    if (aes_.kernel() == Kernel::kVaes) {
      vpclmul_ghash(h_, aad, ciphertext, out);
      return;
    }
    if (aes_.kernel() == Kernel::kAesNi) {
      clmul_ghash(h_, aad, ciphertext, out);
      return;
    }
#endif
    portable_ghash(h_, aad, ciphertext, out);
  }

  Aes aes_;
  uint8_t h_[16] = {};
  uint8_t j0_[16] = {};
};

}  // namespace

const char* kernel_name(Kernel kernel) {
  switch (kernel) {
    case Kernel::kPortable:
      return "portable";
    case Kernel::kAesNi:
      return "aesni-pclmul";
    case Kernel::kVaes:
      return "vaes-vpclmul";
  }
  return "unknown";
}

Kernel selected() {
  static const Kernel kernel = cpu_has_vaes()    ? Kernel::kVaes
                               : cpu_has_aesni() ? Kernel::kAesNi
                                                 : Kernel::kPortable;
  return kernel;
}

void encrypt_into(Kernel kernel, ByteView key, ByteView iv, ByteView aad,
                  ByteView plaintext, uint8_t* ciphertext,
                  uint8_t tag[kGcmTagSize]) {
  if (iv.size() != kGcmIvSize) {
    throw std::invalid_argument("gcm_encrypt: IV must be 12 bytes");
  }
  const Gcm gcm(kernel, key, iv);
  gcm.ctr(plaintext, ciphertext);
  gcm.tag(aad, ByteView(ciphertext, plaintext.size()), tag);
}

GcmCiphertext encrypt(Kernel kernel, ByteView key, ByteView iv, ByteView aad,
                      ByteView plaintext) {
  GcmCiphertext out;
  out.ciphertext.resize(plaintext.size());
  encrypt_into(kernel, key, iv, aad, plaintext, out.ciphertext.data(),
               out.tag.data());
  std::memcpy(out.iv.data(), iv.data(), kGcmIvSize);
  return out;
}

Result<Bytes> decrypt(Kernel kernel, ByteView key, ByteView iv, ByteView aad,
                      ByteView ciphertext, ByteView tag) {
  if (iv.size() != kGcmIvSize || tag.size() != kGcmTagSize) {
    return Status::kInvalidParameter;
  }
  const Gcm gcm(kernel, key, iv);
  uint8_t expected_tag[16];
  gcm.tag(aad, ciphertext, expected_tag);
  if (!constant_time_eq(ByteView(expected_tag, 16), tag)) {
    return Status::kMacMismatch;
  }
  Bytes plaintext(ciphertext.size());
  gcm.ctr(ciphertext, plaintext.data());
  return plaintext;
}

}  // namespace gcm_kernels

GcmCiphertext gcm_encrypt(ByteView key, ByteView iv, ByteView aad,
                          ByteView plaintext) {
  return gcm_kernels::encrypt(gcm_kernels::selected(), key, iv, aad,
                              plaintext);
}

void gcm_encrypt_into(ByteView key, ByteView iv, ByteView aad,
                      ByteView plaintext, uint8_t* ciphertext,
                      uint8_t tag[kGcmTagSize]) {
  gcm_kernels::encrypt_into(gcm_kernels::selected(), key, iv, aad, plaintext,
                            ciphertext, tag);
}

Result<Bytes> gcm_decrypt(ByteView key, ByteView iv, ByteView aad,
                          ByteView ciphertext, ByteView tag) {
  return gcm_kernels::decrypt(gcm_kernels::selected(), key, iv, aad,
                              ciphertext, tag);
}

}  // namespace sgxmig::crypto
