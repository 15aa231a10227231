#include "crypto/gcm.h"

#include <array>
#include <cstring>
#include <stdexcept>

#include "crypto/aes.h"

namespace sgxmig::crypto {

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

void ctr_crypt(const Aes& aes, const uint8_t j0[16], ByteView in, Bytes& out) {
  uint8_t counter[16];
  std::memcpy(counter, j0, 16);
  out.resize(in.size());
  size_t offset = 0;
  while (offset < in.size()) {
    // Increment the low 32 bits (inc32).
    uint32_t ctr = load_be32(counter + 12);
    store_be32(counter + 12, ctr + 1);
    uint8_t keystream[16];
    aes.encrypt_block(counter, keystream);
    const size_t take = std::min<size_t>(16, in.size() - offset);
    for (size_t i = 0; i < take; ++i) {
      out[offset + i] = in[offset + i] ^ keystream[i];
    }
    offset += take;
  }
}

void compute_tag(const Aes& aes, const Block& hash_subkey,
                 const uint8_t j0[16], ByteView aad, ByteView ciphertext,
                 uint8_t tag[16]) {
  Ghash ghash(hash_subkey);
  ghash.update(aad);
  ghash.update(ciphertext);
  ghash.lengths(static_cast<uint64_t>(aad.size()) * 8,
                static_cast<uint64_t>(ciphertext.size()) * 8);
  uint8_t s[16];
  store_block(s, ghash.digest());
  uint8_t e[16];
  aes.encrypt_block(j0, e);
  for (int i = 0; i < 16; ++i) tag[i] = s[i] ^ e[i];
}

}  // namespace

GcmCiphertext gcm_encrypt(ByteView key, ByteView iv, ByteView aad,
                          ByteView plaintext) {
  if (iv.size() != kGcmIvSize) {
    throw std::invalid_argument("gcm_encrypt: IV must be 12 bytes");
  }
  const Aes aes(key);
  uint8_t zero[16] = {0};
  uint8_t h_bytes[16];
  aes.encrypt_block(zero, h_bytes);
  const Block h = load_block(h_bytes);

  uint8_t j0[16];
  std::memcpy(j0, iv.data(), 12);
  store_be32(j0 + 12, 1);

  GcmCiphertext out;
  std::memcpy(out.iv.data(), iv.data(), kGcmIvSize);
  ctr_crypt(aes, j0, plaintext, out.ciphertext);
  compute_tag(aes, h, j0, aad, out.ciphertext, out.tag.data());
  return out;
}

Result<Bytes> gcm_decrypt(ByteView key, ByteView iv, ByteView aad,
                          ByteView ciphertext, ByteView tag) {
  if (iv.size() != kGcmIvSize || tag.size() != kGcmTagSize) {
    return Status::kInvalidParameter;
  }
  const Aes aes(key);
  uint8_t zero[16] = {0};
  uint8_t h_bytes[16];
  aes.encrypt_block(zero, h_bytes);
  const Block h = load_block(h_bytes);

  uint8_t j0[16];
  std::memcpy(j0, iv.data(), 12);
  store_be32(j0 + 12, 1);

  uint8_t expected_tag[16];
  compute_tag(aes, h, j0, aad, ciphertext, expected_tag);
  if (!constant_time_eq(ByteView(expected_tag, 16), tag)) {
    return Status::kMacMismatch;
  }
  Bytes plaintext;
  ctr_crypt(aes, j0, ciphertext, plaintext);
  return plaintext;
}

}  // namespace sgxmig::crypto
