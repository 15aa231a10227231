#include "crypto/cmac.h"

#include <cstring>

namespace sgxmig::crypto {

namespace {

// Doubling in GF(2^128) with the CMAC polynomial (left shift, conditional
// XOR of 0x87 into the last byte).
void gf_double(uint8_t block[16]) {
  const uint8_t carry = block[0] >> 7;
  for (int i = 0; i < 15; ++i) {
    block[i] = static_cast<uint8_t>((block[i] << 1) | (block[i + 1] >> 7));
  }
  block[15] = static_cast<uint8_t>(block[15] << 1);
  if (carry != 0) block[15] ^= 0x87;
}

}  // namespace

Cmac::Cmac(ByteView key) : aes_(key) {
  uint8_t zero[16] = {0};
  aes_.encrypt_block(zero, k1_);
  gf_double(k1_);
  std::memcpy(k2_, k1_, 16);
  gf_double(k2_);
}

CmacTag Cmac::mac(ByteView message) const {
  const size_t n = message.size();
  const size_t full_blocks = n == 0 ? 0 : (n - 1) / 16;
  const size_t last_len = n - full_blocks * 16;  // 1..16 (0 only if n == 0)

  uint8_t x[16] = {0};
  for (size_t b = 0; b < full_blocks; ++b) {
    for (int i = 0; i < 16; ++i) x[i] ^= message[b * 16 + i];
    aes_.encrypt_block(x, x);
  }

  uint8_t last[16] = {0};
  if (n != 0 && last_len == 16) {
    for (int i = 0; i < 16; ++i) {
      last[i] = message[full_blocks * 16 + i] ^ k1_[i];
    }
  } else {
    for (size_t i = 0; i < last_len; ++i) last[i] = message[full_blocks * 16 + i];
    last[last_len] = 0x80;
    for (int i = 0; i < 16; ++i) last[i] ^= k2_[i];
  }
  for (int i = 0; i < 16; ++i) x[i] ^= last[i];

  CmacTag tag{};
  aes_.encrypt_block(x, tag.data());
  return tag;
}

CmacTag aes_cmac(ByteView key, ByteView message) {
  return Cmac(key).mac(message);
}

}  // namespace sgxmig::crypto
