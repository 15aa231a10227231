#include "crypto/drbg.h"

#include <cstring>
#include <stdexcept>

#include "crypto/aes.h"

namespace sgxmig::crypto {

CtrDrbg::CtrDrbg(ByteView seed) {
  if (seed.size() < 32) {
    throw std::invalid_argument("CtrDrbg: seed must be >= 32 bytes");
  }
  update(key_schedule(), seed.subspan(0, 32));
}

Aes CtrDrbg::key_schedule() const {
  return Aes(ByteView(key_.data(), key_.size()));
}

void CtrDrbg::increment_v() {
  for (int i = 15; i >= 0; --i) {
    if (++v_[i] != 0) break;
  }
}

void CtrDrbg::update(const Aes& aes, ByteView provided) {
  uint8_t temp[32];
  for (int block = 0; block < 2; ++block) {
    increment_v();
    aes.encrypt_block(v_.data(), temp + 16 * block);
  }
  for (size_t i = 0; i < 32 && i < provided.size(); ++i) temp[i] ^= provided[i];
  std::memcpy(key_.data(), temp, 16);
  std::memcpy(v_.data(), temp + 16, 16);
}

void CtrDrbg::generate(uint8_t* out, size_t len) {
  // One key schedule serves the draw and the update that rekeys after it.
  const Aes aes = key_schedule();
  size_t offset = 0;
  while (offset < len) {
    increment_v();
    uint8_t block[16];
    aes.encrypt_block(v_.data(), block);
    const size_t take = std::min<size_t>(16, len - offset);
    std::memcpy(out + offset, block, take);
    offset += take;
  }
  update(aes, ByteView());
}

Bytes CtrDrbg::bytes(size_t len) {
  Bytes out(len);
  generate(out.data(), len);
  return out;
}

void CtrDrbg::reseed(ByteView entropy) { update(key_schedule(), entropy); }

}  // namespace sgxmig::crypto
