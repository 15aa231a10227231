#include "support/serde.h"

namespace sgxmig {

bool BinaryReader::take(size_t n) {
  if (failed_ || data_.size() - pos_ < n) {
    failed_ = true;
    return false;
  }
  pos_ += n;
  return true;
}

uint8_t BinaryReader::u8() {
  if (!take(1)) return 0;
  return data_[pos_ - 1];
}

uint16_t BinaryReader::u16() {
  if (!take(2)) return 0;
  return static_cast<uint16_t>(data_[pos_ - 2]) |
         static_cast<uint16_t>(data_[pos_ - 1]) << 8;
}

uint32_t BinaryReader::u32() {
  if (!take(4)) return 0;
  return load_le32(data_.data() + pos_ - 4);
}

uint64_t BinaryReader::u64() {
  if (!take(8)) return 0;
  return load_le64(data_.data() + pos_ - 8);
}

bool BinaryReader::boolean() {
  const uint8_t v = u8();
  if (v > 1) failed_ = true;
  return v == 1;
}

Bytes BinaryReader::bytes(size_t max_len) {
  const uint32_t len = u32();
  if (failed_ || len > max_len) {
    failed_ = true;
    return {};
  }
  return raw(len);
}

std::string BinaryReader::str(size_t max_len) {
  Bytes b = bytes(max_len);
  return std::string(b.begin(), b.end());
}

Bytes BinaryReader::raw(size_t len) { return to_bytes(view(len)); }

ByteView BinaryReader::view(size_t len) {
  if (!take(len)) return {};
  return data_.subspan(pos_ - len, len);
}

}  // namespace sgxmig
