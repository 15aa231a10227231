#include "support/bytes.h"

#include <cstring>

namespace sgxmig {

Bytes to_bytes(ByteView view) { return Bytes(view.begin(), view.end()); }

Bytes to_bytes(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

std::string to_string(ByteView view) {
  return std::string(view.begin(), view.end());
}

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string hex_encode(ByteView view) {
  std::string out;
  out.reserve(view.size() * 2);
  for (uint8_t b : view) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0x0f]);
  }
  return out;
}

Bytes hex_decode(std::string_view hex, bool* ok) {
  if (ok != nullptr) *ok = false;
  if (hex.size() % 2 != 0) return {};
  Bytes out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_nibble(hex[i]);
    const int lo = hex_nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return {};
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  if (ok != nullptr) *ok = true;
  return out;
}

bool constant_time_eq(ByteView a, ByteView b) {
  if (a.size() != b.size()) return false;
  uint8_t acc = 0;
  for (size_t i = 0; i < a.size(); ++i) acc |= static_cast<uint8_t>(a[i] ^ b[i]);
  return acc == 0;
}

void secure_wipe(uint8_t* data, size_t len) {
  if (len == 0) return;
  std::memset(data, 0, len);
  // The empty asm may read the zeroed bytes, so the compiler cannot drop
  // the memset as a dead store to a buffer about to be freed.  A volatile
  // byte loop is ~50x slower (2.2 us vs 0.04 us for a 5.4 KB Table II on
  // x86-64 at -O2), and the library wipes its Table II on every counter
  // mutation.
  asm volatile("" : : "r"(data) : "memory");
}

void secure_wipe(Bytes& buffer) { secure_wipe(buffer.data(), buffer.size()); }

void append(Bytes& dst, ByteView suffix) {
  dst.insert(dst.end(), suffix.begin(), suffix.end());
}

}  // namespace sgxmig
