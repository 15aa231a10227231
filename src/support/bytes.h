// Byte-buffer utilities shared across the whole library.
//
// `Bytes` is the canonical owned byte buffer; `ByteView` the non-owning view.
// All cryptographic comparisons must go through `constant_time_eq`.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sgxmig {

using Bytes = std::vector<uint8_t>;
using ByteView = std::span<const uint8_t>;

/// Creates an owned buffer from any contiguous byte range.
Bytes to_bytes(ByteView view);

/// Creates an owned buffer from the raw characters of a string (no NUL).
Bytes to_bytes(std::string_view text);

/// Interprets a byte buffer as text (bytes are copied verbatim).
std::string to_string(ByteView view);

/// Lower-case hex encoding ("deadbeef").
std::string hex_encode(ByteView view);

/// Decodes lower/upper-case hex; returns empty and sets `ok=false` on
/// malformed input (odd length or non-hex characters).
Bytes hex_decode(std::string_view hex, bool* ok = nullptr);

/// Constant-time equality; returns false for mismatched lengths without
/// inspecting contents.
bool constant_time_eq(ByteView a, ByteView b);

/// Best-effort secure wipe (volatile writes so the compiler keeps them).
void secure_wipe(uint8_t* data, size_t len);
void secure_wipe(Bytes& buffer);

/// Appends `suffix` to `dst`.
void append(Bytes& dst, ByteView suffix);

/// XORs `src` into `dst` (lengths must match; asserts in debug).
void xor_into(std::span<uint8_t> dst, ByteView src);

/// Loads/stores in big-endian and little-endian byte order.  The
/// big-endian ones are inline: the AES, GHASH and SHA kernels call them
/// once per word.
inline uint32_t load_be32(const uint8_t* p) {
  return (uint32_t{p[0]} << 24) | (uint32_t{p[1]} << 16) |
         (uint32_t{p[2]} << 8) | uint32_t{p[3]};
}

inline uint64_t load_be64(const uint8_t* p) {
  return (uint64_t{load_be32(p)} << 32) | load_be32(p + 4);
}

inline void store_be32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

inline void store_be64(uint8_t* p, uint64_t v) {
  store_be32(p, static_cast<uint32_t>(v >> 32));
  store_be32(p + 4, static_cast<uint32_t>(v));
}

uint32_t load_le32(const uint8_t* p);
uint64_t load_le64(const uint8_t* p);
void store_le32(uint8_t* p, uint32_t v);
void store_le64(uint8_t* p, uint64_t v);

/// Fixed-size array helpers (measurements, keys, MACs are all fixed width).
template <size_t N>
std::array<uint8_t, N> to_array(ByteView view) {
  std::array<uint8_t, N> out{};
  const size_t n = view.size() < N ? view.size() : N;
  for (size_t i = 0; i < n; ++i) out[i] = view[i];
  return out;
}

template <size_t N>
Bytes to_bytes(const std::array<uint8_t, N>& a) {
  return Bytes(a.begin(), a.end());
}

}  // namespace sgxmig
