#include "support/rng.h"

#include <cmath>

namespace sgxmig {

namespace {
// splitmix64 — used to expand the seed into the xoshiro state.
uint64_t splitmix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
}

uint64_t Rng::next_u64() {
  const uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

uint32_t Rng::next_u32() { return static_cast<uint32_t>(next_u64() >> 32); }

uint64_t Rng::uniform(uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::uniform_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::gaussian() {
  if (have_spare_gaussian_) {
    have_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u, v, s;
  do {
    u = 2.0 * uniform_double() - 1.0;
    v = 2.0 * uniform_double() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_gaussian_ = v * factor;
  have_spare_gaussian_ = true;
  return u * factor;
}

double Rng::jitter(double sigma) {
  const double f = 1.0 + sigma * gaussian();
  return f < 0.05 ? 0.05 : f;
}

void Rng::fill(uint8_t* out, size_t len) {
  size_t i = 0;
  while (i + 8 <= len) {
    const uint64_t r = next_u64();
    for (int b = 0; b < 8; ++b) out[i++] = static_cast<uint8_t>(r >> (8 * b));
  }
  if (i < len) {
    const uint64_t r = next_u64();
    int b = 0;
    while (i < len) out[i++] = static_cast<uint8_t>(r >> (8 * b++));
  }
}

Bytes Rng::bytes(size_t len) {
  Bytes out(len);
  fill(out.data(), len);
  return out;
}

}  // namespace sgxmig
