// x86-64 AES kernels: AES-NI for the AES-128 key schedule, single blocks
// and the GCM CTR keystream, PCLMULQDQ for GHASH, and on CPUs with them
// 256-bit VAES and VPCLMULQDQ for GCM's 256-byte strides.  Every function
// that uses the instructions carries its own target attribute, so the
// rest of the build needs no -maes or -mavx2 and the binary runs on any
// x86-64 CPU; aes.cpp and gcm.cpp call in only after CPUID said yes
// (cpu_has_aesni, cpu_has_vaes).
#include "crypto/gcm_kernels.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>

#include <algorithm>
#include <cstring>
#endif

namespace sgxmig::crypto::gcm_kernels {

bool cpu_has_aesni() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr unsigned kNeeded = bit_AES | bit_PCLMUL | bit_SSSE3;
  return (ecx & kNeeded) == kNeeded;
#else
  return false;
#endif
}

bool cpu_has_vaes() {
#if defined(__x86_64__)
  if (!cpu_has_aesni()) return false;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr unsigned kXsaveAvx = bit_OSXSAVE | bit_AVX;
  if ((ecx & kXsaveAvx) != kXsaveAvx) return false;
  // XCR0 bits 1 and 2: the OS saves XMM and YMM state on a context switch.
  unsigned xcr0_lo = 0, xcr0_hi = 0;
  __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  if ((xcr0_lo & 0x6) != 0x6) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr unsigned kVaes = bit_VAES | bit_VPCLMULQDQ;
  return (ebx & bit_AVX2) != 0 && (ecx & kVaes) == kVaes;
#else
  return false;
#endif
}

#if defined(__x86_64__)

#define SGXMIG_AESNI __attribute__((target("aes,pclmul,ssse3")))
// The small helpers are forced inline: at -O2 GCC otherwise calls them
// and round-trips their vector arguments through memory.
#define SGXMIG_AESNI_INLINE \
  inline __attribute__((always_inline, target("aes,pclmul,ssse3")))
#define SGXMIG_VAES \
  __attribute__((target("aes,pclmul,ssse3,avx2,vaes,vpclmulqdq")))
#define SGXMIG_VAES_INLINE                \
  inline __attribute__((always_inline,    \
                        target("aes,pclmul,ssse3,avx2,vaes,vpclmulqdq")))

namespace {

SGXMIG_AESNI_INLINE __m128i load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

SGXMIG_AESNI_INLINE void store(uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

// Reverses the 16 bytes of a block: the counter's big-endian low word
// becomes lane 0, and a GHASH block becomes one 128-bit integer whose
// top bit is the x^0 coefficient (the bit-reflected form PCLMULQDQ
// multiplies in).
SGXMIG_AESNI_INLINE __m128i byte_reverse(__m128i v) {
  const __m128i mask =
      _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  return _mm_shuffle_epi8(v, mask);
}

// ----- CTR -----

struct RoundKeys {
  __m128i k[15];
  size_t rounds;
};

// inc32 on the byte-reversed counter block: a 32-bit add to lane 0,
// wrapping like SP 800-38D's inc32, with the other 96 bits untouched.
// Returns the next counter block in wire byte order.
SGXMIG_AESNI_INLINE __m128i next_counter(__m128i& reversed) {
  reversed = _mm_add_epi32(reversed, _mm_set_epi32(0, 0, 0, 1));
  return byte_reverse(reversed);
}

SGXMIG_AESNI RoundKeys load_round_keys(ByteView round_keys) {
  RoundKeys rk{};
  rk.rounds = round_keys.size() / 16 - 1;
  for (size_t i = 0; i <= rk.rounds; ++i) {
    rk.k[i] = load(round_keys.data() + 16 * i);
  }
  return rk;
}

// One AES-128 key-expansion step (FIPS-197 §5.2): aeskeygenassist gives
// SubWord(RotWord(w3)) ^ Rcon in its top lane, and the shifted XORs give
// each word the running XOR of the previous round key's words.
template <int kRcon>
SGXMIG_AESNI_INLINE __m128i expand_step(__m128i key) {
  const __m128i assist =
      _mm_shuffle_epi32(_mm_aeskeygenassist_si128(key, kRcon), 0xff);
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  return _mm_xor_si128(key, assist);
}

SGXMIG_AESNI_INLINE __m128i encrypt_block(const RoundKeys& rk, __m128i b) {
  b = _mm_xor_si128(b, rk.k[0]);
  for (size_t r = 1; r < rk.rounds; ++r) b = _mm_aesenc_si128(b, rk.k[r]);
  return _mm_aesenclast_si128(b, rk.k[rk.rounds]);
}

// Four blocks side by side, so the aesenc latency of one block hides
// behind the other three.  Written out by hand so that it stays four
// independent register chains without relying on loop unrolling.
struct Quad {
  __m128i b0, b1, b2, b3;
};

SGXMIG_AESNI_INLINE Quad encrypt_quad(const RoundKeys& rk, Quad q) {
  __m128i k = rk.k[0];
  q.b0 = _mm_xor_si128(q.b0, k);
  q.b1 = _mm_xor_si128(q.b1, k);
  q.b2 = _mm_xor_si128(q.b2, k);
  q.b3 = _mm_xor_si128(q.b3, k);
  for (size_t r = 1; r < rk.rounds; ++r) {
    k = rk.k[r];
    q.b0 = _mm_aesenc_si128(q.b0, k);
    q.b1 = _mm_aesenc_si128(q.b1, k);
    q.b2 = _mm_aesenc_si128(q.b2, k);
    q.b3 = _mm_aesenc_si128(q.b3, k);
  }
  k = rk.k[rk.rounds];
  q.b0 = _mm_aesenclast_si128(q.b0, k);
  q.b1 = _mm_aesenclast_si128(q.b1, k);
  q.b2 = _mm_aesenclast_si128(q.b2, k);
  q.b3 = _mm_aesenclast_si128(q.b3, k);
  return q;
}

// ----- GHASH -----

// The 256-bit carry-less product of two bit-reflected field elements,
// as (lo, hi) halves, before the shift and reduction.
struct Wide {
  __m128i lo;
  __m128i hi;
};

SGXMIG_AESNI_INLINE Wide clmul(__m128i a, __m128i b) {
  const __m128i ll = _mm_clmulepi64_si128(a, b, 0x00);
  const __m128i hh = _mm_clmulepi64_si128(a, b, 0x11);
  const __m128i mid = _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x10),
                                    _mm_clmulepi64_si128(a, b, 0x01));
  return Wide{_mm_xor_si128(ll, _mm_slli_si128(mid, 8)),
              _mm_xor_si128(hh, _mm_srli_si128(mid, 8))};
}

SGXMIG_AESNI_INLINE Wide operator^(const Wide& x, const Wide& y) {
  return Wide{_mm_xor_si128(x.lo, y.lo), _mm_xor_si128(x.hi, y.hi)};
}

// Reduces a (sum of) carry-less products modulo the GCM polynomial
// g = x^128 + x^7 + x^2 + x + 1 in the bit-reflected domain (Gueron and
// Kounavis, "Intel Carry-Less Multiplication Instruction and its Usage
// for Computing the GCM Mode").  The product of two reflected 128-bit
// values is the reflected 255-bit product, so it is first shifted left
// by one across all 256 bits.  The low half then holds the x^128..x^255
// terms, and x^128 = x^7 + x^2 + x + 1 folds them into the high half in
// two phases of shifts, done in 32-bit lanes.
SGXMIG_AESNI_INLINE __m128i reduce(const Wide& p) {
  // 256-bit shift left by one.
  const __m128i lo_carry = _mm_srli_epi32(p.lo, 31);
  const __m128i hi_carry = _mm_srli_epi32(p.hi, 31);
  __m128i lo = _mm_or_si128(_mm_slli_epi32(p.lo, 1),
                            _mm_slli_si128(lo_carry, 4));
  __m128i hi = _mm_or_si128(_mm_slli_epi32(p.hi, 1),
                            _mm_slli_si128(hi_carry, 4));
  hi = _mm_or_si128(hi, _mm_srli_si128(lo_carry, 12));

  // Phase 1: the part of lo·(x^7 + x^2 + x) that lands back inside lo.
  __m128i fold = _mm_xor_si128(
      _mm_xor_si128(_mm_slli_epi32(lo, 31), _mm_slli_epi32(lo, 30)),
      _mm_slli_epi32(lo, 25));
  const __m128i spill = _mm_srli_si128(fold, 4);
  lo = _mm_xor_si128(lo, _mm_slli_si128(fold, 12));

  // Phase 2: lo·(x^7 + x^2 + x + 1), with phase 1's spill, into hi.
  fold = _mm_xor_si128(
      _mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2)),
      _mm_xor_si128(_mm_srli_epi32(lo, 7), spill));
  return _mm_xor_si128(hi, _mm_xor_si128(lo, fold));
}

// Running GHASH over reflected blocks, four blocks per reduction:
// y' = (y ^ b0)·H^4 ^ b1·H^3 ^ b2·H^2 ^ b3·H.
class ClmulGhash {
 public:
  SGXMIG_AESNI explicit ClmulGhash(const uint8_t h[16]) {
    h_[0] = byte_reverse(load(h));
    for (int i = 1; i < 4; ++i) h_[i] = reduce(clmul(h_[i - 1], h_[0]));
  }

  SGXMIG_AESNI void update(ByteView data) {
    const uint8_t* p = data.data();
    size_t left = data.size();
    for (; left >= 64; p += 64, left -= 64) {
      const __m128i b0 = _mm_xor_si128(y_, byte_reverse(load(p)));
      const Wide sum = clmul(b0, h_[3]) ^
                       clmul(byte_reverse(load(p + 16)), h_[2]) ^
                       clmul(byte_reverse(load(p + 32)), h_[1]) ^
                       clmul(byte_reverse(load(p + 48)), h_[0]);
      y_ = reduce(sum);
    }
    for (; left >= 16; p += 16, left -= 16) absorb(p);
    if (left > 0) {
      uint8_t block[16] = {0};
      std::memcpy(block, p, left);
      absorb(block);
    }
  }

  SGXMIG_AESNI void lengths(uint64_t aad_bits, uint64_t ct_bits) {
    uint8_t block[16];
    store_be64(block, aad_bits);
    store_be64(block + 8, ct_bits);
    absorb(block);
  }

  SGXMIG_AESNI void digest(uint8_t out[16]) const {
    store(out, byte_reverse(y_));
  }

 protected:
  SGXMIG_AESNI_INLINE void absorb(const uint8_t block[16]) {
    y_ = reduce(clmul(_mm_xor_si128(y_, byte_reverse(load(block))), h_[0]));
  }

  __m128i h_[4];  // H^1..H^4, reflected
  __m128i y_ = _mm_setzero_si128();
};

// ----- 256-bit kernel -----

SGXMIG_VAES_INLINE __m256i load256(const uint8_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

SGXMIG_VAES_INLINE void store256(uint8_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

// byte_reverse on both 128-bit lanes.
SGXMIG_VAES_INLINE __m256i byte_reverse256(__m256i v) {
  const __m256i mask = _mm256_broadcastsi128_si256(
      _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
  return _mm256_shuffle_epi8(v, mask);
}

// Two blocks (the lanes of `v`) times two field elements (the lanes of
// `h`), accumulated as unreduced 128-bit halves: ll, hh and the two
// middle products, which fold into a Wide once per stride.
struct WideSum {
  __m256i ll;
  __m256i hh;
  __m256i mid;
};

SGXMIG_VAES_INLINE WideSum clmul256(__m256i v, __m256i h) {
  return WideSum{_mm256_clmulepi64_epi128(v, h, 0x00),
                 _mm256_clmulepi64_epi128(v, h, 0x11),
                 _mm256_xor_si256(_mm256_clmulepi64_epi128(v, h, 0x10),
                                  _mm256_clmulepi64_epi128(v, h, 0x01))};
}

SGXMIG_VAES_INLINE WideSum operator^(const WideSum& x, const WideSum& y) {
  return WideSum{_mm256_xor_si256(x.ll, y.ll), _mm256_xor_si256(x.hh, y.hh),
                 _mm256_xor_si256(x.mid, y.mid)};
}

// inc32 by `blocks` in both lanes of a pair of byte-reversed counters.
SGXMIG_VAES_INLINE __m256i step(int blocks) {
  return _mm256_set_epi32(0, 0, 0, blocks, 0, 0, 0, blocks);
}

SGXMIG_VAES_INLINE __m128i fold_lanes(__m256i v) {
  return _mm_xor_si128(_mm256_castsi256_si128(v),
                       _mm256_extracti128_si256(v, 1));
}

// ClmulGhash with the 256-byte strides on 256-bit VPCLMULQDQ:
// y' = (y ^ b0)·H^16 ^ b1·H^15 ^ ... ^ b15·H, one reduction per stride.
class VpclmulGhash : public ClmulGhash {
 public:
  SGXMIG_VAES explicit VpclmulGhash(const uint8_t h[16]) : ClmulGhash(h) {}

  SGXMIG_VAES void update(ByteView data) {
    const size_t whole = data.size() & ~size_t{255};
    if (whole != 0 && !have_powers_) make_powers();
    for (size_t offset = 0; offset != whole; offset += 256) {
      absorb_stride(data.data() + offset);
    }
    ClmulGhash::update(data.subspan(whole));
  }

 private:
  // pairs_[k] holds H^(16-2k) in its low lane and H^(15-2k) in its high
  // lane: the powers for blocks 2k and 2k+1 of a stride.
  SGXMIG_VAES void make_powers() {
    __m128i h[16];  // H^1..H^16
    for (int i = 0; i < 4; ++i) h[i] = h_[i];
    for (int i = 4; i < 8; ++i) h[i] = reduce(clmul(h[i - 4], h_[3]));
    for (int i = 8; i < 16; ++i) h[i] = reduce(clmul(h[i - 8], h[7]));
    for (int k = 0; k < 8; ++k) {
      pairs_[k] = _mm256_set_m128i(h[14 - 2 * k], h[15 - 2 * k]);
    }
    have_powers_ = true;
  }

  SGXMIG_VAES_INLINE static __m256i pair(const uint8_t* p) {
    return byte_reverse256(load256(p));
  }

  SGXMIG_VAES_INLINE void absorb_stride(const uint8_t* p) {
    const __m256i first = _mm256_xor_si256(
        pair(p), _mm256_set_m128i(_mm_setzero_si128(), y_));
    const WideSum sum = clmul256(first, pairs_[0]) ^
                        clmul256(pair(p + 32), pairs_[1]) ^
                        clmul256(pair(p + 64), pairs_[2]) ^
                        clmul256(pair(p + 96), pairs_[3]) ^
                        clmul256(pair(p + 128), pairs_[4]) ^
                        clmul256(pair(p + 160), pairs_[5]) ^
                        clmul256(pair(p + 192), pairs_[6]) ^
                        clmul256(pair(p + 224), pairs_[7]);
    const __m128i mid = fold_lanes(sum.mid);
    const __m128i lo =
        _mm_xor_si128(fold_lanes(sum.ll), _mm_slli_si128(mid, 8));
    const __m128i hi =
        _mm_xor_si128(fold_lanes(sum.hh), _mm_srli_si128(mid, 8));
    y_ = reduce(Wide{lo, hi});
  }

  __m256i pairs_[8] = {};
  bool have_powers_ = false;
};

}  // namespace

SGXMIG_AESNI void aesni_expand_key128(const uint8_t key[16],
                                      uint8_t round_keys[176]) {
  __m128i k = load(key);
  store(round_keys, k);
  k = expand_step<0x01>(k);
  store(round_keys + 16, k);
  k = expand_step<0x02>(k);
  store(round_keys + 32, k);
  k = expand_step<0x04>(k);
  store(round_keys + 48, k);
  k = expand_step<0x08>(k);
  store(round_keys + 64, k);
  k = expand_step<0x10>(k);
  store(round_keys + 80, k);
  k = expand_step<0x20>(k);
  store(round_keys + 96, k);
  k = expand_step<0x40>(k);
  store(round_keys + 112, k);
  k = expand_step<0x80>(k);
  store(round_keys + 128, k);
  k = expand_step<0x1b>(k);
  store(round_keys + 144, k);
  k = expand_step<0x36>(k);
  store(round_keys + 160, k);
}

SGXMIG_AESNI void aesni_encrypt_block(ByteView round_keys,
                                      const uint8_t in[16], uint8_t out[16]) {
  store(out, encrypt_block(load_round_keys(round_keys), load(in)));
}

SGXMIG_AESNI void aesni_ctr(ByteView round_keys, const uint8_t j0[16],
                            const uint8_t* in, size_t n, uint8_t* out) {
  const RoundKeys rk = load_round_keys(round_keys);
  __m128i counter = byte_reverse(load(j0));
  size_t offset = 0;
  for (; n - offset >= 64; offset += 64) {
    Quad q;
    q.b0 = next_counter(counter);
    q.b1 = next_counter(counter);
    q.b2 = next_counter(counter);
    q.b3 = next_counter(counter);
    q = encrypt_quad(rk, q);
    const uint8_t* src = in + offset;
    uint8_t* dst = out + offset;
    store(dst, _mm_xor_si128(q.b0, load(src)));
    store(dst + 16, _mm_xor_si128(q.b1, load(src + 16)));
    store(dst + 32, _mm_xor_si128(q.b2, load(src + 32)));
    store(dst + 48, _mm_xor_si128(q.b3, load(src + 48)));
  }
  for (; offset < n; offset += 16) {
    const __m128i keystream = encrypt_block(rk, next_counter(counter));
    const size_t take = std::min<size_t>(16, n - offset);
    uint8_t block[16] = {0};
    std::memcpy(block, in + offset, take);
    store(block, _mm_xor_si128(keystream, load(block)));
    std::memcpy(out + offset, block, take);
  }
}

SGXMIG_AESNI void clmul_ghash(const uint8_t h[16], ByteView aad, ByteView ct,
                              uint8_t s[16]) {
  ClmulGhash ghash(h);
  ghash.update(aad);
  ghash.update(ct);
  ghash.lengths(static_cast<uint64_t>(aad.size()) * 8,
                static_cast<uint64_t>(ct.size()) * 8);
  ghash.digest(s);
}

SGXMIG_VAES void vaes_ctr(ByteView round_keys, const uint8_t j0[16],
                          const uint8_t* in, size_t n, uint8_t* out) {
  const RoundKeys rk = load_round_keys(round_keys);
  __m256i k[15];
  for (size_t i = 0; i <= rk.rounds; ++i) {
    k[i] = _mm256_broadcastsi128_si256(rk.k[i]);
  }
  // Byte-reversed counters, as in aesni_ctr: the stride's first pair is
  // inc32 once and twice in the low and high lanes, and pair i adds 2i.
  __m256i counter = _mm256_add_epi32(
      _mm256_broadcastsi128_si256(byte_reverse(load(j0))),
      _mm256_set_epi32(0, 0, 0, 2, 0, 0, 0, 1));
  size_t offset = 0;
  // Sixteen blocks in eight registers, written out by hand so they stay
  // eight independent chains.
  for (; n - offset >= 256; offset += 256) {
    __m256i b0 = byte_reverse256(counter);
    __m256i b1 = byte_reverse256(_mm256_add_epi32(counter, step(2)));
    __m256i b2 = byte_reverse256(_mm256_add_epi32(counter, step(4)));
    __m256i b3 = byte_reverse256(_mm256_add_epi32(counter, step(6)));
    __m256i b4 = byte_reverse256(_mm256_add_epi32(counter, step(8)));
    __m256i b5 = byte_reverse256(_mm256_add_epi32(counter, step(10)));
    __m256i b6 = byte_reverse256(_mm256_add_epi32(counter, step(12)));
    __m256i b7 = byte_reverse256(_mm256_add_epi32(counter, step(14)));
    counter = _mm256_add_epi32(counter, step(16));
    __m256i key = k[0];
    b0 = _mm256_xor_si256(b0, key);
    b1 = _mm256_xor_si256(b1, key);
    b2 = _mm256_xor_si256(b2, key);
    b3 = _mm256_xor_si256(b3, key);
    b4 = _mm256_xor_si256(b4, key);
    b5 = _mm256_xor_si256(b5, key);
    b6 = _mm256_xor_si256(b6, key);
    b7 = _mm256_xor_si256(b7, key);
    for (size_t r = 1; r < rk.rounds; ++r) {
      key = k[r];
      b0 = _mm256_aesenc_epi128(b0, key);
      b1 = _mm256_aesenc_epi128(b1, key);
      b2 = _mm256_aesenc_epi128(b2, key);
      b3 = _mm256_aesenc_epi128(b3, key);
      b4 = _mm256_aesenc_epi128(b4, key);
      b5 = _mm256_aesenc_epi128(b5, key);
      b6 = _mm256_aesenc_epi128(b6, key);
      b7 = _mm256_aesenc_epi128(b7, key);
    }
    key = k[rk.rounds];
    const uint8_t* src = in + offset;
    uint8_t* dst = out + offset;
    store256(dst, _mm256_xor_si256(_mm256_aesenclast_epi128(b0, key),
                                   load256(src)));
    store256(dst + 32, _mm256_xor_si256(_mm256_aesenclast_epi128(b1, key),
                                        load256(src + 32)));
    store256(dst + 64, _mm256_xor_si256(_mm256_aesenclast_epi128(b2, key),
                                        load256(src + 64)));
    store256(dst + 96, _mm256_xor_si256(_mm256_aesenclast_epi128(b3, key),
                                        load256(src + 96)));
    store256(dst + 128, _mm256_xor_si256(_mm256_aesenclast_epi128(b4, key),
                                         load256(src + 128)));
    store256(dst + 160, _mm256_xor_si256(_mm256_aesenclast_epi128(b5, key),
                                         load256(src + 160)));
    store256(dst + 192, _mm256_xor_si256(_mm256_aesenclast_epi128(b6, key),
                                         load256(src + 192)));
    store256(dst + 224, _mm256_xor_si256(_mm256_aesenclast_epi128(b7, key),
                                         load256(src + 224)));
  }
  if (offset == n) return;
  // The tail runs aesni_ctr from the counter the strides reached.
  uint8_t next[16];
  std::memcpy(next, j0, 16);
  store_be32(next + 12,
             load_be32(j0 + 12) + static_cast<uint32_t>(offset / 16));
  aesni_ctr(round_keys, next, in + offset, n - offset, out + offset);
}

SGXMIG_VAES void vpclmul_ghash(const uint8_t h[16], ByteView aad, ByteView ct,
                               uint8_t s[16]) {
  VpclmulGhash ghash(h);
  ghash.update(aad);
  ghash.update(ct);
  ghash.lengths(static_cast<uint64_t>(aad.size()) * 8,
                static_cast<uint64_t>(ct.size()) * 8);
  ghash.digest(s);
}

#endif  // __x86_64__

}  // namespace sgxmig::crypto::gcm_kernels
