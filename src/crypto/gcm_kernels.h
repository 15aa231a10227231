// The AES kernels, and the AES-GCM kernels built on them, behind
// crypto::Aes and crypto::gcm_encrypt / gcm_decrypt.
//
// Internal to the crypto layer (and its tests and microbenchmarks): one
// kernel is picked per process from CPUID and callers never choose.
// crypto::Aes runs its key schedule and blocks on it, so GCM, CMAC and
// the DRBG all do.  The GCM kernels share gcm.cpp's framing (J0, the tag
// mask, verify-before-decrypt) and differ only in the CTR keystream and
// the GHASH multiply:
//   * kPortable — T-table AES and Shoup 4-bit GHASH, plain C++.  The only
//     kernel on a CPU without AES-NI, and the reference the hardware
//     kernels are tested against.
//   * kAesNi — x86-64 only: an aeskeygenassist AES-128 key schedule,
//     aesenc rounds with four CTR blocks in flight, and PCLMULQDQ
//     carry-less GHASH over four blocks per reduction.
//   * kVaes — x86-64 with AVX2, VAES and VPCLMULQDQ (and YMM state saved
//     by the OS): CTR runs 16 blocks per 256-byte stride on 256-bit
//     vaesenc, and GHASH multiplies each stride by H^16..H^1 with 256-bit
//     vpclmulqdq and reduces once per stride.  Tails under 256 bytes,
//     single blocks and the key schedule (so CMAC and the DRBG) run the
//     kAesNi code.
// The x86 kernels live in gcm_x86.cpp, compiled with per-function target
// attributes so the binary still runs on CPUs without the instructions.
// All three produce byte-identical round keys, blocks, ciphertexts and
// tags.
#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/gcm.h"

namespace sgxmig::crypto::gcm_kernels {

enum class Kernel { kPortable, kAesNi, kVaes };

const char* kernel_name(Kernel kernel);

/// True iff CPUID reports AES-NI, PCLMULQDQ and SSSE3; always false off
/// x86-64.
bool cpu_has_aesni();
/// True iff cpu_has_aesni() and CPUID reports AVX2, VAES and VPCLMULQDQ,
/// and XGETBV says the OS saves YMM state; always false off x86-64.
bool cpu_has_vaes();

/// The kernel crypto::Aes and gcm_encrypt/gcm_decrypt run, chosen once
/// per process: kVaes, else kAesNi, else kPortable.
Kernel selected();

/// gcm_encrypt/gcm_decrypt on a given kernel.  kAesNi requires
/// cpu_has_aesni(), kVaes cpu_has_vaes().
GcmCiphertext encrypt(Kernel kernel, ByteView key, ByteView iv, ByteView aad,
                      ByteView plaintext);
Result<Bytes> decrypt(Kernel kernel, ByteView key, ByteView iv, ByteView aad,
                      ByteView ciphertext, ByteView tag);
/// gcm_encrypt_into on a given kernel.
void encrypt_into(Kernel kernel, ByteView key, ByteView iv, ByteView aad,
                  ByteView plaintext, uint8_t* ciphertext,
                  uint8_t tag[kGcmTagSize]);

#if defined(__x86_64__)
/// The AES-128 key schedule of a 16-byte key: the 176 bytes of
/// `crypto::Aes::round_keys()`.
void aesni_expand_key128(const uint8_t key[16], uint8_t round_keys[176]);
/// One AES block with the round keys of `crypto::Aes::round_keys()`.
void aesni_encrypt_block(ByteView round_keys, const uint8_t in[16],
                         uint8_t out[16]);
/// CTR keystream from inc32(j0) on, XORed over `n` bytes of `in` into
/// `out`, with the AES round keys of `crypto::Aes::round_keys()`.
void aesni_ctr(ByteView round_keys, const uint8_t j0[16], const uint8_t* in,
               size_t n, uint8_t* out);
/// GHASH_H(aad || pad || ct || pad || bit lengths) into `s`.
void clmul_ghash(const uint8_t h[16], ByteView aad, ByteView ct,
                 uint8_t s[16]);
/// aesni_ctr and clmul_ghash on the kVaes kernel; cpu_has_vaes() must
/// hold.  `out` is `in` or does not overlap it.
void vaes_ctr(ByteView round_keys, const uint8_t j0[16], const uint8_t* in,
              size_t n, uint8_t* out);
void vpclmul_ghash(const uint8_t h[16], ByteView aad, ByteView ct,
                   uint8_t s[16]);
#endif

}  // namespace sgxmig::crypto::gcm_kernels
