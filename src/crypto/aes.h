// AES-128/192/256 block cipher (FIPS 197), implemented from scratch.
//
// The kernel is chosen once per process from CPUID with no option to
// override (the same choice that picks the AES-GCM kernel,
// crypto/gcm_kernels.h): on x86-64 with AES-NI, PCLMULQDQ and SSSE3,
// aesenc rounds and an aeskeygenassist AES-128 key schedule (gcm_x86.cpp),
// which the kVaes GCM kernel also runs for its key schedule and single
// blocks; elsewhere the portable kernel below.  Every AES user (GCM,
// CMAC, the DRBG) runs the selected kernel, and every kernel produces the
// same round keys and blocks byte for byte.
//
// The portable kernel encrypts with 32-bit T-table rounds: four 256-entry
// word tables, built at compile time from the S-box, fold SubBytes,
// ShiftRows and MixColumns into lookups and XORs, and the final round
// uses the plain S-box.  It is the only kernel on CPUs without AES-NI and
// the reference the tests hold the hardware kernels to.  Decryption stays
// byte-wise on every kernel (inverse S-box plus column mixing in
// GF(2^8)): GCM and CMAC only ever encrypt blocks, so nothing hot uses it.
// The tables index with secret-dependent bytes, as the byte S-box always
// did; cache-timing side channels are outside this simulator's threat
// model.  Virtual time comes from the cost model, never from this code's
// speed, and bench/bench_crypto.cpp measures its throughput.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/gcm_kernels.h"
#include "support/bytes.h"

namespace sgxmig::crypto {

using Aes128Key = std::array<uint8_t, 16>;

class Aes {
 public:
  using Kernel = gcm_kernels::Kernel;

  /// `key` must be 16, 24, or 32 bytes.  kAesNi requires
  /// gcm_kernels::cpu_has_aesni(), kVaes gcm_kernels::cpu_has_vaes(); both
  /// run the AES-NI schedule and blocks.
  explicit Aes(ByteView key, Kernel kernel = gcm_kernels::selected());

  void encrypt_block(const uint8_t in[16], uint8_t out[16]) const;
  void decrypt_block(const uint8_t in[16], uint8_t out[16]) const;

  /// The FIPS-197 key schedule, one 16-byte round key per round from the
  /// initial AddRoundKey on (16 * (rounds + 1) bytes), in the byte order
  /// AES-NI's aesenc takes.  Identical on every kernel.
  ByteView round_keys() const {
    return ByteView(round_keys_, 16 * static_cast<size_t>(rounds_ + 1));
  }
  Kernel kernel() const { return kernel_; }

  static constexpr size_t kBlockSize = 16;

 private:
  uint8_t round_keys_[15 * 16];  // up to 14 rounds + initial
  int rounds_;
  Kernel kernel_;
};

}  // namespace sgxmig::crypto
