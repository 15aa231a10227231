// AES-128/192/256 block cipher (FIPS 197), implemented from scratch.
//
// Encryption uses 32-bit T-table rounds: four 256-entry word tables,
// built at compile time from the S-box, fold SubBytes, ShiftRows and
// MixColumns into lookups and XORs, and the final round uses the plain
// S-box.  Decryption stays byte-wise (inverse S-box plus column mixing in
// GF(2^8)): GCM and CMAC only ever encrypt blocks, so nothing hot uses it.
// Both index tables with secret-dependent bytes, as the byte S-box always
// did; cache-timing side channels are outside this simulator's threat
// model.  Virtual time comes from the cost model, never from this code's
// speed, and bench/bench_crypto.cpp measures its throughput.
//
// AES-GCM runs on AES-NI where the CPU has it (crypto/gcm_kernels.h):
// that kernel takes its round keys from round_keys() below, so there is
// one key schedule.  These T-table rounds are then the portable kernel:
// the only one on CPUs without AES-NI, and the reference the hardware
// kernel is tested against.  CMAC and the DRBG always use them.
#pragma once

#include <array>
#include <cstdint>

#include "support/bytes.h"

namespace sgxmig::crypto {

using Aes128Key = std::array<uint8_t, 16>;

class Aes {
 public:
  /// `key` must be 16, 24, or 32 bytes.
  explicit Aes(ByteView key);

  void encrypt_block(const uint8_t in[16], uint8_t out[16]) const;
  void decrypt_block(const uint8_t in[16], uint8_t out[16]) const;

  /// The FIPS-197 key schedule, one 16-byte round key per round from the
  /// initial AddRoundKey on (16 * (rounds + 1) bytes), in the byte order
  /// AES-NI's aesenc takes: the hardware GCM kernel runs on these.
  ByteView round_keys() const {
    return ByteView(round_keys_, 16 * static_cast<size_t>(rounds_ + 1));
  }

  static constexpr size_t kBlockSize = 16;

 private:
  uint8_t round_keys_[15 * 16];  // up to 14 rounds + initial
  int rounds_;
};

}  // namespace sgxmig::crypto
