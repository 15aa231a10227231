// Core identity types of the simulated SGX model, mirroring the SDK's
// sgx_measurement_t / sgx_report_data_t / key request structures.
#pragma once

#include <array>
#include <cstdint>

#include "support/bytes.h"
#include "support/serde.h"

namespace sgxmig::sgx {

/// 256-bit measurement: MRENCLAVE (code identity) or MRSIGNER (hash of the
/// enclave developer's signing public key).
using Measurement = std::array<uint8_t, 32>;

/// 64 bytes of application data bound into a local-attestation REPORT or a
/// remote-attestation quote (e.g. a hash of key-agreement messages).
using ReportData = std::array<uint8_t, 64>;

/// Random wear-out/diversification value in a key request.
using KeyId = std::array<uint8_t, 32>;

/// 128-bit symmetric key, the width of all SGX derived keys.
using Key128 = std::array<uint8_t, 16>;

/// Which identity a derived key is bound to (sgx_key_policy).
enum class KeyPolicy : uint16_t {
  kMrEnclave = 0x0001,  // only this exact enclave code
  kMrSigner = 0x0002,   // any enclave from the same signer
};

/// Which key EGETKEY derives (subset of sgx_key_name relevant here).
enum class KeyName : uint16_t {
  kSeal = 4,
  kReport = 3,
};

struct EnclaveIdentity {
  Measurement mr_enclave{};
  Measurement mr_signer{};
  uint16_t isv_prod_id = 0;
  uint16_t isv_svn = 0;

  bool operator==(const EnclaveIdentity&) const = default;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.fixed(m.mr_enclave);
    io.fixed(m.mr_signer);
    io.u16(m.isv_prod_id);
    io.u16(m.isv_svn);
  }
};

/// Identity of the enclave a REPORT is targeted at (sgx_target_info_t).
struct TargetInfo {
  Measurement mr_enclave{};
};

}  // namespace sgxmig::sgx
