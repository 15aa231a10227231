// Cloud provider (data-center operator) credentials.
//
// Paper §V-B: during a secure setup phase the operator provisions each
// Migration Enclave with a key/certificate so that MEs can authenticate
// each other as "machines of the same cloud provider" (Requirement R2) —
// and, as an extension, restrict migration to subsets of machines
// (regions) for regulatory compliance.
#pragma once

#include <string>

#include "crypto/ed25519.h"
#include "support/bytes.h"
#include "support/serde.h"
#include "support/status.h"

namespace sgxmig::platform {

/// Certificate binding (machine address, region, certified capabilities,
/// ME signing key) under the operator's CA key.
struct MachineCredential {
  std::string address;
  std::string region;
  uint32_t cpu_cores = 0;  // certified computational capability (§X policies)
  crypto::Ed25519PublicKey machine_public_key{};
  crypto::Ed25519Signature signature{};

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.str(m.address, 256);
    io.str(m.region, 256);
    io.u32(m.cpu_cores);
    io.fixed(m.machine_public_key);
    io.fixed(m.signature);
  }
};

class ProviderCa {
 public:
  explicit ProviderCa(uint64_t seed);

  const crypto::Ed25519PublicKey& public_key() const {
    return ca_key_.public_key();
  }

  MachineCredential issue(const std::string& address, const std::string& region,
                          uint32_t cpu_cores,
                          const crypto::Ed25519PublicKey& machine_public_key);

  static bool verify(const crypto::Ed25519PublicKey& ca_public_key,
                     const MachineCredential& credential);

 private:
  static Bytes message_for(const MachineCredential& credential);

  crypto::Ed25519KeyPair ca_key_;
};

}  // namespace sgxmig::platform
