#include "platform/provider.h"

#include "crypto/sha256.h"

namespace sgxmig::platform {

ProviderCa::ProviderCa(uint64_t seed)
    : ca_key_(crypto::Ed25519KeyPair::from_seed(crypto::Sha256::hash(
          to_bytes("provider-ca:" + std::to_string(seed))))) {}

Bytes ProviderCa::message_for(const MachineCredential& credential) {
  BinaryWriter w;
  w.str("SGXMIG-MACHINE-CRED-v1");
  w.str(credential.address);
  w.str(credential.region);
  w.u32(credential.cpu_cores);
  w.fixed(credential.machine_public_key);
  return w.take();
}

MachineCredential ProviderCa::issue(
    const std::string& address, const std::string& region, uint32_t cpu_cores,
    const crypto::Ed25519PublicKey& machine_public_key) {
  MachineCredential credential;
  credential.address = address;
  credential.region = region;
  credential.cpu_cores = cpu_cores;
  credential.machine_public_key = machine_public_key;
  credential.signature = ca_key_.sign(message_for(credential));
  return credential;
}

bool ProviderCa::verify(const crypto::Ed25519PublicKey& ca_public_key,
                        const MachineCredential& credential) {
  return crypto::ed25519_verify(ca_public_key, message_for(credential),
                                credential.signature);
}

}  // namespace sgxmig::platform
