#include "sgx/measurement.h"

#include <map>

#include "crypto/sha256.h"
#include "support/serde.h"

namespace sgxmig::sgx {

Measurement measure_signer(const crypto::Ed25519PublicKey& key) {
  return crypto::Sha256::hash(ByteView(key.data(), key.size()));
}

EnclaveImage::EnclaveImage(std::string name, uint64_t code_version,
                           const crypto::Ed25519PublicKey& signer_public_key,
                           uint16_t isv_prod_id, uint16_t isv_svn)
    : name_(std::move(name)),
      code_version_(code_version),
      isv_prod_id_(isv_prod_id),
      isv_svn_(isv_svn) {
  // Deterministic measurement over the image descriptor — the stand-in for
  // hashing the enclave's pages at load time.
  BinaryWriter w;
  w.str("SGXMIG-MRENCLAVE-v1");
  w.str(name_);
  w.u64(code_version_);
  w.u16(isv_prod_id_);
  mr_enclave_ = crypto::Sha256::hash(w.data());
  mr_signer_ = measure_signer(signer_public_key);
}

EnclaveIdentity EnclaveImage::identity() const {
  EnclaveIdentity id;
  id.mr_enclave = mr_enclave_;
  id.mr_signer = mr_signer_;
  id.isv_prod_id = isv_prod_id_;
  id.isv_svn = isv_svn_;
  return id;
}

namespace {

// Deterministic developer key: fine for the simulation, where the signer
// is an identity, not a secret held by this process.  The key is a pure
// function of the name, so each name's keygen runs once per process.
const crypto::Ed25519PublicKey& signer_public_key(
    const std::string& signer_name) {
  static std::map<std::string, crypto::Ed25519PublicKey> keys;
  auto it = keys.find(signer_name);
  if (it == keys.end()) {
    const auto seed = crypto::Sha256::hash(to_bytes("signer:" + signer_name));
    it = keys.emplace(signer_name,
                      crypto::Ed25519KeyPair::from_seed(seed).public_key())
             .first;
  }
  return it->second;
}

}  // namespace

std::shared_ptr<const EnclaveImage> EnclaveImage::create(
    std::string name, uint64_t code_version, const std::string& signer_name,
    uint16_t isv_prod_id, uint16_t isv_svn) {
  return std::make_shared<const EnclaveImage>(
      std::move(name), code_version, signer_public_key(signer_name),
      isv_prod_id, isv_svn);
}

}  // namespace sgxmig::sgx
