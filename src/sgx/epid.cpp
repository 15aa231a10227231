#include "sgx/epid.h"

#include "crypto/sha256.h"

namespace sgxmig::sgx {

EpidAuthority::EpidAuthority(uint64_t seed)
    : group_key_(crypto::Ed25519KeyPair::from_seed(crypto::Sha256::hash(
          to_bytes("epid-group-key:" + std::to_string(seed))))),
      group_id_(static_cast<uint32_t>(seed & 0xffff) | 0x0b0b0000),
      seed_(seed) {}

Bytes EpidAuthority::certificate_message(
    const EpidMemberCredential& credential) const {
  BinaryWriter w;
  w.str("SGXMIG-EPID-MEMBER-v1");
  w.u32(credential.group_id);
  w.fixed(credential.member_public_key);
  return w.take();
}

EpidMemberKey EpidAuthority::provision_member() {
  EpidMemberKey member;
  member.member_seed = crypto::Sha256::hash(to_bytes(
      "epid-member:" + std::to_string(seed_) + ":" +
      std::to_string(next_member_++)));
  const auto kp = crypto::Ed25519KeyPair::from_seed(member.member_seed);
  member.credential.group_id = group_id_;
  member.credential.member_public_key = kp.public_key();
  member.credential.membership_certificate =
      group_key_.sign(certificate_message(member.credential));
  return member;
}

bool EpidAuthority::verify_credential(
    const EpidMemberCredential& credential) const {
  if (credential.group_id != group_id_) return false;
  return crypto::ed25519_verify(group_key_.public_key(),
                                certificate_message(credential),
                                credential.membership_certificate);
}

void EpidAuthority::revoke(const crypto::Ed25519PublicKey& member_public_key) {
  revoked_.insert(member_public_key);
}

bool EpidAuthority::is_revoked(
    const crypto::Ed25519PublicKey& member_public_key) const {
  return revoked_.count(member_public_key) != 0;
}

}  // namespace sgxmig::sgx
