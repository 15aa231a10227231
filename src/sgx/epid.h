// Simulated EPID group membership.
//
// Real SGX quotes are signed with EPID, a pairing-based group signature
// scheme; the paper uses it purely as "the Quoting Enclave signs quotes
// that the Intel Attestation Service can verify and revoke".  We preserve
// exactly that interface with Ed25519: Intel (the EpidAuthority) issues
// each platform a member key plus a membership certificate over it; quotes
// carry the member public key, certificate, and signature.  This drops
// EPID's signer anonymity — irrelevant to every protocol step in the
// paper — and keeps verification and revocation (see DESIGN.md §2).
#pragma once

#include <cstdint>
#include <set>

#include "crypto/ed25519.h"
#include "support/bytes.h"
#include "support/serde.h"
#include "support/status.h"

namespace sgxmig::sgx {

struct EpidMemberCredential {
  uint32_t group_id = 0;
  crypto::Ed25519PublicKey member_public_key{};
  crypto::Ed25519Signature membership_certificate{};

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u32(m.group_id);
    io.fixed(m.member_public_key);
    io.fixed(m.membership_certificate);
  }
};

/// A platform's provisioned EPID identity: the credential plus the member
/// private key (held by the Quoting Enclave).
struct EpidMemberKey {
  EpidMemberCredential credential;
  crypto::Ed25519Seed member_seed{};
};

class EpidAuthority {
 public:
  explicit EpidAuthority(uint64_t seed);

  /// Provisioning: issues a fresh member key for a platform (done once per
  /// machine at manufacturing/provisioning time).
  EpidMemberKey provision_member();

  /// Verifies a membership certificate.
  bool verify_credential(const EpidMemberCredential& credential) const;

  /// Revocation: a revoked member's quotes are rejected by the IAS.
  void revoke(const crypto::Ed25519PublicKey& member_public_key);
  bool is_revoked(const crypto::Ed25519PublicKey& member_public_key) const;

  uint32_t group_id() const { return group_id_; }

 private:
  Bytes certificate_message(const EpidMemberCredential& credential) const;

  crypto::Ed25519KeyPair group_key_;
  uint32_t group_id_;
  uint64_t next_member_ = 0;
  uint64_t seed_;
  std::set<crypto::Ed25519PublicKey> revoked_;
};

}  // namespace sgxmig::sgx
