// SDK-style local-attestation Diffie-Hellman sessions (sgx_dh_*).
//
// Two enclaves on the SAME machine establish a shared key and learn each
// other's verified identity in three messages:
//   msg1 (responder -> initiator): responder DH public key + target info
//   msg2 (initiator -> responder): initiator DH public key + a REPORT
//        targeted at the responder, binding both public keys
//   msg3 (responder -> initiator): responder REPORT targeted at the
//        initiator, binding both public keys
// Report MACs only verify on the same CPU, so a completed session proves
// same-machine, genuine-enclave, and the exact MRENCLAVE of the peer —
// everything the Migration Enclave needs from local attestation (§V-B).
#pragma once

#include "crypto/x25519.h"
#include "sgx/platform_iface.h"
#include "sgx/report.h"
#include "sgx/types.h"
#include "support/serde.h"
#include "support/status.h"

namespace sgxmig::sgx {

struct DhMsg1 {
  crypto::X25519Key responder_public{};
  TargetInfo responder_target;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.fixed(m.responder_public);
    io.fixed(m.responder_target.mr_enclave);
  }
  Bytes serialize() const { return encode_record(*this); }
  static Result<DhMsg1> deserialize(ByteView b) {
    return decode_record<DhMsg1>(b);
  }
};

struct DhMsg2 {
  crypto::X25519Key initiator_public{};
  Report initiator_report;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.fixed(m.initiator_public);
    io.sized(m.initiator_report, 1024);
  }
  Bytes serialize() const { return encode_record(*this); }
  static Result<DhMsg2> deserialize(ByteView b) {
    return decode_record<DhMsg2>(b);
  }
};

struct DhMsg3 {
  Report responder_report;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.sized(m.responder_report, 1024);
  }
  Bytes serialize() const { return encode_record(*this); }
  static Result<DhMsg3> deserialize(ByteView b) {
    return decode_record<DhMsg3>(b);
  }
};

/// One side of a local-attestation session.  Instantiate inside the
/// enclave; `platform` provides the CPU, entropy, and cost accounting, and
/// `self` is the owning enclave's identity.
class DhSession {
 public:
  enum class Role { kInitiator, kResponder };

  DhSession(PlatformIface& platform, const EnclaveIdentity& self, Role role);

  // --- responder side ---
  DhMsg1 create_msg1();
  Result<DhMsg3> handle_msg2(const DhMsg2& msg2);

  // --- initiator side ---
  Result<DhMsg2> handle_msg1(const DhMsg1& msg1);
  Status handle_msg3(const DhMsg3& msg3);

  bool established() const { return established_; }
  const Key128& session_key() const { return session_key_; }
  const EnclaveIdentity& peer_identity() const { return peer_identity_; }

 private:
  ReportData binding(const crypto::X25519Key& first,
                     const crypto::X25519Key& second) const;
  void derive_key(const crypto::X25519Key& peer_public,
                  const crypto::X25519Key& initiator_public,
                  const crypto::X25519Key& responder_public);

  PlatformIface& platform_;
  EnclaveIdentity self_;
  Role role_;
  crypto::X25519Key private_key_{};
  crypto::X25519Key public_key_{};
  crypto::X25519Key peer_public_{};
  Key128 session_key_{};
  EnclaveIdentity peer_identity_;
  bool established_ = false;
};

}  // namespace sgxmig::sgx
