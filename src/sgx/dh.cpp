#include "sgx/dh.h"

#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace sgxmig::sgx {

DhSession::DhSession(PlatformIface& platform, const EnclaveIdentity& self,
                     Role role)
    : platform_(platform), self_(self), role_(role) {
  const Bytes entropy = platform_.draw_entropy(32);
  for (size_t i = 0; i < 32; ++i) private_key_[i] = entropy[i];
  public_key_ = crypto::x25519_base(private_key_);
}

ReportData DhSession::binding(const crypto::X25519Key& first,
                              const crypto::X25519Key& second) const {
  BinaryWriter w;
  w.str("SGXMIG-DH-BINDING-v1");
  w.fixed(first);
  w.fixed(second);
  const auto digest = crypto::Sha256::hash(w.data());
  ReportData data{};
  for (size_t i = 0; i < digest.size(); ++i) data[i] = digest[i];
  return data;
}

void DhSession::derive_key(const crypto::X25519Key& peer_public,
                           const crypto::X25519Key& initiator_public,
                           const crypto::X25519Key& responder_public) {
  const crypto::X25519Key shared = crypto::x25519(private_key_, peer_public);
  BinaryWriter info;
  info.str("SGXMIG-LA-AEK-v1");
  info.fixed(initiator_public);
  info.fixed(responder_public);
  const Bytes key = crypto::hkdf_sha256(ByteView(shared.data(), shared.size()),
                                        ByteView(), info.data(), 16);
  session_key_ = to_array<16>(key);
}

DhMsg1 DhSession::create_msg1() {
  DhMsg1 m;
  m.responder_public = public_key_;
  m.responder_target.mr_enclave = self_.mr_enclave;
  return m;
}

Result<DhMsg2> DhSession::handle_msg1(const DhMsg1& msg1) {
  if (role_ != Role::kInitiator) return Status::kInvalidState;
  peer_public_ = msg1.responder_public;
  DhMsg2 m;
  m.initiator_public = public_key_;
  platform_.charge(platform_.costs().ereport);
  m.initiator_report =
      create_report(platform_.cpu(), self_, msg1.responder_target,
                    binding(public_key_, msg1.responder_public));
  return m;
}

Result<DhMsg3> DhSession::handle_msg2(const DhMsg2& msg2) {
  if (role_ != Role::kResponder) return Status::kInvalidState;
  platform_.charge(platform_.costs().report_verify);
  if (!verify_report(platform_.cpu(), self_.mr_enclave,
                     msg2.initiator_report)) {
    return Status::kAttestationFailure;
  }
  const ReportData expected = binding(msg2.initiator_public, public_key_);
  if (!constant_time_eq(
          ByteView(expected.data(), expected.size()),
          ByteView(msg2.initiator_report.body.report_data.data(), 64))) {
    return Status::kAttestationFailure;
  }
  peer_public_ = msg2.initiator_public;
  peer_identity_ = msg2.initiator_report.body.identity;
  derive_key(peer_public_, msg2.initiator_public, public_key_);
  established_ = true;

  DhMsg3 m;
  platform_.charge(platform_.costs().ereport);
  m.responder_report =
      create_report(platform_.cpu(), self_,
                    TargetInfo{peer_identity_.mr_enclave},
                    binding(public_key_, msg2.initiator_public));
  return m;
}

Status DhSession::handle_msg3(const DhMsg3& msg3) {
  if (role_ != Role::kInitiator) return Status::kInvalidState;
  platform_.charge(platform_.costs().report_verify);
  if (!verify_report(platform_.cpu(), self_.mr_enclave,
                     msg3.responder_report)) {
    return Status::kAttestationFailure;
  }
  const ReportData expected = binding(peer_public_, public_key_);
  if (!constant_time_eq(
          ByteView(expected.data(), expected.size()),
          ByteView(msg3.responder_report.body.report_data.data(), 64))) {
    return Status::kAttestationFailure;
  }
  peer_identity_ = msg3.responder_report.body.identity;
  derive_key(peer_public_, public_key_, peer_public_);
  established_ = true;
  return Status::kOk;
}

}  // namespace sgxmig::sgx
