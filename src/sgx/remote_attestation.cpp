#include "sgx/remote_attestation.h"

#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace sgxmig::sgx {

RaSession::RaSession(PlatformIface& platform, const EnclaveIdentity& self,
                     Role role)
    : platform_(platform), self_(self), role_(role) {
  const Bytes entropy = platform_.draw_entropy(32);
  for (size_t i = 0; i < 32; ++i) private_key_[i] = entropy[i];
  public_key_ = crypto::x25519_base(private_key_);
  if (role_ == Role::kInitiator) {
    initiator_public_ = public_key_;
  } else {
    responder_public_ = public_key_;
  }
}

ReportData RaSession::binding(const char* label) const {
  BinaryWriter w;
  w.str("SGXMIG-RA-BINDING-v1");
  w.str(label);
  w.fixed(initiator_public_);
  w.fixed(responder_public_);
  const auto digest = crypto::Sha256::hash(w.data());
  ReportData data{};
  for (size_t i = 0; i < digest.size(); ++i) data[i] = digest[i];
  return data;
}

std::array<uint8_t, 32> RaSession::transcript_hash() const {
  BinaryWriter w;
  w.str("SGXMIG-RA-TRANSCRIPT-v1");
  w.fixed(initiator_public_);
  w.fixed(responder_public_);
  return crypto::Sha256::hash(w.data());
}

Result<Bytes> RaSession::make_quote(const char* label) {
  // REPORT targeted at the local QE, then quote it.
  platform_.charge(platform_.costs().ereport);
  const Report report =
      create_report(platform_.cpu(), self_,
                    platform_.quoting_enclave().target_info(), binding(label));
  auto quote = platform_.quoting_enclave().create_quote(report);
  if (!quote.ok()) return quote.status();
  return quote.value().serialize();
}

Status RaSession::verify_peer_quote(ByteView quote_bytes, const char* label) {
  auto quote = Quote::deserialize(quote_bytes);
  if (!quote.ok()) return Status::kTampered;

  // Submit to the IAS and check the signed verdict (we are the relying
  // party; the IAS key is pinned via the platform).
  const VerificationReport verdict =
      platform_.attestation_service().verify_quote(quote.value());
  if (!verdict.verify(platform_.attestation_service().report_signing_key())) {
    return Status::kQuoteVerificationFailure;
  }
  if (verdict.verdict != IasVerdict::kOk) {
    return Status::kQuoteVerificationFailure;
  }
  // The verdict must cover exactly the quote body we think we verified.
  if (verdict.quote_body != quote.value().body.serialize()) {
    return Status::kQuoteVerificationFailure;
  }
  // Key-agreement binding.
  const ReportData expected = binding(label);
  if (!constant_time_eq(
          ByteView(expected.data(), expected.size()),
          ByteView(quote.value().body.report_data.data(), 64))) {
    return Status::kAttestationFailure;
  }
  peer_identity_ = quote.value().body.identity;
  return Status::kOk;
}

void RaSession::derive_key() {
  const crypto::X25519Key peer =
      role_ == Role::kInitiator ? responder_public_ : initiator_public_;
  const crypto::X25519Key shared = crypto::x25519(private_key_, peer);
  BinaryWriter info;
  info.str("SGXMIG-RA-SK-v1");
  info.fixed(initiator_public_);
  info.fixed(responder_public_);
  const Bytes key = crypto::hkdf_sha256(ByteView(shared.data(), shared.size()),
                                        ByteView(), info.data(), 16);
  session_key_ = to_array<16>(key);
}

RaMsg1 RaSession::create_msg1() {
  RaMsg1 m;
  m.initiator_public = public_key_;
  return m;
}

Result<RaMsg2> RaSession::handle_msg1(const RaMsg1& msg1) {
  if (role_ != Role::kResponder) return Status::kInvalidState;
  initiator_public_ = msg1.initiator_public;
  RaMsg2 m;
  m.responder_public = public_key_;
  auto quote = make_quote("responder");
  if (!quote.ok()) return quote.status();
  m.responder_quote = std::move(quote).value();
  return m;
}

Result<RaMsg3> RaSession::handle_msg2(const RaMsg2& msg2) {
  if (role_ != Role::kInitiator) return Status::kInvalidState;
  responder_public_ = msg2.responder_public;
  const Status status = verify_peer_quote(msg2.responder_quote, "responder");
  if (status != Status::kOk) return status;
  derive_key();
  established_ = true;

  RaMsg3 m;
  auto quote = make_quote("initiator");
  if (!quote.ok()) return quote.status();
  m.initiator_quote = std::move(quote).value();
  return m;
}

Status RaSession::handle_msg3(const RaMsg3& msg3) {
  if (role_ != Role::kResponder) return Status::kInvalidState;
  const Status status = verify_peer_quote(msg3.initiator_quote, "initiator");
  if (status != Status::kOk) return status;
  derive_key();
  established_ = true;
  return Status::kOk;
}

}  // namespace sgxmig::sgx
