#include "sgx/ias.h"

#include "crypto/sha256.h"

namespace sgxmig::sgx {

Bytes VerificationReport::signed_message() const {
  BinaryWriter w;
  w.str("SGXMIG-IAS-REPORT-v1");
  w.u8(static_cast<uint8_t>(verdict));
  w.bytes(quote_body);
  return w.take();
}

bool VerificationReport::verify(const crypto::Ed25519PublicKey& ias_key) const {
  return crypto::ed25519_verify(ias_key, signed_message(), ias_signature);
}

IntelAttestationService::IntelAttestationService(EpidAuthority& authority,
                                                 VirtualClock& clock,
                                                 const CostModel& costs,
                                                 uint64_t seed)
    : authority_(authority),
      clock_(clock),
      costs_(costs),
      signing_key_(crypto::Ed25519KeyPair::from_seed(crypto::Sha256::hash(
          to_bytes("ias-signing-key:" + std::to_string(seed))))) {}

VerificationReport IntelAttestationService::verify_quote(const Quote& quote) {
  clock_.advance(costs_.ias_round_trip);

  VerificationReport report;
  report.quote_body = quote.body.serialize();
  if (quote.credential.group_id != authority_.group_id()) {
    report.verdict = IasVerdict::kUnknownGroup;
  } else if (!authority_.verify_credential(quote.credential)) {
    report.verdict = IasVerdict::kSignatureInvalid;
  } else if (authority_.is_revoked(quote.credential.member_public_key)) {
    report.verdict = IasVerdict::kGroupRevoked;
  } else if (!crypto::ed25519_verify(quote.credential.member_public_key,
                                     quote.signed_message(),
                                     quote.signature)) {
    report.verdict = IasVerdict::kSignatureInvalid;
  } else {
    report.verdict = IasVerdict::kOk;
  }
  report.ias_signature = signing_key_.sign(report.signed_message());
  return report;
}

}  // namespace sgxmig::sgx
