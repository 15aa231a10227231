// Simulated Intel Attestation Service (IAS).
//
// Remote attestation step 2: a verifier submits a quote; the IAS checks
// the EPID membership and revocation status and the quote signature, and
// returns an Attestation Verification Report signed with the IAS report
// signing key — which relying parties (our Migration Enclaves) pin and
// verify, exactly like production code pins Intel's report signing
// certificate.
#pragma once

#include "sgx/epid.h"
#include "sgx/quote.h"
#include "support/cost_model.h"
#include "support/sim_clock.h"

namespace sgxmig::sgx {

enum class IasVerdict : uint8_t {
  kOk = 0,
  kSignatureInvalid = 1,
  kGroupRevoked = 2,
  kUnknownGroup = 3,
};

struct VerificationReport {
  IasVerdict verdict = IasVerdict::kSignatureInvalid;
  Bytes quote_body;  // serialized ReportBody the verdict covers
  crypto::Ed25519Signature ias_signature{};

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u8(m.verdict);
    io.bytes(m.quote_body, BinaryReader::kDefaultMaxLen);
    io.fixed(m.ias_signature);
  }
  Bytes serialize() const { return encode_record(*this); }
  static Result<VerificationReport> deserialize(ByteView b) {
    return decode_record<VerificationReport>(b);
  }
  Bytes signed_message() const;

  /// Verifies the IAS signature against a pinned IAS key.
  bool verify(const crypto::Ed25519PublicKey& ias_key) const;
};

class IntelAttestationService {
 public:
  IntelAttestationService(EpidAuthority& authority, VirtualClock& clock,
                          const CostModel& costs, uint64_t seed);

  /// Verifies `quote` and returns a signed verification report.  Charges
  /// the modeled IAS round-trip latency (this is a remote web service).
  VerificationReport verify_quote(const Quote& quote);

  const crypto::Ed25519PublicKey& report_signing_key() const {
    return signing_key_.public_key();
  }

 private:
  EpidAuthority& authority_;
  VirtualClock& clock_;
  const CostModel& costs_;
  crypto::Ed25519KeyPair signing_key_;
};

}  // namespace sgxmig::sgx
