// SGX quotes and the Quoting Enclave.
//
// Remote attestation step 1: a prover enclave produces a REPORT targeted
// at its local Quoting Enclave; the QE verifies the report (possible only
// on the same machine) and converts it into a quote signed with the
// platform's (simulated) EPID member key.  The quote is then meaningful to
// off-machine verifiers via the IAS (sgx/ias.h).
#pragma once

#include <memory>

#include "sgx/enclave.h"
#include "sgx/epid.h"
#include "sgx/report.h"

namespace sgxmig::sgx {

struct Quote {
  ReportBody body;          // identity + report_data of the prover
  EpidMemberCredential credential;
  crypto::Ed25519Signature signature{};  // member key over the body

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.record(m.body);
    io.record(m.credential);
    io.fixed(m.signature);
  }
  Bytes signed_message() const;
};

class QuotingEnclave : public Enclave {
 public:
  QuotingEnclave(PlatformIface& platform, EpidMemberKey member_key);

  /// ECALL: verifies that `report` targets this QE on this machine and
  /// signs the quote.  Refuses reports from other machines (kMacMismatch
  /// inside kAttestationFailure).
  Result<Quote> create_quote(const Report& report);

  TargetInfo target_info() const { return TargetInfo{identity().mr_enclave}; }

  /// The Intel-provided QE image (same MRENCLAVE on every machine).
  static std::shared_ptr<const EnclaveImage> standard_image();

 private:
  EpidMemberKey member_key_;
  crypto::Ed25519KeyPair signing_key_;
};

}  // namespace sgxmig::sgx
