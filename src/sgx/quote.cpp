#include "sgx/quote.h"

namespace sgxmig::sgx {

Bytes Quote::signed_message() const {
  BinaryWriter w;
  w.str("SGXMIG-QUOTE-v1");
  w.raw(body.serialize());
  w.u32(credential.group_id);
  return w.take();
}

QuotingEnclave::QuotingEnclave(PlatformIface& platform,
                               EpidMemberKey member_key)
    : Enclave(platform, standard_image()),
      member_key_(member_key),
      signing_key_(crypto::Ed25519KeyPair::from_seed(member_key_.member_seed)) {}

std::shared_ptr<const EnclaveImage> QuotingEnclave::standard_image() {
  static const std::shared_ptr<const EnclaveImage> image =
      EnclaveImage::create("intel-quoting-enclave", /*code_version=*/1,
                           /*signer_name=*/"intel", /*isv_prod_id=*/0x8086,
                           /*isv_svn=*/1);
  return image;
}

Result<Quote> QuotingEnclave::create_quote(const Report& report) {
  auto scope = enter_ecall();
  // Only reports produced on this machine, targeted at this QE, verify.
  if (!check_report(report)) return Status::kAttestationFailure;
  charge(platform().costs().quote_generation);

  Quote quote;
  quote.body = report.body;
  quote.credential = member_key_.credential;
  quote.signature = signing_key_.sign(quote.signed_message());
  return quote;
}

}  // namespace sgxmig::sgx
