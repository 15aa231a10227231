// Tests for local attestation (reports, DH sessions), quotes, the IAS, and
// mutual remote attestation.
#include <gtest/gtest.h>

#include "platform/world.h"
#include "sgx/dh.h"
#include "sgx/enclave.h"
#include "sgx/ias.h"
#include "sgx/measurement.h"
#include "sgx/quote.h"
#include "sgx/remote_attestation.h"
#include "sgx/report.h"

namespace sgxmig {
namespace {

using platform::World;
using sgx::DhSession;
using sgx::EnclaveImage;
using sgx::RaSession;

class AttestationTest : public ::testing::Test {
 protected:
  World world_{/*seed=*/2024};
  platform::Machine& m0_ = world_.add_machine("m0");
  platform::Machine& m1_ = world_.add_machine("m1");
  std::shared_ptr<const EnclaveImage> app_image_ =
      EnclaveImage::create("app", 1, "acme");
  std::shared_ptr<const EnclaveImage> other_image_ =
      EnclaveImage::create("other", 1, "acme");
};

TEST_F(AttestationTest, ReportVerifiesOnSameMachine) {
  const auto prover = app_image_->identity();
  const auto verifier = other_image_->identity();
  sgx::ReportData data{};
  data[0] = 0x42;
  const sgx::Report report = sgx::create_report(
      m0_.cpu(), prover, sgx::TargetInfo{verifier.mr_enclave}, data);
  EXPECT_TRUE(sgx::verify_report(m0_.cpu(), verifier.mr_enclave, report));
}

TEST_F(AttestationTest, ReportFailsOnOtherMachine) {
  // Local attestation is machine-bound: the report key differs per CPU.
  const auto prover = app_image_->identity();
  const auto verifier = other_image_->identity();
  const sgx::Report report = sgx::create_report(
      m0_.cpu(), prover, sgx::TargetInfo{verifier.mr_enclave}, {});
  EXPECT_FALSE(sgx::verify_report(m1_.cpu(), verifier.mr_enclave, report));
}

TEST_F(AttestationTest, ReportFailsForWrongTarget) {
  const auto prover = app_image_->identity();
  const sgx::Report report = sgx::create_report(
      m0_.cpu(), prover, sgx::TargetInfo{other_image_->mr_enclave()}, {});
  // A third enclave (not the target) cannot verify it.
  EXPECT_FALSE(sgx::verify_report(m0_.cpu(), app_image_->mr_enclave(), report));
}

TEST_F(AttestationTest, TamperedReportBodyRejected) {
  const auto prover = app_image_->identity();
  const auto verifier = other_image_->identity();
  sgx::Report report = sgx::create_report(
      m0_.cpu(), prover, sgx::TargetInfo{verifier.mr_enclave}, {});
  report.body.identity.mr_enclave[0] ^= 1;  // claim to be someone else
  EXPECT_FALSE(sgx::verify_report(m0_.cpu(), verifier.mr_enclave, report));
}

TEST_F(AttestationTest, DhSessionEstablishesSharedKeyAndIdentities) {
  DhSession responder(m0_, app_image_->identity(), DhSession::Role::kResponder);
  DhSession initiator(m0_, other_image_->identity(),
                      DhSession::Role::kInitiator);

  const sgx::DhMsg1 msg1 = responder.create_msg1();
  auto msg2 = initiator.handle_msg1(msg1);
  ASSERT_TRUE(msg2.ok());
  auto msg3 = responder.handle_msg2(msg2.value());
  ASSERT_TRUE(msg3.ok());
  ASSERT_EQ(initiator.handle_msg3(msg3.value()), Status::kOk);

  EXPECT_TRUE(initiator.established());
  EXPECT_TRUE(responder.established());
  EXPECT_EQ(initiator.session_key(), responder.session_key());
  EXPECT_EQ(responder.peer_identity().mr_enclave, other_image_->mr_enclave());
  EXPECT_EQ(initiator.peer_identity().mr_enclave, app_image_->mr_enclave());
}

TEST_F(AttestationTest, DhSessionFailsAcrossMachines) {
  // Local attestation must not work between machines.
  DhSession responder(m0_, app_image_->identity(), DhSession::Role::kResponder);
  DhSession initiator(m1_, other_image_->identity(),
                      DhSession::Role::kInitiator);
  const sgx::DhMsg1 msg1 = responder.create_msg1();
  auto msg2 = initiator.handle_msg1(msg1);
  ASSERT_TRUE(msg2.ok());
  auto msg3 = responder.handle_msg2(msg2.value());
  EXPECT_FALSE(msg3.ok());
  EXPECT_EQ(msg3.status(), Status::kAttestationFailure);
}

TEST_F(AttestationTest, DhSessionDetectsSubstitutedKey) {
  // A man in the middle swaps the initiator's DH key: the report binding
  // no longer matches.
  DhSession responder(m0_, app_image_->identity(), DhSession::Role::kResponder);
  DhSession initiator(m0_, other_image_->identity(),
                      DhSession::Role::kInitiator);
  const sgx::DhMsg1 msg1 = responder.create_msg1();
  auto msg2 = initiator.handle_msg1(msg1);
  ASSERT_TRUE(msg2.ok());
  sgx::DhMsg2 tampered = msg2.value();
  tampered.initiator_public[0] ^= 1;
  auto msg3 = responder.handle_msg2(tampered);
  EXPECT_FALSE(msg3.ok());
}

TEST_F(AttestationTest, DhSessionRejectsWrongRoleCalls) {
  DhSession responder(m0_, app_image_->identity(), DhSession::Role::kResponder);
  const sgx::DhMsg1 msg1 = responder.create_msg1();
  EXPECT_EQ(responder.handle_msg1(msg1).status(), Status::kInvalidState);
}

// ---- quotes + IAS ----

class QuoteSource : public sgx::Enclave {
 public:
  QuoteSource(sgx::PlatformIface& platform,
              std::shared_ptr<const EnclaveImage> image)
      : Enclave(platform, std::move(image)) {}

  sgx::Report report_for_qe(const sgx::ReportData& data) {
    auto scope = enter_ecall();
    return make_report(platform().quoting_enclave().target_info(), data);
  }
};

TEST_F(AttestationTest, QuoteCreationAndIasVerification) {
  QuoteSource enclave(m0_, app_image_);
  sgx::ReportData data{};
  data[0] = 7;
  const sgx::Report report = enclave.report_for_qe(data);
  auto quote = m0_.quoting_enclave().create_quote(report);
  ASSERT_TRUE(quote.ok());
  EXPECT_EQ(quote.value().body.identity.mr_enclave, app_image_->mr_enclave());

  const auto verdict = world_.ias().verify_quote(quote.value());
  EXPECT_EQ(verdict.verdict, sgx::IasVerdict::kOk);
  EXPECT_TRUE(verdict.verify(world_.ias().report_signing_key()));
}

TEST_F(AttestationTest, QuotingEnclaveRejectsForeignReport) {
  // A report created on m1 cannot be quoted by m0's QE.
  QuoteSource enclave(m1_, app_image_);
  const sgx::Report report = enclave.report_for_qe({});
  // Same QE MRENCLAVE everywhere, but the MAC key is machine-bound.
  auto quote = m0_.quoting_enclave().create_quote(report);
  EXPECT_FALSE(quote.ok());
  EXPECT_EQ(quote.status(), Status::kAttestationFailure);
}

TEST_F(AttestationTest, IasRejectsTamperedQuote) {
  QuoteSource enclave(m0_, app_image_);
  auto quote = m0_.quoting_enclave().create_quote(enclave.report_for_qe({}));
  ASSERT_TRUE(quote.ok());
  sgx::Quote tampered = quote.value();
  tampered.body.identity.mr_enclave[0] ^= 1;
  const auto verdict = world_.ias().verify_quote(tampered);
  EXPECT_EQ(verdict.verdict, sgx::IasVerdict::kSignatureInvalid);
}

TEST_F(AttestationTest, IasRejectsRevokedPlatform) {
  QuoteSource enclave(m0_, app_image_);
  auto quote = m0_.quoting_enclave().create_quote(enclave.report_for_qe({}));
  ASSERT_TRUE(quote.ok());
  world_.epid_authority().revoke(quote.value().credential.member_public_key);
  const auto verdict = world_.ias().verify_quote(quote.value());
  EXPECT_EQ(verdict.verdict, sgx::IasVerdict::kGroupRevoked);
}

TEST_F(AttestationTest, IasVerificationReportCannotBeForged) {
  QuoteSource enclave(m0_, app_image_);
  auto quote = m0_.quoting_enclave().create_quote(enclave.report_for_qe({}));
  auto verdict = world_.ias().verify_quote(quote.value());
  verdict.verdict = sgx::IasVerdict::kOk;
  verdict.quote_body[0] ^= 1;  // splice a different body under the verdict
  EXPECT_FALSE(verdict.verify(world_.ias().report_signing_key()));
}

// ---- mutual remote attestation ----

TEST_F(AttestationTest, RemoteAttestationEstablishesMutualSession) {
  RaSession initiator(m0_, app_image_->identity(), RaSession::Role::kInitiator);
  RaSession responder(m1_, app_image_->identity(), RaSession::Role::kResponder);

  const sgx::RaMsg1 msg1 = initiator.create_msg1();
  auto msg2 = responder.handle_msg1(msg1);
  ASSERT_TRUE(msg2.ok());
  auto msg3 = initiator.handle_msg2(msg2.value());
  ASSERT_TRUE(msg3.ok());
  ASSERT_EQ(responder.handle_msg3(msg3.value()), Status::kOk);

  EXPECT_TRUE(initiator.established());
  EXPECT_TRUE(responder.established());
  EXPECT_EQ(initiator.session_key(), responder.session_key());
  EXPECT_EQ(initiator.peer_identity().mr_enclave, app_image_->mr_enclave());
  EXPECT_EQ(responder.peer_identity().mr_enclave, app_image_->mr_enclave());
  EXPECT_EQ(initiator.transcript_hash(), responder.transcript_hash());
}

TEST_F(AttestationTest, RemoteAttestationRevealsDifferentPeerIdentity) {
  // RA succeeds but reports the true (different) identity — the caller is
  // responsible for the MRENCLAVE equality check, as the ME does.
  RaSession initiator(m0_, app_image_->identity(), RaSession::Role::kInitiator);
  RaSession responder(m1_, other_image_->identity(),
                      RaSession::Role::kResponder);
  auto msg2 = responder.handle_msg1(initiator.create_msg1());
  ASSERT_TRUE(msg2.ok());
  auto msg3 = initiator.handle_msg2(msg2.value());
  ASSERT_TRUE(msg3.ok());
  EXPECT_NE(initiator.peer_identity().mr_enclave, app_image_->mr_enclave());
}

TEST_F(AttestationTest, RemoteAttestationRejectsTamperedQuote) {
  RaSession initiator(m0_, app_image_->identity(), RaSession::Role::kInitiator);
  RaSession responder(m1_, app_image_->identity(), RaSession::Role::kResponder);
  auto msg2 = responder.handle_msg1(initiator.create_msg1());
  ASSERT_TRUE(msg2.ok());
  sgx::RaMsg2 tampered = msg2.value();
  tampered.responder_quote[5] ^= 1;
  auto msg3 = initiator.handle_msg2(tampered);
  EXPECT_FALSE(msg3.ok());
}

TEST_F(AttestationTest, RemoteAttestationRejectsSubstitutedDhKey) {
  RaSession initiator(m0_, app_image_->identity(), RaSession::Role::kInitiator);
  RaSession responder(m1_, app_image_->identity(), RaSession::Role::kResponder);
  auto msg2 = responder.handle_msg1(initiator.create_msg1());
  ASSERT_TRUE(msg2.ok());
  sgx::RaMsg2 tampered = msg2.value();
  tampered.responder_public[3] ^= 1;  // MITM key substitution
  auto msg3 = initiator.handle_msg2(tampered);
  EXPECT_FALSE(msg3.ok());
  EXPECT_EQ(msg3.status(), Status::kAttestationFailure);
}

TEST_F(AttestationTest, RemoteAttestationRejectsRevokedPeer) {
  RaSession initiator(m0_, app_image_->identity(), RaSession::Role::kInitiator);
  RaSession responder(m1_, app_image_->identity(), RaSession::Role::kResponder);
  auto msg2 = responder.handle_msg1(initiator.create_msg1());
  ASSERT_TRUE(msg2.ok());
  // Revoke m1's platform between quote creation and verification.
  auto quote = decode_record<sgx::Quote>(msg2.value().responder_quote);
  world_.epid_authority().revoke(quote.value().credential.member_public_key);
  auto msg3 = initiator.handle_msg2(msg2.value());
  EXPECT_FALSE(msg3.ok());
  EXPECT_EQ(msg3.status(), Status::kQuoteVerificationFailure);
}

TEST_F(AttestationTest, RemoteAttestationChargesIasLatency) {
  RaSession initiator(m0_, app_image_->identity(), RaSession::Role::kInitiator);
  RaSession responder(m1_, app_image_->identity(), RaSession::Role::kResponder);
  const Duration t0 = world_.clock().now();
  auto msg2 = responder.handle_msg1(initiator.create_msg1());
  auto msg3 = initiator.handle_msg2(msg2.value());
  responder.handle_msg3(msg3.value());
  const Duration elapsed = world_.clock().now() - t0;
  // Two IAS round trips dominate.
  EXPECT_GT(elapsed, world_.costs().ias_round_trip * 2);
  EXPECT_LT(elapsed, world_.costs().ias_round_trip * 2 + milliseconds(100));
}

}  // namespace
}  // namespace sgxmig
