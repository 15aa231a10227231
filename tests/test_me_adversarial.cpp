// Adversarial tests directly against the Migration Enclave's network
// endpoint: the OS/network adversary speaks raw protocol at the ME and
// must not be able to extract data, forge confirmations, or corrupt
// protocol state.
#include <gtest/gtest.h>

#include "migration/migratable_enclave.h"
#include "migration/migration_enclave.h"
#include "migration/protocol.h"
#include "crypto/ed25519.h"
#include "platform/world.h"
#include "sgx/dh.h"
#include "sgx/remote_attestation.h"

namespace sgxmig {
namespace {

using migration::InitState;
using migration::MeMsgType;
using migration::MeRequest;
using migration::MeResponse;
using migration::MigratableEnclave;
using migration::MigrationEnclave;
using platform::World;
using sgx::EnclaveImage;

class MeAdversarialTest : public ::testing::Test {
 protected:
  MeAdversarialTest() {
    me0_ = std::make_unique<MigrationEnclave>(
        m0_, MigrationEnclave::standard_image(), world_.provider());
    me1_ = std::make_unique<MigrationEnclave>(
        m1_, MigrationEnclave::standard_image(), world_.provider());
  }

  MeResponse raw_call(const std::string& endpoint, const MeRequest& req) {
    auto resp = world_.network().rpc(endpoint, encode_record(req));
    EXPECT_TRUE(resp.ok());
    auto parsed = decode_record<MeResponse>(resp.value());
    EXPECT_TRUE(parsed.ok());
    return parsed.value();
  }

  World world_{/*seed=*/555};
  platform::Machine& m0_ = world_.add_machine("m0");
  platform::Machine& m1_ = world_.add_machine("m1");
  std::unique_ptr<MigrationEnclave> me0_;
  std::unique_ptr<MigrationEnclave> me1_;
  std::shared_ptr<const EnclaveImage> image_ =
      EnclaveImage::create("target-app", 1, "acme");
};

TEST_F(MeAdversarialTest, GarbageRequestRejected) {
  auto resp = world_.network().rpc("m0/me", to_bytes(std::string_view(
                                                "total garbage")));
  ASSERT_TRUE(resp.ok());
  auto parsed = decode_record<MeResponse>(resp.value());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().status, Status::kTampered);
}

TEST_F(MeAdversarialTest, LaRecordWithUnknownSessionRejected) {
  MeRequest req;
  req.type = MeMsgType::kLaRecord;
  req.id = 0xdeadbeef;
  req.payload = Bytes(64, 0x41);
  EXPECT_EQ(raw_call("m0/me", req).status, Status::kInvalidState);
}

TEST_F(MeAdversarialTest, LaMsg2WithoutStartRejected) {
  MeRequest req;
  req.type = MeMsgType::kLaMsg2;
  req.id = 1234;
  req.payload = Bytes(96, 0x42);
  EXPECT_EQ(raw_call("m0/me", req).status, Status::kInvalidState);
}

TEST_F(MeAdversarialTest, TransferWithoutAttestationRejected) {
  // Adversary tries to inject migration data without running RA.
  migration::TransferPayload payload;
  payload.source_mr_enclave = image_->mr_enclave();
  payload.source_me_address = "m0";
  MeRequest req;
  req.type = MeMsgType::kTransfer;
  req.id = 42;
  req.payload = encode_record(payload);  // not even encrypted
  EXPECT_EQ(raw_call("m1/me", req).status, Status::kInvalidState);
  EXPECT_EQ(me1_->pending_incoming_count(), 0u);
}

TEST_F(MeAdversarialTest, DoneForgeryCannotDeleteRetainedData) {
  // Real migration, but the destination enclave never starts; then the
  // adversary forges DONE messages to the source ME to trick it into
  // deleting the retained data.
  auto enclave = std::make_unique<MigratableEnclave>(m0_, image_);
  enclave->set_persist_callback(
      [this](ByteView s) { m0_.storage().put("ml", s); });
  enclave->ecall_migration_init(ByteView(), InitState::kNew, "m0");
  enclave->ecall_create_migratable_counter();
  ASSERT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
  ASSERT_EQ(me0_->outgoing_state(image_->mr_enclave()),
            migration::OutgoingState::kPending);

  // Forged DONE with a guessed transfer id and garbage record.
  for (uint64_t guess = 0; guess < 32; ++guess) {
    MeRequest forged;
    forged.type = MeMsgType::kDone;
    forged.id = guess;
    forged.payload = Bytes(48, 0x13);
    raw_call("m0/me", forged);
  }
  // Data still retained, state still pending.
  EXPECT_EQ(me0_->outgoing_state(image_->mr_enclave()),
            migration::OutgoingState::kPending);
  // The legitimate destination can still complete the migration.
  auto moved = std::make_unique<MigratableEnclave>(m1_, image_);
  moved->set_persist_callback(
      [this](ByteView s) { m1_.storage().put("ml", s); });
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(me0_->outgoing_state(image_->mr_enclave()),
            migration::OutgoingState::kCompleted);
}

TEST_F(MeAdversarialTest, ReplayedLaRecordRejected) {
  // Record+replay of an encrypted LA record: the channel's sequence
  // numbers make the second delivery fail.  The record is a warm-up query
  // with nothing staged, which leaves the session open.
  auto enclave = std::make_unique<MigratableEnclave>(m0_, image_);

  Bytes recorded;
  world_.network().set_tamper_hook(
      [&](const std::string& to, Bytes& request) {
        if (to != "m0/me") return true;
        auto parsed = decode_record<MeRequest>(request);
        if (parsed.ok() && parsed.value().type == MeMsgType::kLaRecord &&
            recorded.empty()) {
          recorded = request;
        }
        return true;
      });
  ASSERT_EQ(enclave->ecall_migration_warm_up("m0"),
            Status::kNoPendingMigration);
  world_.network().clear_tamper_hook();
  ASSERT_FALSE(recorded.empty());

  // Replay the captured record verbatim.
  auto resp = world_.network().rpc("m0/me", recorded);
  ASSERT_TRUE(resp.ok());
  auto parsed = decode_record<MeResponse>(resp.value());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().status, Status::kReplayDetected);
}

TEST_F(MeAdversarialTest, PendingDataNotReleasedToWrongIdentityEver) {
  // Even with full protocol access, only an enclave that local-attests
  // with the source MRENCLAVE can fetch pending data.  The adversary
  // cannot local-attest as that enclave (reports come from the CPU), so
  // it tries with every other identity it can create.
  auto enclave = std::make_unique<MigratableEnclave>(m0_, image_);
  enclave->set_persist_callback(
      [this](ByteView s) { m0_.storage().put("ml", s); });
  enclave->ecall_migration_init(ByteView(), InitState::kNew, "m0");
  ASSERT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
  ASSERT_EQ(me1_->pending_incoming_count(), 1u);

  for (int i = 0; i < 5; ++i) {
    const auto other =
        EnclaveImage::create("attacker-app-" + std::to_string(i), 1, "mallory");
    MigratableEnclave probe(m1_, other);
    EXPECT_EQ(probe.ecall_migration_init(ByteView(), InitState::kMigrate,
                                         "m1"),
              Status::kNoPendingMigration);
  }
  EXPECT_EQ(me1_->pending_incoming_count(), 1u);
}

TEST_F(MeAdversarialTest, RaHandshakeGarbageRejected) {
  MeRequest req;
  req.type = MeMsgType::kRaMsg1;
  req.id = 7;
  req.payload = Bytes(3, 0x01);  // too short for RaMsg1
  EXPECT_EQ(raw_call("m1/me", req).status, Status::kTampered);

  req.type = MeMsgType::kRaMsg3;
  req.id = 7;
  req.payload = Bytes(128, 0x02);
  EXPECT_EQ(raw_call("m1/me", req).status, Status::kInvalidState);
}

TEST_F(MeAdversarialTest, MitmCannotHijackOutgoingMigration) {
  // The adversary redirects the ME-to-ME traffic to a machine of a
  // DIFFERENT provider (simulating DNS/routing control).  Provider
  // authentication must catch it.
  platform::ProviderCa mallory_ca(/*seed=*/666);
  auto& evil = world_.add_machine("evil");
  MigrationEnclave evil_me(evil, MigrationEnclave::standard_image(),
                           mallory_ca);

  auto enclave = std::make_unique<MigratableEnclave>(m0_, image_);
  enclave->set_persist_callback(
      [this](ByteView s) { m0_.storage().put("ml", s); });
  enclave->ecall_migration_init(ByteView(), InitState::kNew, "m0");

  // Reroute every message addressed to m1's ME toward the evil ME by
  // rewriting the request... the simulated network routes by endpoint
  // name, so model this as the enclave being told to migrate to "evil"
  // (e.g. a compromised scheduler chose the destination).
  EXPECT_EQ(enclave->ecall_migration_start("evil"),
            Status::kProviderAuthFailure);
  // And the data remains safely retryable toward a legitimate machine.
  EXPECT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
}

/// A local enclave speaking raw LibMsgs to its machine's ME over an
/// attested LA channel, so a test can choose the request nonces a library
/// would draw at random.
class LaClient : public sgx::Enclave {
 public:
  LaClient(platform::Machine& machine,
           std::shared_ptr<const EnclaveImage> image, uint64_t session_id)
      : sgx::Enclave(machine, std::move(image)),
        me_(machine.address() + "/me"),
        session_id_(session_id) {}

  Status attest() {
    auto scope = enter_ecall();
    sgx::DhSession session(platform(), identity(),
                           sgx::DhSession::Role::kInitiator);
    MeRequest start;
    start.type = MeMsgType::kLaStart;
    start.id = session_id_;
    auto msg1 = decode_record<sgx::DhMsg1>(call(start).payload);
    if (!msg1.ok()) return msg1.status();
    auto msg2 = session.handle_msg1(msg1.value());
    if (!msg2.ok()) return msg2.status();
    MeRequest m2;
    m2.type = MeMsgType::kLaMsg2;
    m2.id = session_id_;
    m2.payload = encode_record(msg2.value());
    auto msg3 = decode_record<sgx::DhMsg3>(call(m2).payload);
    if (!msg3.ok()) return msg3.status();
    const Status status = session.handle_msg3(msg3.value());
    if (status == Status::kOk) {
      channel_.emplace(session.session_key(),
                       net::SecureChannel::Role::kInitiator);
    }
    return status;
  }

  /// Sends one LibMsg; returns the ME's reply.
  Result<migration::LibMsg> request(migration::LibMsgType type,
                                    const Bytes& payload) {
    auto scope = enter_ecall();
    migration::LibMsg msg;
    msg.type = type;
    msg.payload = payload;
    MeRequest req;
    req.type = MeMsgType::kLaRecord;
    req.id = session_id_;
    req.payload = channel_->seal_record(encode_record(msg));
    const MeResponse resp = call(req);
    if (resp.status != Status::kOk) return resp.status;
    auto record = channel_->open_record(resp.payload);
    if (!record.ok()) return record.status();
    auto reply = decode_record<migration::LibMsg>(record.value());
    if (!reply.ok()) return Status::kTampered;
    return reply.value();
  }
  /// Sends one LibMsg; returns the reply's status (kOk on success).
  Status send(migration::LibMsgType type, const Bytes& payload) {
    auto reply = request(type, payload);
    return reply.ok() ? reply.value().status : reply.status();
  }

  Status precopy_round(uint64_t nonce, const std::string& destination) {
    migration::PrecopyRoundPayload round;
    round.destination_address = destination;
    round.request_nonce = nonce;
    return send(migration::LibMsgType::kPrecopyRound, encode_record(round));
  }
  Status enqueue(uint64_t nonce, const std::string& destination) {
    migration::MigrateRequestPayload request;
    request.destination_address = destination;
    request.request_nonce = nonce;
    return send(migration::LibMsgType::kMigrateEnqueue, encode_record(request));
  }
  Status reserve(uint64_t nonce, const std::string& destination) {
    migration::MigrateReservePayload request;
    request.destination_address = destination;
    request.request_nonce = nonce;
    return send(migration::LibMsgType::kMigrateReserve, encode_record(request));
  }
  Status arm(uint64_t nonce, const std::string& destination) {
    migration::MigrateRequestPayload request;
    request.destination_address = destination;
    request.request_nonce = nonce;
    return send(migration::LibMsgType::kMigrateArm, encode_record(request));
  }

 private:
  MeResponse call(const MeRequest& req) {
    auto raw = platform().network()->rpc(me_, encode_record(req));
    if (!raw.ok()) return MeResponse{raw.status(), {}};
    auto resp = decode_record<MeResponse>(raw.value());
    return resp.ok() ? resp.value() : MeResponse{Status::kTampered, {}};
  }

  std::string me_;
  uint64_t session_id_;
  std::optional<net::SecureChannel> channel_;
};

// One request nonce is one attempt of one identity, toward one
// destination, in one transfer mode — whichever mode claimed it first.
TEST_F(MeAdversarialTest, NonceBindsOneIdentityDestinationAndMode) {
  LaClient owner(m0_, image_, /*session_id=*/101);
  LaClient other(m0_, EnclaveImage::create("other-app", 1, "acme"),
                 /*session_id=*/202);
  ASSERT_EQ(owner.attest(), Status::kOk);
  ASSERT_EQ(other.attest(), Status::kOk);
  constexpr uint64_t kNonce = 0x5eed;
  ASSERT_EQ(owner.precopy_round(kNonce, "m1"), Status::kOk);

  // A foreign identity collides with one status in either mode.
  EXPECT_EQ(other.precopy_round(kNonce, "m1"), Status::kAlreadyExists);
  EXPECT_EQ(other.enqueue(kNonce, "m1"), Status::kAlreadyExists);
  // The owner can move the nonce to neither another mode nor another
  // destination.
  EXPECT_EQ(owner.enqueue(kNonce, "m1"), Status::kInvalidParameter);
  EXPECT_EQ(owner.precopy_round(kNonce, "m9"), Status::kInvalidParameter);
  EXPECT_EQ(me0_->transfer_task_count(), 1u);
  EXPECT_EQ(owner.precopy_round(kNonce, "m1"), Status::kOk);

  // An arm follows the same rule, against a reservation of its own.
  constexpr uint64_t kReserved = 0x5eee;
  ASSERT_EQ(owner.reserve(kReserved, "m1"), Status::kOk);
  EXPECT_EQ(other.arm(kReserved, "m1"), Status::kAlreadyExists);
  EXPECT_EQ(owner.arm(kReserved, "m9"), Status::kInvalidParameter);
  EXPECT_EQ(owner.arm(kNonce, "m1"), Status::kInvalidParameter);
  EXPECT_EQ(owner.arm(0, "m1"), Status::kInvalidParameter);
  EXPECT_EQ(me0_->transfer_task_count(), 2u);
}

// Every library request that carries a payload refuses a malformed one
// with one kError/kTampered reply, an empty payload, and no queue change.
class MeMalformedLibRequestTest
    : public MeAdversarialTest,
      public ::testing::WithParamInterface<migration::LibMsgType> {};

TEST_P(MeMalformedLibRequestTest, IsTamperedAndChangesNothing) {
  LaClient client(m0_, image_, /*session_id=*/404);
  ASSERT_EQ(client.attest(), Status::kOk);
  // Some queue state to keep: a live pre-copy task, and a queued
  // full-snapshot task whose enqueue seals both (a round writes no queue).
  ASSERT_EQ(client.precopy_round(0x5eed, "m1"), Status::kOk);
  ASSERT_EQ(client.enqueue(0x5eee, "m1"), Status::kOk);
  const size_t tasks = me0_->transfer_task_count();
  const Bytes sealed = me0_->sealed_queue_state();
  ASSERT_FALSE(sealed.empty());
  for (const Bytes& malformed : {Bytes{}, Bytes(3, 0xff), Bytes(1, 0x01)}) {
    auto reply = client.request(GetParam(), malformed);
    ASSERT_TRUE(reply.ok()) << status_name(reply.status());
    EXPECT_EQ(reply.value().type, migration::LibMsgType::kError);
    EXPECT_EQ(reply.value().status, Status::kTampered);
    EXPECT_TRUE(reply.value().payload.empty());
    EXPECT_EQ(me0_->transfer_task_count(), tasks);
    EXPECT_EQ(me0_->sealed_queue_state(), sealed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PayloadRequests, MeMalformedLibRequestTest,
    ::testing::Values(migration::LibMsgType::kMigrateRequest,
                      migration::LibMsgType::kConfirmMigration,
                      migration::LibMsgType::kQueryStatus,
                      migration::LibMsgType::kPrecopyRound,
                      migration::LibMsgType::kPrecopyFinalizeReq,
                      migration::LibMsgType::kMigrateEnqueue,
                      migration::LibMsgType::kPollTransfer,
                      migration::LibMsgType::kAbortStale,
                      migration::LibMsgType::kMigrateReserve,
                      migration::LibMsgType::kMigrateArm),
    [](const ::testing::TestParamInfo<migration::LibMsgType>& row) {
      return "Type" + std::to_string(static_cast<int>(row.param));
    });

// Every status query names its attempt.  Nonce 0 names none: it is
// refused with kInvalidParameter and changes no queue state.
TEST_F(MeAdversarialTest, StatusQueryWithoutANonceIsRefused) {
  LaClient client(m0_, image_, /*session_id=*/606);
  ASSERT_EQ(client.attest(), Status::kOk);
  ASSERT_EQ(client.enqueue(0x5eed, "m1"), Status::kOk);
  const size_t tasks = me0_->transfer_task_count();
  const Bytes sealed = me0_->sealed_queue_state();
  ASSERT_FALSE(sealed.empty());

  migration::NoncePayload query;
  auto reply = client.request(migration::LibMsgType::kQueryStatus,
                              encode_record(query));
  ASSERT_TRUE(reply.ok()) << status_name(reply.status());
  EXPECT_EQ(reply.value().type, migration::LibMsgType::kError);
  EXPECT_EQ(reply.value().status, Status::kInvalidParameter);
  EXPECT_TRUE(reply.value().payload.empty());
  EXPECT_EQ(me0_->transfer_task_count(), tasks);
  EXPECT_EQ(me0_->sealed_queue_state(), sealed);

  // The same session names the queued attempt and gets its fate: queued,
  // not yet retained.
  query.request_nonce = 0x5eed;
  reply = client.request(migration::LibMsgType::kQueryStatus,
                         encode_record(query));
  ASSERT_TRUE(reply.ok()) << status_name(reply.status());
  ASSERT_EQ(reply.value().type, migration::LibMsgType::kStatusReport);
  auto report =
      decode_record<migration::StatusReportPayload>(reply.value().payload);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().state, migration::OutgoingState::kNone);
}

// A warm destination instance learns which attempt is staged for its own
// identity, and which slots it holds: the nonce and the active flags, never
// a counter value or the MSK.  Nothing staged: nothing to bind to.
TEST_F(MeAdversarialTest, WarmQueryNamesOnlyTheCallersStagedAttempt) {
  LaClient source(m0_, image_, /*session_id=*/501);
  ASSERT_EQ(source.attest(), Status::kOk);
  LaClient warm(m1_, image_, /*session_id=*/502);
  ASSERT_EQ(warm.attest(), Status::kOk);
  EXPECT_EQ(warm.send(migration::LibMsgType::kWarmIncoming, Bytes{}),
            Status::kNoPendingMigration);

  migration::PrecopyRoundPayload round;
  round.destination_address = "m1";
  round.request_nonce = 0x3a3a;
  migration::CounterChunk chunk;
  chunk.index = 1;
  chunk.generation = 4;
  chunk.active[2] = true;
  chunk.values[2] = 77;
  round.chunks.push_back(chunk);
  ASSERT_EQ(source.send(migration::LibMsgType::kPrecopyRound,
                        encode_record(round)),
            Status::kOk);

  auto reply = warm.request(migration::LibMsgType::kWarmIncoming, Bytes{});
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply.value().type, migration::LibMsgType::kWarmBinding);
  auto binding =
      decode_record<migration::WarmBindingPayload>(reply.value().payload);
  ASSERT_TRUE(binding.ok());
  EXPECT_EQ(binding.value().request_nonce, 0x3a3au);
  for (size_t slot = 0; slot < migration::kMaxCounters; ++slot) {
    EXPECT_EQ(binding.value().active[slot],
              slot == migration::kPrecopyChunkSlots + 2)
        << slot;
  }

  // Another identity on the same machine learns nothing of it.
  LaClient other(m1_, EnclaveImage::create("other-app", 1, "acme"),
                 /*session_id=*/503);
  ASSERT_EQ(other.attest(), Status::kOk);
  EXPECT_EQ(other.send(migration::LibMsgType::kWarmIncoming, Bytes{}),
            Status::kNoPendingMigration);
}

// The confirm carries the fetch reply's delivery token; the token-less
// form no library writes is refused.
TEST_F(MeAdversarialTest, ConfirmWithoutADeliveryTokenIsTampered) {
  LaClient client(m1_, image_, /*session_id=*/303);
  ASSERT_EQ(client.attest(), Status::kOk);
  EXPECT_EQ(client.send(migration::LibMsgType::kConfirmMigration, Bytes{}),
            Status::kTampered);
  // With a token the session gets the regular verdict: nothing to confirm.
  EXPECT_EQ(client.send(migration::LibMsgType::kConfirmMigration, Bytes(8, 0)),
            Status::kInvalidState);
}

/// A peer ME speaking raw ME<->ME records: it completes the RA handshake
/// with the ME image and a provider-certified machine key of its own, so
/// a test can seal any record the destination must judge on its merits.
class RaClient : public sgx::Enclave {
 public:
  RaClient(platform::Machine& machine, platform::ProviderCa& provider,
           const std::string& peer, uint64_t transfer_id)
      : sgx::Enclave(machine, MigrationEnclave::standard_image()),
        key_(crypto::Ed25519KeyPair::from_seed(
            to_array<32>(rng().bytes(32)))),
        credential_(provider.issue(machine.address(), machine.region(),
                                   machine.cpu_cores(), key_.public_key())),
        peer_(peer + "/me"),
        transfer_id_(transfer_id) {}

  Status attest() {
    auto scope = enter_ecall();
    sgx::RaSession ra(platform(), identity(), sgx::RaSession::Role::kInitiator);
    MeRequest m1;
    m1.type = MeMsgType::kRaMsg1;
    m1.id = transfer_id_;
    m1.payload = encode_record(ra.create_msg1());
    const MeResponse r1 = call(m1);
    if (r1.status != Status::kOk) return r1.status;
    auto msg2 = decode_record<sgx::RaMsg2>(r1.payload);
    if (!msg2.ok()) return msg2.status();
    auto msg3 = ra.handle_msg2(msg2.value());
    if (!msg3.ok()) return msg3.status();
    migration::ProviderAuth auth;
    auth.credential = credential_;
    auth.transcript_signature =
        key_.sign(migration::provider_auth_message(ra.transcript_hash()));
    BinaryWriter payload;
    payload.bytes(encode_record(msg3.value()));
    payload.bytes(encode_record(auth));
    MeRequest m3;
    m3.type = MeMsgType::kRaMsg3;
    m3.id = transfer_id_;
    m3.payload = payload.take();
    const MeResponse r3 = call(m3);
    if (r3.status != Status::kOk) return r3.status;
    channel_.emplace(ra.session_key(), net::SecureChannel::Role::kInitiator);
    return Status::kOk;
  }

  /// Seals `record` as one `type` request; returns the reply's status.
  Status send(MeMsgType type, const Bytes& record) {
    auto scope = enter_ecall();
    MeRequest req;
    req.type = type;
    req.id = transfer_id_;
    req.payload = channel_->seal_record(record);
    return call(req).status;
  }

 private:
  MeResponse call(const MeRequest& req) {
    auto raw = platform().network()->rpc(peer_, encode_record(req));
    if (!raw.ok()) return MeResponse{raw.status(), {}};
    auto resp = decode_record<MeResponse>(raw.value());
    return resp.ok() ? resp.value() : MeResponse{Status::kTampered, {}};
  }

  crypto::Ed25519KeyPair key_;
  platform::MachineCredential credential_;
  std::string peer_;
  uint64_t transfer_id_;
  std::optional<net::SecureChannel> channel_;
};

// A record names its attempt by request nonce.  Nonce 0 names no attempt
// the source could abort or reconcile, so an authenticated transfer
// carrying it is refused like a zero-nonce pre-copy record.
TEST_F(MeAdversarialTest, TransferWithoutANonceIsRefused) {
  RaClient peer(m0_, world_.provider(), "m1", /*transfer_id=*/0x7a11);
  ASSERT_EQ(peer.attest(), Status::kOk);
  migration::TransferPayload payload;
  payload.source_mr_enclave = image_->mr_enclave();
  payload.source_me_address = "m0";
  EXPECT_EQ(peer.send(MeMsgType::kTransfer, encode_record(payload)),
            Status::kInvalidParameter);
  EXPECT_EQ(me1_->pending_incoming_count(), 0u);
  // The same conversation carries a well-formed transfer.
  payload.request_nonce = 0x5eed;
  EXPECT_EQ(peer.send(MeMsgType::kTransfer, encode_record(payload)),
            Status::kOk);
  EXPECT_EQ(me1_->pending_incoming_count(), 1u);
}

}  // namespace
}  // namespace sgxmig
