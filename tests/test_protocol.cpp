// Serialization tests for every protocol message type (docs/PROTOCOL.md):
// round trips, boundary values, and rejection of malformed/truncated/
// trailing-garbage encodings — the parsing layer faces the raw network.
#include <gtest/gtest.h>

#include "migration/library_state.h"
#include "migration/protocol.h"
#include "support/rng.h"

namespace sgxmig::migration {
namespace {

TEST(ProtocolSerde, MeRequestRoundTrip) {
  MeRequest req;
  req.type = MeMsgType::kTransfer;
  req.id = 0x0123456789abcdefULL;
  req.payload = to_bytes(std::string_view("opaque record"));
  auto back = MeRequest::deserialize(req.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().type, req.type);
  EXPECT_EQ(back.value().id, req.id);
  EXPECT_EQ(back.value().payload, req.payload);
}

TEST(ProtocolSerde, MeRequestRejectsUnknownType) {
  MeRequest req;
  req.type = MeMsgType::kLaStart;
  Bytes bytes = req.serialize();
  bytes[0] = 0;  // type 0 invalid
  EXPECT_FALSE(MeRequest::deserialize(bytes).ok());
  bytes[0] = 13;  // one past kSessionResume, the highest valid type
  EXPECT_FALSE(MeRequest::deserialize(bytes).ok());
}

TEST(ProtocolSerde, MeRequestRejectsTrailingGarbage) {
  MeRequest req;
  req.type = MeMsgType::kLaStart;
  Bytes bytes = req.serialize();
  bytes.push_back(0x00);
  EXPECT_FALSE(MeRequest::deserialize(bytes).ok());
}

TEST(ProtocolSerde, MeResponseRoundTrip) {
  MeResponse resp;
  resp.status = Status::kPolicyViolation;
  resp.payload = Bytes(300, 0x7a);
  auto back = MeResponse::deserialize(resp.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().status, Status::kPolicyViolation);
  EXPECT_EQ(back.value().payload, resp.payload);
}

TEST(ProtocolSerde, LibMsgRoundTrip) {
  LibMsg msg;
  msg.type = LibMsgType::kIncomingData;
  msg.status = Status::kOk;
  msg.payload = Bytes(1500, 0x42);
  auto back = LibMsg::deserialize(msg.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().type, LibMsgType::kIncomingData);
  EXPECT_EQ(back.value().payload, msg.payload);
}

TEST(ProtocolSerde, MigrateRequestPayloadRoundTrip) {
  MigrateRequestPayload payload;
  payload.destination_address = "machine-17";
  payload.policy.allowed_regions = {"eu-central", "ap-south"};
  payload.policy.denied_addresses = {"machine-3"};
  payload.policy.min_cpu_cores = 12;
  payload.data.counters_active[9] = true;
  payload.data.counter_values[9] = 77;
  payload.data.msk[0] = 0xaa;
  auto back = MigrateRequestPayload::deserialize(payload.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().destination_address, "machine-17");
  EXPECT_EQ(back.value().policy.allowed_regions,
            payload.policy.allowed_regions);
  EXPECT_EQ(back.value().policy.min_cpu_cores, 12u);
  EXPECT_EQ(back.value().data, payload.data);
}

TEST(ProtocolSerde, TransferPayloadRoundTrip) {
  TransferPayload payload;
  payload.source_mr_enclave[5] = 0x55;
  payload.source_me_address = "m0";
  payload.data.counters_active[0] = true;
  payload.data.counter_values[0] = 0xffffffff;
  auto back = TransferPayload::deserialize(payload.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().source_mr_enclave, payload.source_mr_enclave);
  EXPECT_EQ(back.value().source_me_address, "m0");
  EXPECT_EQ(back.value().data, payload.data);
}

// Every message type of both protocol enums must round-trip through the
// envelope it travels in.  simlint's protocol-exhaustiveness checker
// requires every enumerator to be exercised somewhere under tests/ —
// these sweeps are that floor, so a new message type cannot ship
// without at least wire-level coverage (and without being added here).
TEST(ProtocolSerde, MeRequestRoundTripsEveryType) {
  const MeMsgType kAllTypes[] = {
      MeMsgType::kLaStart,      MeMsgType::kLaMsg2,
      MeMsgType::kLaRecord,     MeMsgType::kRaMsg1,
      MeMsgType::kRaMsg3,       MeMsgType::kTransfer,
      MeMsgType::kDone,         MeMsgType::kPrecopyChunk,
      MeMsgType::kPrecopyFinalize, MeMsgType::kReconcile,
      MeMsgType::kAbort,        MeMsgType::kSessionResume,
  };
  for (const MeMsgType type : kAllTypes) {
    MeRequest req;
    req.type = type;
    req.id = 42;
    req.payload = to_bytes(std::string_view("x"));
    auto back = MeRequest::deserialize(req.serialize());
    ASSERT_TRUE(back.ok()) << "type " << static_cast<int>(type);
    EXPECT_EQ(back.value().type, type);
  }
}

TEST(ProtocolSerde, LibMsgRoundTripsEveryType) {
  const LibMsgType kAllTypes[] = {
      LibMsgType::kMigrateRequest,   LibMsgType::kFetchIncoming,
      LibMsgType::kConfirmMigration, LibMsgType::kQueryStatus,
      LibMsgType::kPrecopyRound,     LibMsgType::kPrecopyFinalizeReq,
      LibMsgType::kMigrateEnqueue,   LibMsgType::kPollTransfer,
      LibMsgType::kAbortStale,       LibMsgType::kMigrateAccepted,
      LibMsgType::kIncomingData,     LibMsgType::kConfirmAck,
      LibMsgType::kStatusReport,     LibMsgType::kError,
      LibMsgType::kPrecopyAck,       LibMsgType::kFinalizeAccepted,
      LibMsgType::kMigrateQueued,    LibMsgType::kTransferProgress,
      LibMsgType::kAbortAck,         LibMsgType::kMigrateReserve,
      LibMsgType::kMigrateArm,       LibMsgType::kArmAck,
  };
  for (const LibMsgType type : kAllTypes) {
    LibMsg msg;
    msg.type = type;
    msg.status = Status::kOk;
    msg.payload = to_bytes(std::string_view("payload"));
    auto back = LibMsg::deserialize(msg.serialize());
    ASSERT_TRUE(back.ok()) << "type " << static_cast<int>(type);
    EXPECT_EQ(back.value().type, type);
    EXPECT_EQ(back.value().payload, msg.payload);
  }
}

TEST(ProtocolSerde, QueryStatusPayloadRoundTrip) {
  QueryStatusPayload payload;
  payload.request_nonce = 0xdeadbeefcafef00dULL;
  auto back = QueryStatusPayload::deserialize(payload.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().request_nonce, payload.request_nonce);
  // The per-identity query writes its zero nonce like any other; the
  // empty encoding no party writes is refused.
  EXPECT_EQ(QueryStatusPayload{}.serialize(), Bytes(8, 0));
  EXPECT_EQ(QueryStatusPayload::deserialize(Bytes{}).status(),
            Status::kTampered);
}

TEST(ProtocolSerde, IncomingDataPayloadRequiresItsNonce) {
  IncomingDataPayload payload;
  payload.data = Bytes(40, 0x5a);
  payload.delivery_token = 0x1122334455667788ULL;
  payload.request_nonce = 0x99aabbccddeeff00ULL;
  const Bytes wire = payload.serialize();
  auto back = IncomingDataPayload::deserialize(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().data, payload.data);
  EXPECT_EQ(back.value().delivery_token, payload.delivery_token);
  EXPECT_EQ(back.value().request_nonce, payload.request_nonce);
  // A reply that ends after the token (the nonce-less form) is refused.
  EXPECT_EQ(IncomingDataPayload::deserialize(
                ByteView(wire.data(), wire.size() - 8))
                .status(),
            Status::kTampered);
}

TEST(ProtocolSerde, LibraryStateRefusesTheV1Layout) {
  LibraryState state;
  state.counters_active[3] = true;
  state.counter_offsets[3] = 17;
  state.epoch_value = 9;
  auto back = LibraryState::deserialize(state.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().counter_offsets[3], 17u);
  EXPECT_EQ(back.value().epoch_value, 9u);
  // The v1 layout (no epoch-guard fields) is no longer read.
  BinaryWriter v1;
  v1.str("SGXMIG-LIBSTATE-v1");
  v1.u8(state.frozen);
  for (bool active : state.counters_active) v1.u8(active ? 1 : 0);
  for (const auto& uuid : state.counter_uuids) sgx::serialize_uuid(v1, uuid);
  for (uint32_t offset : state.counter_offsets) v1.u32(offset);
  v1.fixed(state.msk);
  EXPECT_EQ(LibraryState::deserialize(v1.take()).status(), Status::kTampered);
}

TEST(ProtocolSerde, MigrateReservePayloadRoundTrip) {
  MigrateReservePayload payload;
  payload.destination_address = "m4";
  payload.request_nonce = 77;
  payload.policy.allowed_regions = {"eu-central"};
  payload.policy.min_cpu_cores = 8;
  auto back = MigrateReservePayload::deserialize(payload.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().destination_address, "m4");
  EXPECT_EQ(back.value().request_nonce, 77u);
  EXPECT_EQ(back.value().policy.allowed_regions,
            payload.policy.allowed_regions);
}

TEST(ProtocolSerde, PollTransferAndProgressRoundTrip) {
  PollTransferPayload poll;
  poll.request_nonce = 123;
  auto poll_back = PollTransferPayload::deserialize(poll.serialize());
  ASSERT_TRUE(poll_back.ok());
  EXPECT_EQ(poll_back.value().request_nonce, 123u);

  TransferProgressPayload progress;
  progress.progress = TransferProgress::kSlotLive;
  progress.failure = Status::kOk;
  auto back = TransferProgressPayload::deserialize(progress.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().progress, TransferProgress::kSlotLive);

  progress.progress = TransferProgress::kFailed;
  progress.failure = Status::kPolicyViolation;
  back = TransferProgressPayload::deserialize(progress.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().progress, TransferProgress::kFailed);
  EXPECT_EQ(back.value().failure, Status::kPolicyViolation);
}

TEST(ProtocolSerde, AbortPayloadsRoundTrip) {
  AbortStalePayload stale;
  stale.request_nonce = 9;
  stale.destination_address = "m2";
  auto stale_back = AbortStalePayload::deserialize(stale.serialize());
  ASSERT_TRUE(stale_back.ok());
  EXPECT_EQ(stale_back.value().request_nonce, 9u);
  EXPECT_EQ(stale_back.value().destination_address, "m2");

  AbortRequest abort_req;
  abort_req.source_mr_enclave[3] = 0x33;
  abort_req.request_nonce = 9;
  auto abort_back = AbortRequest::deserialize(abort_req.serialize());
  ASSERT_TRUE(abort_back.ok());
  EXPECT_EQ(abort_back.value().source_mr_enclave, abort_req.source_mr_enclave);
  EXPECT_EQ(abort_back.value().request_nonce, 9u);
}

TEST(ProtocolSerde, PrecopyRoundPayloadRoundTrip) {
  PrecopyRoundPayload payload;
  payload.destination_address = "m7";
  payload.request_nonce = 404;
  payload.round = 3;
  CounterChunk chunk;
  chunk.index = 5;
  chunk.generation = 11;
  chunk.active[0] = true;
  chunk.values[0] = 99;
  payload.chunks.push_back(chunk);
  auto back = PrecopyRoundPayload::deserialize(payload.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().round, 3u);
  ASSERT_EQ(back.value().chunks.size(), 1u);
  EXPECT_EQ(back.value().chunks[0].index, 5u);
  EXPECT_EQ(back.value().chunks[0].generation, 11u);
  EXPECT_EQ(back.value().chunks[0].values[0], 99u);
}

TEST(ProtocolSerde, PrecopyFinalizePayloadRoundTrip) {
  PrecopyFinalizePayload payload;
  payload.destination_address = "m7";
  payload.request_nonce = 405;
  payload.round = 4;
  payload.manifest.push_back({2, 7});
  payload.msk[0] = 0x5a;
  auto back = PrecopyFinalizePayload::deserialize(payload.serialize());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().manifest.size(), 1u);
  EXPECT_EQ(back.value().manifest[0].index, 2u);
  EXPECT_EQ(back.value().manifest[0].generation, 7u);
  EXPECT_EQ(back.value().msk, payload.msk);
}

TEST(ProtocolSerde, PrecopyRecordsRoundTrip) {
  PrecopyChunkRecord chunk_record;
  chunk_record.source_mr_enclave[1] = 0x11;
  chunk_record.source_me_address = "m0";
  chunk_record.request_nonce = 500;
  chunk_record.round = 1;
  auto chunk_back = PrecopyChunkRecord::deserialize(chunk_record.serialize());
  ASSERT_TRUE(chunk_back.ok());
  EXPECT_EQ(chunk_back.value().source_me_address, "m0");
  EXPECT_EQ(chunk_back.value().request_nonce, 500u);

  PrecopyFinalizeRecord finalize_record;
  finalize_record.source_mr_enclave[2] = 0x22;
  finalize_record.source_me_address = "m1";
  finalize_record.request_nonce = 501;
  finalize_record.manifest.push_back({0, 1});
  finalize_record.msk[15] = 0xff;
  auto finalize_back =
      PrecopyFinalizeRecord::deserialize(finalize_record.serialize());
  ASSERT_TRUE(finalize_back.ok());
  EXPECT_EQ(finalize_back.value().source_me_address, "m1");
  ASSERT_EQ(finalize_back.value().manifest.size(), 1u);
  EXPECT_EQ(finalize_back.value().msk, finalize_record.msk);
}

TEST(ProtocolSerde, ReconcileQueryRoundTrip) {
  ReconcileQuery query;
  query.source_mr_enclave[7] = 0x77;
  query.request_nonce = 600;
  auto back = ReconcileQuery::deserialize(query.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().source_mr_enclave, query.source_mr_enclave);
  EXPECT_EQ(back.value().request_nonce, 600u);
}

TEST(ProtocolSerde, SessionResumeRoundTrip) {
  SessionResumeRequest request;
  request.initiator_address = "m3";
  request.responder_epoch = 0xabcdef;
  request.nonce[0] = 1;
  request.mac[15] = 2;
  auto req_back = SessionResumeRequest::deserialize(request.serialize());
  ASSERT_TRUE(req_back.ok());
  EXPECT_EQ(req_back.value().initiator_address, "m3");
  EXPECT_EQ(req_back.value().responder_epoch, 0xabcdefu);
  EXPECT_EQ(req_back.value().nonce, request.nonce);
  EXPECT_EQ(req_back.value().mac, request.mac);

  SessionResumeReply reply;
  reply.nonce[5] = 9;
  reply.mac[0] = 8;
  auto reply_back = SessionResumeReply::deserialize(reply.serialize());
  ASSERT_TRUE(reply_back.ok());
  EXPECT_EQ(reply_back.value().nonce, reply.nonce);
  EXPECT_EQ(reply_back.value().mac, reply.mac);
}

TEST(ProtocolSerde, ProviderAuthRoundTrip) {
  ProviderAuth auth;
  auth.credential.address = "m9";
  auth.credential.region = "eu-west";
  auth.credential.cpu_cores = 48;
  auth.credential.machine_public_key[0] = 1;
  auth.transcript_signature[63] = 9;
  auto back = ProviderAuth::deserialize(auth.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().credential.address, "m9");
  EXPECT_EQ(back.value().credential.cpu_cores, 48u);
  EXPECT_EQ(back.value().transcript_signature, auth.transcript_signature);
}

TEST(ProtocolSerde, ProviderAuthMessageBindsTranscript) {
  std::array<uint8_t, 32> t1{};
  std::array<uint8_t, 32> t2{};
  t2[0] = 1;
  EXPECT_NE(provider_auth_message(t1), provider_auth_message(t2));
}

class ProtocolFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProtocolFuzz, TruncationsNeverParse) {
  Rng rng(GetParam());
  MigrateRequestPayload payload;
  payload.destination_address = "dest";
  payload.policy.allowed_regions = {"r1", "r2"};
  payload.data.counters_active[3] = true;
  const Bytes full = payload.serialize();
  // Every truncation point must fail to parse (no partial acceptance).
  for (int i = 0; i < 20; ++i) {
    const size_t cut = 1 + rng.uniform(full.size() - 1);
    Bytes truncated(full.begin(), full.begin() + static_cast<long>(cut));
    EXPECT_FALSE(MigrateRequestPayload::deserialize(truncated).ok())
        << "cut at " << cut;
  }
}

TEST_P(ProtocolFuzz, RandomBytesNeverParseAsTransfer) {
  Rng rng(GetParam() ^ 0xf00d);
  for (int i = 0; i < 20; ++i) {
    const Bytes junk = rng.bytes(1 + rng.uniform(2048));
    // Either rejected, or (vanishingly unlikely) parsed — but never
    // crashes or reads out of bounds (ASAN-clean by construction of
    // BinaryReader).
    auto r = TransferPayload::deserialize(junk);
    if (r.ok()) {
      // If it parsed, the serialization must round-trip identically.
      EXPECT_EQ(r.value().serialize(), junk);
    }
  }
}

TEST_P(ProtocolFuzz, BitFlipsDetectedOrIsomorphic) {
  Rng rng(GetParam() ^ 0xbeef);
  ProviderAuth auth;
  auth.credential.address = "m1";
  auth.credential.region = "eu";
  const Bytes original = auth.serialize();
  for (int i = 0; i < 20; ++i) {
    Bytes mutated = original;
    mutated[rng.uniform(mutated.size())] ^=
        static_cast<uint8_t>(1u << rng.uniform(8));
    auto r = ProviderAuth::deserialize(mutated);
    if (r.ok()) {
      // Structure-level parse may succeed; the flipped field must show up
      // so signature verification above this layer will catch it.
      EXPECT_NE(r.value().serialize(), original);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzz, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace sgxmig::migration
