// Serialization tests for every protocol message type (docs/PROTOCOL.md):
// round trips, boundary values, and rejection of malformed/truncated/
// trailing-garbage encodings — the parsing layer faces the raw network.
#include <gtest/gtest.h>

#include <functional>

#include "apps/kvstore.h"
#include "apps/state_version.h"
#include "apps/teechan.h"
#include "apps/trinx.h"
#include "apps/versioned_state.h"
#include "crypto/sha256.h"
#include "migration/library_state.h"
#include "migration/migration_enclave.h"
#include "migration/protocol.h"
#include "net/channel.h"
#include "platform/world.h"
#include "sgx/dh.h"
#include "sgx/ias.h"
#include "sgx/pse_wire.h"
#include "sgx/quote.h"
#include "sgx/remote_attestation.h"
#include "sgx/sealing.h"
#include "support/rng.h"

namespace sgxmig::migration {
namespace {

TEST(ProtocolSerde, MeRequestRoundTrip) {
  MeRequest req;
  req.type = MeMsgType::kTransfer;
  req.id = 0x0123456789abcdefULL;
  req.payload = to_bytes(std::string_view("opaque record"));
  auto back = decode_record<MeRequest>(encode_record(req));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().type, req.type);
  EXPECT_EQ(back.value().id, req.id);
  EXPECT_EQ(back.value().payload, req.payload);
}

TEST(ProtocolSerde, MeRequestRejectsUnknownType) {
  MeRequest req;
  req.type = MeMsgType::kLaStart;
  Bytes bytes = encode_record(req);
  bytes[0] = 0;  // type 0 invalid
  EXPECT_FALSE(decode_record<MeRequest>(bytes).ok());
  bytes[0] = 13;  // one past kSessionResume, the highest valid type
  EXPECT_FALSE(decode_record<MeRequest>(bytes).ok());
}

TEST(ProtocolSerde, MeRequestRejectsTrailingGarbage) {
  MeRequest req;
  req.type = MeMsgType::kLaStart;
  Bytes bytes = encode_record(req);
  bytes.push_back(0x00);
  EXPECT_FALSE(decode_record<MeRequest>(bytes).ok());
}

TEST(ProtocolSerde, MeResponseRoundTrip) {
  MeResponse resp;
  resp.status = Status::kPolicyViolation;
  resp.payload = Bytes(300, 0x7a);
  auto back = decode_record<MeResponse>(encode_record(resp));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().status, Status::kPolicyViolation);
  EXPECT_EQ(back.value().payload, resp.payload);
}

TEST(ProtocolSerde, LibMsgRoundTrip) {
  LibMsg msg;
  msg.type = LibMsgType::kIncomingData;
  msg.status = Status::kOk;
  msg.payload = Bytes(1500, 0x42);
  auto back = decode_record<LibMsg>(encode_record(msg));
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
  auto back = decode_record<MigrateRequestPayload>(encode_record(payload));
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
  auto back = decode_record<TransferPayload>(encode_record(payload));
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
    auto back = decode_record<MeRequest>(encode_record(req));
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
      LibMsgType::kWarmIncoming,     LibMsgType::kWarmBinding,
  };
  for (const LibMsgType type : kAllTypes) {
    LibMsg msg;
    msg.type = type;
    msg.status = Status::kOk;
    msg.payload = to_bytes(std::string_view("payload"));
    auto back = decode_record<LibMsg>(encode_record(msg));
    ASSERT_TRUE(back.ok()) << "type " << static_cast<int>(type);
    EXPECT_EQ(back.value().type, type);
    EXPECT_EQ(back.value().payload, msg.payload);
  }
}

TEST(ProtocolSerde, WarmBindingPayloadRoundTrip) {
  migration::WarmBindingPayload binding;
  binding.request_nonce = 0x0123456789abcdefULL;
  binding.active[0] = true;
  binding.active[17] = true;
  binding.active[migration::kMaxCounters - 1] = true;
  const Bytes wire = encode_record(binding);
  // The nonce and one byte per Table II slot: no value, no key.
  EXPECT_EQ(wire.size(), 8 + migration::kMaxCounters);
  auto back = decode_record<migration::WarmBindingPayload>(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().request_nonce, binding.request_nonce);
  EXPECT_EQ(back.value().active, binding.active);
  EXPECT_EQ(decode_record<migration::WarmBindingPayload>(Bytes(8, 0)).status(),
            Status::kTampered);
}

TEST(ProtocolSerde, NoncePayloadRoundTrip) {
  NoncePayload payload;
  payload.request_nonce = 0xdeadbeefcafef00dULL;
  auto back = decode_record<NoncePayload>(encode_record(payload));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().request_nonce, payload.request_nonce);
  // A zero nonce encodes like any other (the ME refuses it, not the
  // codec); the empty encoding no party writes is refused.
  EXPECT_EQ(encode_record(NoncePayload{}), Bytes(8, 0));
  EXPECT_EQ(decode_record<NoncePayload>(Bytes{}).status(),
            Status::kTampered);
}

TEST(ProtocolSerde, IncomingDataPayloadRequiresItsNonce) {
  IncomingDataPayload payload;
  payload.data = Bytes(40, 0x5a);
  payload.delivery_token = 0x1122334455667788ULL;
  payload.request_nonce = 0x99aabbccddeeff00ULL;
  const Bytes wire = encode_record(payload);
  auto back = decode_record<IncomingDataPayload>(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().data, payload.data);
  EXPECT_EQ(back.value().delivery_token, payload.delivery_token);
  EXPECT_EQ(back.value().request_nonce, payload.request_nonce);
  // A reply that ends after the token (the nonce-less form) is refused.
  EXPECT_EQ(decode_record<IncomingDataPayload>(
                ByteView(wire.data(), wire.size() - 8))
                .status(),
            Status::kTampered);
}

TEST(ProtocolSerde, LibraryStateRefusesTheV1Layout) {
  LibraryState state;
  state.counters_active[3] = true;
  state.counter_offsets[3] = 17;
  state.epoch_value = 9;
  auto back = decode_record<LibraryState>(encode_record(state));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().counter_offsets[3], 17u);
  EXPECT_EQ(back.value().epoch_value, 9u);
  // The v1 layout (no epoch-guard fields) is no longer read.
  BinaryWriter v1;
  v1.str("SGXMIG-LIBSTATE-v1");
  v1.u8(state.frozen);
  for (bool active : state.counters_active) v1.u8(active ? 1 : 0);
  for (const auto& uuid : state.counter_uuids) write_record(v1, uuid);
  for (uint32_t offset : state.counter_offsets) v1.u32(offset);
  v1.fixed(state.msk);
  EXPECT_EQ(decode_record<LibraryState>(v1.take()).status(), Status::kTampered);
}

TEST(ProtocolSerde, MigrateReservePayloadRoundTrip) {
  MigrateReservePayload payload;
  payload.destination_address = "m4";
  payload.request_nonce = 77;
  payload.policy.allowed_regions = {"eu-central"};
  payload.policy.min_cpu_cores = 8;
  auto back = decode_record<MigrateReservePayload>(encode_record(payload));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().destination_address, "m4");
  EXPECT_EQ(back.value().request_nonce, 77u);
  EXPECT_EQ(back.value().policy.allowed_regions,
            payload.policy.allowed_regions);
}

TEST(ProtocolSerde, PollTransferAndProgressRoundTrip) {
  NoncePayload poll;
  poll.request_nonce = 123;
  auto poll_back = decode_record<NoncePayload>(encode_record(poll));
  ASSERT_TRUE(poll_back.ok());
  EXPECT_EQ(poll_back.value().request_nonce, 123u);

  TransferProgressPayload progress;
  progress.progress = TransferProgress::kSlotLive;
  progress.failure = Status::kOk;
  auto back = decode_record<TransferProgressPayload>(encode_record(progress));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().progress, TransferProgress::kSlotLive);

  progress.progress = TransferProgress::kFailed;
  progress.failure = Status::kPolicyViolation;
  back = decode_record<TransferProgressPayload>(encode_record(progress));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().progress, TransferProgress::kFailed);
  EXPECT_EQ(back.value().failure, Status::kPolicyViolation);
}

TEST(ProtocolSerde, AbortPayloadsRoundTrip) {
  AbortStalePayload stale;
  stale.request_nonce = 9;
  stale.destination_address = "m2";
  auto stale_back = decode_record<AbortStalePayload>(encode_record(stale));
  ASSERT_TRUE(stale_back.ok());
  EXPECT_EQ(stale_back.value().request_nonce, 9u);
  EXPECT_EQ(stale_back.value().destination_address, "m2");

  AttemptRef abort_req;
  abort_req.source_mr_enclave[3] = 0x33;
  abort_req.request_nonce = 9;
  auto abort_back = decode_record<AttemptRef>(encode_record(abort_req));
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
  auto back = decode_record<PrecopyRoundPayload>(encode_record(payload));
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
  auto back = decode_record<PrecopyFinalizePayload>(encode_record(payload));
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
  auto chunk_back =
      decode_record<PrecopyChunkRecord>(encode_record(chunk_record));
  ASSERT_TRUE(chunk_back.ok());
  EXPECT_EQ(chunk_back.value().source_me_address, "m0");
  EXPECT_EQ(chunk_back.value().request_nonce, 500u);

  PrecopyFinalizeRecord finalize_record;
  finalize_record.source_mr_enclave[2] = 0x22;
  finalize_record.source_me_address = "m1";
  finalize_record.request_nonce = 501;
  finalize_record.manifest.push_back({0, 1});
  finalize_record.msk[15] = 0xff;
  finalize_record.resumed = true;
  auto finalize_back =
      decode_record<PrecopyFinalizeRecord>(encode_record(finalize_record));
  ASSERT_TRUE(finalize_back.ok());
  EXPECT_EQ(finalize_back.value().source_me_address, "m1");
  ASSERT_EQ(finalize_back.value().manifest.size(), 1u);
  EXPECT_EQ(finalize_back.value().msk, finalize_record.msk);
  EXPECT_TRUE(finalize_back.value().resumed);
}

TEST(ProtocolSerde, SessionResumeRoundTrip) {
  SessionResumeRequest request;
  request.initiator_address = "m3";
  request.responder_epoch = 0xabcdef;
  request.nonce[0] = 1;
  request.mac[15] = 2;
  auto req_back = decode_record<SessionResumeRequest>(encode_record(request));
  ASSERT_TRUE(req_back.ok());
  EXPECT_EQ(req_back.value().initiator_address, "m3");
  EXPECT_EQ(req_back.value().responder_epoch, 0xabcdefu);
  EXPECT_EQ(req_back.value().nonce, request.nonce);
  EXPECT_EQ(req_back.value().mac, request.mac);

  SessionResumeReply reply;
  reply.nonce[5] = 9;
  reply.mac[0] = 8;
  auto reply_back = decode_record<SessionResumeReply>(encode_record(reply));
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
  auto back = decode_record<ProviderAuth>(encode_record(auth));
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
  const Bytes full = encode_record(payload);
  // Every truncation point must fail to parse (no partial acceptance).
  for (int i = 0; i < 20; ++i) {
    const size_t cut = 1 + rng.uniform(full.size() - 1);
    Bytes truncated(full.begin(), full.begin() + static_cast<long>(cut));
    EXPECT_FALSE(decode_record<MigrateRequestPayload>(truncated).ok())
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
    auto r = decode_record<TransferPayload>(junk);
    if (r.ok()) {
      // If it parsed, the serialization must round-trip identically.
      EXPECT_EQ(encode_record(r.value()), junk);
    }
  }
}

TEST_P(ProtocolFuzz, BitFlipsDetectedOrIsomorphic) {
  Rng rng(GetParam() ^ 0xbeef);
  ProviderAuth auth;
  auth.credential.address = "m1";
  auth.credential.region = "eu";
  const Bytes original = encode_record(auth);
  for (int i = 0; i < 20; ++i) {
    Bytes mutated = original;
    mutated[rng.uniform(mutated.size())] ^=
        static_cast<uint8_t>(1u << rng.uniform(8));
    auto r = decode_record<ProviderAuth>(mutated);
    if (r.ok()) {
      // Structure-level parse may succeed; the flipped field must show up
      // so signature verification above this layer will catch it.
      EXPECT_NE(encode_record(r.value()), original);
      EXPECT_EQ(encode_record(r.value()), mutated);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzz, ::testing::Values(1, 2, 3, 4));


// ----- encoding pins -----
//
// One fixed sample per wire record and the SHA-256 of its encoding, so a
// field list that moves a single byte fails here.  Records that only
// travel inside another (the EPID credential, the report body's identity,
// the counter uuid) are pinned through the record that carries them.

template <size_t N>
std::array<uint8_t, N> pattern(uint8_t seed) {
  std::array<uint8_t, N> out{};
  for (size_t i = 0; i < N; ++i) out[i] = static_cast<uint8_t>(seed * 31 + i);
  return out;
}

Bytes pattern_bytes(size_t n, uint8_t seed) {
  Bytes out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(seed * 17 + i);
  return out;
}

MigrationPolicy sample_policy() {
  MigrationPolicy policy;
  policy.allowed_regions = {"eu-central", "ap-south"};
  policy.denied_addresses = {"machine-3"};
  policy.min_cpu_cores = 12;
  return policy;
}

MigrationData sample_data() {
  MigrationData data;
  data.counters_active[0] = true;
  data.counters_active[9] = true;
  data.counters_active[255] = true;
  data.counter_values[0] = 1;
  data.counter_values[9] = 77;
  data.counter_values[255] = 0xfffffffe;
  data.msk = pattern<16>(4);
  return data;
}

CounterChunk sample_chunk(uint32_t index) {
  CounterChunk chunk;
  chunk.index = index;
  chunk.generation = 11 + index;
  chunk.active[0] = true;
  chunk.active[15] = true;
  for (size_t i = 0; i < chunk.values.size(); ++i) {
    chunk.values[i] = static_cast<uint32_t>(i * 7 + index);
  }
  return chunk;
}

platform::MachineCredential sample_credential() {
  platform::MachineCredential credential;
  credential.address = "m9";
  credential.region = "eu-west";
  credential.cpu_cores = 48;
  credential.machine_public_key = pattern<32>(17);
  credential.signature = pattern<64>(18);
  return credential;
}

sgx::ReportBody sample_report_body() {
  sgx::ReportBody body;
  body.identity.mr_enclave = pattern<32>(23);
  body.identity.mr_signer = pattern<32>(24);
  body.identity.isv_prod_id = 0x8086;
  body.identity.isv_svn = 3;
  body.report_data = pattern<64>(25);
  return body;
}

sgx::Report sample_report() {
  sgx::Report report;
  report.body = sample_report_body();
  report.mac = pattern<16>(26);
  return report;
}

sgx::Quote sample_quote() {
  sgx::Quote quote;
  quote.body = sample_report_body();
  quote.credential.group_id = 0x0b0b0001;
  quote.credential.member_public_key = pattern<32>(32);
  quote.credential.membership_certificate = pattern<64>(33);
  quote.signature = pattern<64>(34);
  return quote;
}

sgx::PseRequest sample_pse_request(sgx::PseOp op) {
  sgx::PseRequest req;
  req.op = op;
  req.owner = pattern<32>(36);
  req.session_token = pattern<16>(37);
  req.uuid.counter_id = 4;
  req.uuid.nonce = pattern<12>(38);
  if (op == sgx::PseOp::kCreate) req.nonce_entropy = pattern_bytes(32, 39);
  if (op == sgx::PseOp::kRetire) {
    req.retire_uuids.resize(2);
    req.retire_uuids[0].counter_id = 5;
    req.retire_uuids[0].nonce = pattern<12>(40);
    req.retire_uuids[1].counter_id = 6;
    req.retire_uuids[1].nonce = pattern<12>(41);
  }
  return req;
}

/// Decodes `wire` as a T and re-encodes it; empty when decoding fails.
template <class T>
Bytes reencode(ByteView wire) {
  auto back = decode_record<T>(wire);
  return back.ok() ? encode_record(back.value()) : Bytes{};
}

struct Pin {
  const char* record;
  std::function<Bytes()> encode;
  std::function<Bytes(ByteView)> reencode;
  const char* sha256;
};

std::vector<Pin> pins() {
  std::vector<Pin> out;
  const auto add = [&out](const char* record, std::function<Bytes()> encode,
                          std::function<Bytes(ByteView)> again,
                          const char* sha256) {
    out.push_back(Pin{record, std::move(encode), std::move(again), sha256});
  };
  add("MeRequest", [] {
        MeRequest req;
        req.type = MeMsgType::kTransfer;
        req.id = 0x0123456789abcdefULL;
        req.payload = pattern_bytes(37, 1);
        return encode_record(req);
      }, reencode<MeRequest>,
      "7e836de34837441da58f6f14bef9a53e379876e2fe88dbb52b91cc8e98d7ee44");
  add("MeResponse", [] {
        MeResponse resp;
        resp.status = Status::kPolicyViolation;
        resp.payload = pattern_bytes(41, 2);
        return encode_record(resp);
      }, reencode<MeResponse>,
      "1748258ae66aab2c5746e6a312a08584fb9296a330f45ab3fee30ecd076b86f1");
  add("LibMsg", [] {
        LibMsg msg;
        msg.type = LibMsgType::kIncomingData;
        msg.status = Status::kTampered;
        msg.payload = pattern_bytes(29, 3);
        return encode_record(msg);
      }, reencode<LibMsg>,
      "bb93fe231a35b45b03f9837ff797a8055164252a430e6dd4533afd4740adff46");
  add("MigrationPolicy", [] { return encode_record(sample_policy()); },
      reencode<MigrationPolicy>,
      "4b65d854569a012be55043e23276c902a6a6e9bcd9ddcf0bb1696174298aebca");
  add("MigrationData", [] { return encode_record(sample_data()); },
      reencode<MigrationData>,
      "abe75ffc8610da2e509fc0c28d880d55eb41c205fe99c65e79e6384787d3b3ff");
  add("MigrateRequestPayload", [] {
        MigrateRequestPayload p;
        p.destination_address = "machine-17";
        p.request_nonce = 0x1122334455667788ULL;
        p.policy = sample_policy();
        p.data = sample_data();
        return encode_record(p);
      }, reencode<MigrateRequestPayload>,
      "3716ecb3642c758d00f47a78cf86db49b2ccc536b338ffb9e3bb90af4e6fe850");
  add("MigrateReservePayload", [] {
        MigrateReservePayload p;
        p.destination_address = "m4";
        p.request_nonce = 77;
        p.policy = sample_policy();
        return encode_record(p);
      }, reencode<MigrateReservePayload>,
      "46ee87652b11e293198bf058ebd667bf6bf2c9a0fba25de4d8451c5f1677ac19");
  add("NoncePayload (kPollTransfer)", [] {
        NoncePayload p;
        p.request_nonce = 123;
        return encode_record(p);
      }, reencode<NoncePayload>,
      "4f319987a786107dc63b2b70115b3734cb9880b099b70c463c5e1b05521ab764");
  add("TransferProgressPayload", [] {
        TransferProgressPayload p;
        p.progress = TransferProgress::kFailed;
        p.failure = Status::kPolicyViolation;
        return encode_record(p);
      }, reencode<TransferProgressPayload>,
      "a580bd6b1a4fbd4187d61cc7fcf6ce7d74207c3c9adddae9c3a358a5cb8344b0");
  add("AbortStalePayload", [] {
        AbortStalePayload p;
        p.request_nonce = 9;
        p.destination_address = "m2";
        return encode_record(p);
      }, reencode<AbortStalePayload>,
      "2c75936fa2b0a9cd4f4224fc1777003a5a0285e74ceb6cb273a6fc0559959c97");
  add("AttemptRef (kAbort)", [] {
        AttemptRef p;
        p.source_mr_enclave = pattern<32>(5);
        p.request_nonce = 9;
        return encode_record(p);
      }, reencode<AttemptRef>,
      "eb95fc69af78841b80dfc0f85fcb881f4f0e52da3fa23177d2f2ece4321ad319");
  add("IncomingDataPayload", [] {
        IncomingDataPayload p;
        p.data = pattern_bytes(40, 6);
        p.delivery_token = 0x1122334455667788ULL;
        p.request_nonce = 0x99aabbccddeeff00ULL;
        return encode_record(p);
      }, reencode<IncomingDataPayload>,
      "855e6eb42fd1873dcef755306851733b71e564befb8ed4a5e07da55c6cc1b5d3");
  add("NoncePayload (kQueryStatus)", [] {
        NoncePayload p;
        p.request_nonce = 0xdeadbeefcafef00dULL;
        return encode_record(p);
      }, reencode<NoncePayload>,
      "ee7f7806fd74e16401441c48c1b78bd211355c53e764363544d682ca48e4bfc2");
  add("CounterChunk", [] { return encode_record(sample_chunk(5)); },
      reencode<CounterChunk>,
      "9b9c7720c2a2ce77158f685782f6a4e2f004f8329d8b3d2cc27a95acdcd3b875");
  add("PrecopyRoundPayload", [] {
        PrecopyRoundPayload p;
        p.destination_address = "m7";
        p.request_nonce = 404;
        p.round = 3;
        p.policy = sample_policy();
        p.chunks = {sample_chunk(5), sample_chunk(15)};
        return encode_record(p);
      }, reencode<PrecopyRoundPayload>,
      "09f020f7c4a30dddfd9c8a6190b4e6b258afb6b025a4fa5234f8e824213675d5");
  add("PrecopyFinalizePayload", [] {
        PrecopyFinalizePayload p;
        p.destination_address = "m7";
        p.request_nonce = 405;
        p.round = 4;
        p.policy = sample_policy();
        p.chunks = {sample_chunk(5)};
        p.manifest = {{2, 7}, {15, 9}};
        p.msk = pattern<16>(7);
        return encode_record(p);
      }, reencode<PrecopyFinalizePayload>,
      "c071069e86f358104ec9785487282631f281aacdfa3fb69de3fcea9da8ea2267");
  add("PrecopyChunkRecord", [] {
        PrecopyChunkRecord p;
        p.source_mr_enclave = pattern<32>(8);
        p.source_me_address = "m0";
        p.request_nonce = 500;
        p.round = 1;
        p.chunks = {sample_chunk(5)};
        return encode_record(p);
      }, reencode<PrecopyChunkRecord>,
      "96886d7ed5f7233fc3bcdd451ca48fba75c22acf143b3829532f3f54b5d9e75b");
  add("PrecopyFinalizeRecord", [] {
        PrecopyFinalizeRecord p;
        p.source_mr_enclave = pattern<32>(9);
        p.source_me_address = "m1";
        p.request_nonce = 501;
        p.round = 2;
        p.chunks = {sample_chunk(15)};
        p.manifest = {{0, 1}};
        p.msk = pattern<16>(10);
        return encode_record(p);
      }, reencode<PrecopyFinalizeRecord>,
      "9c0f0a522beb25f7e0ac157bd902a7fcec4eef4312579be4eb2f218a3c46acc1");
  add("AttemptRef (kReconcile)", [] {
        AttemptRef p;
        p.source_mr_enclave = pattern<32>(11);
        p.request_nonce = 600;
        return encode_record(p);
      }, reencode<AttemptRef>,
      "4bafa4862d614daef2cc694d7f06b277307d42f9ae2d5a3bff6e11b758f3dcb7");
  add("TransferPayload", [] {
        TransferPayload p;
        p.source_mr_enclave = pattern<32>(12);
        p.source_me_address = "m0";
        p.request_nonce = 700;
        p.data = sample_data();
        return encode_record(p);
      }, reencode<TransferPayload>,
      "965c48f27ca715cbb492cc58129f55a3e44a2863458cb0a540d0ad6c9bf7a668");
  add("SessionResumeRequest", [] {
        SessionResumeRequest p;
        p.initiator_address = "m3";
        p.responder_epoch = 0xabcdef;
        p.nonce = pattern<16>(13);
        p.mac = pattern<16>(14);
        return encode_record(p);
      }, reencode<SessionResumeRequest>,
      "46328bd512dd19721e9895b4f52f0eeedd63327b420ef55c6db5e5940deceffd");
  add("SessionResumeReply", [] {
        SessionResumeReply p;
        p.nonce = pattern<16>(15);
        p.mac = pattern<16>(16);
        return encode_record(p);
      }, reencode<SessionResumeReply>,
      "7554d2b577911fa05674324934a1b81f072eb179211f49f2fd1f32eee6f5fbb5");
  add("MachineCredential", [] { return encode_record(sample_credential()); },
      reencode<platform::MachineCredential>,
      "a9107f5a63b25be33aa130e06c635ea6435788daaad0604ec5ff221f5d8d860b");
  add("ProviderAuth", [] {
        ProviderAuth p;
        p.credential = sample_credential();
        p.transcript_signature = pattern<64>(19);
        return encode_record(p);
      }, reencode<ProviderAuth>,
      "51247a9e3c6b73c66aa97a475f5990b51183dda4b47d0988daf82086390dadce");
  add("LibraryState", [] {
        LibraryState s;
        s.frozen = 1;
        s.counters_active[3] = true;
        s.counter_uuids[3].counter_id = 7;
        s.counter_uuids[3].nonce = pattern<12>(20);
        s.counter_offsets[3] = 17;
        s.msk = pattern<16>(21);
        s.epoch_active = 1;
        s.epoch_uuid.counter_id = 8;
        s.epoch_uuid.nonce = pattern<12>(22);
        s.epoch_value = 9;
        return encode_record(s);
      }, reencode<LibraryState>,
      "7316ed5038ea1aa3bf064e116f26cadba41771e5368490ce505135a01e4aa63d");
  add("ReportBody", [] { return encode_record(sample_report_body()); },
      [](ByteView wire) {
        BinaryWriter w;  // a report is its body followed by the MAC
        w.raw(wire);
        w.fixed(pattern<16>(26));
        auto report = decode_record<sgx::Report>(w.data());
        return report.ok() ? encode_record(report.value().body) : Bytes{};
      },
      "bd7781294ca65222486e9da414f506ecd7360a414d96d202778ae75e6757b96e");
  add("Report", [] { return encode_record(sample_report()); },
      reencode<sgx::Report>,
      "a62478ab8abc1c02f319c770a791d5860aeda234d91e7f5130badd7a54e169ce");
  add("DhMsg1", [] {
        sgx::DhMsg1 m;
        m.responder_public = pattern<32>(27);
        m.responder_target.mr_enclave = pattern<32>(28);
        return encode_record(m);
      }, reencode<sgx::DhMsg1>,
      "0a1835d0279d72be4fb9b76c5ebb5740c841cc7c6536dab0b454dd5c608aa0c4");
  add("DhMsg2", [] {
        sgx::DhMsg2 m;
        m.initiator_public = pattern<32>(29);
        m.initiator_report = sample_report();
        return encode_record(m);
      }, reencode<sgx::DhMsg2>,
      "af93555059055b2ad1c7587ee6faee4ac27ca86de88dcbbb99ed144e2152475c");
  add("DhMsg3", [] {
        sgx::DhMsg3 m;
        m.responder_report = sample_report();
        return encode_record(m);
      }, reencode<sgx::DhMsg3>,
      "b50001ebef138d76b4f5381f2da08ef8d18c3a36d29120c0631c4e1e5bf063cf");
  add("Quote", [] { return encode_record(sample_quote()); },
      reencode<sgx::Quote>,
      "26c9f1d210dc359c1667201893cf094323a074be0f45f55db2c707140dfdb8f7");
  add("RaMsg1", [] {
        sgx::RaMsg1 m;
        m.initiator_public = pattern<32>(30);
        return encode_record(m);
      }, reencode<sgx::RaMsg1>,
      "fd7a3caf84de918ba3ab62de4600187dce4c2865cbb019a4575d8a6d22912a8e");
  add("RaMsg2", [] {
        sgx::RaMsg2 m;
        m.responder_public = pattern<32>(31);
        m.responder_quote = encode_record(sample_quote());
        return encode_record(m);
      }, reencode<sgx::RaMsg2>,
      "6993f6c4eb782d377e68d08ab8a60197efb31d4b5e9fe381a8095b6701f8c690");
  add("RaMsg3", [] {
        sgx::RaMsg3 m;
        m.initiator_quote = encode_record(sample_quote());
        return encode_record(m);
      }, reencode<sgx::RaMsg3>,
      "314a7a37a2f4f660c75ff4d1b16f8956d09ddd46afe1a49446ef6562cad8a63e");
  add("VerificationReport", [] {
        sgx::VerificationReport v;
        v.verdict = sgx::IasVerdict::kGroupRevoked;
        v.quote_body = encode_record(sample_report_body());
        v.ias_signature = pattern<64>(35);
        return encode_record(v);
      }, reencode<sgx::VerificationReport>,
      "df134e933c531aedb1bf3d41883df77023af5468f144daf9b727b396251fca34");
  add("PseRequest(read)",
      [] { return encode_record(sample_pse_request(sgx::PseOp::kRead)); },
      reencode<sgx::PseRequest>,
      "88423f21f3dea8ed12f75f85f6ef10baf16add755432769861f0373ae3e2edaf");
  add("PseRequest(create)",
      [] { return encode_record(sample_pse_request(sgx::PseOp::kCreate)); },
      reencode<sgx::PseRequest>,
      "b669ae6b67dac28c33d9aa99e1fa3246e0092a12ee9b656ddb32e7f6c7a03de4");
  add("PseRequest(retire)",
      [] { return encode_record(sample_pse_request(sgx::PseOp::kRetire)); },
      reencode<sgx::PseRequest>,
      "d2dcd4f75032c19968170f546311377d36fdfdf59fa383f6ea1120f72b141b08");
  add("PseResponse", [] {
        sgx::PseResponse resp;
        resp.status = Status::kOk;
        resp.uuid.counter_id = 4;
        resp.uuid.nonce = pattern<12>(42);
        resp.value = 42;
        return encode_record(resp);
      }, reencode<sgx::PseResponse>,
      "7f11aad2eafa082402965d2a562ef0dba20d50720146aff8b74c6126e6b33937");
  add("PaymentMessage", [] {
        apps::PaymentMessage m;
        m.channel_id = 0x0102030405060708ULL;
        m.sequence = 17;
        m.balance_a = 900;
        m.balance_b = 100;
        m.sender = pattern<32>(43);
        m.signature = pattern<64>(44);
        return encode_record(m);
      }, reencode<apps::PaymentMessage>,
      "32e70be53afb723940e19b11fa58de2ceba561bf94a3c60cb2b2fd7f00d6ef6c");
  add("TrinxCertificate", [] {
        apps::TrinxCertificate c;
        c.counter_id = 5;
        c.value = 0x1000000002ULL;
        c.message_hash = pattern<32>(45);
        c.signer = pattern<32>(46);
        c.signature = pattern<64>(47);
        return encode_record(c);
      }, reencode<apps::TrinxCertificate>,
      "e04b33ae8b27c2b36ab1352e8f8ae04d0783d418083ddf92d0dd51e86ca9b0c0");

  // Channel state and framing, the inline ME replies, the sealed-blob
  // framings and the app enclaves' state.
  add("SecureChannel state", [] {
        net::SecureChannel a(pattern<16>(50),
                             net::SecureChannel::Role::kInitiator);
        net::SecureChannel b(pattern<16>(50),
                             net::SecureChannel::Role::kResponder);
        for (uint8_t i = 0; i < 2; ++i) {
          EXPECT_TRUE(b.open_record(a.seal_record(pattern_bytes(5, i))).ok());
        }
        b.seal_record(pattern_bytes(5, 3));
        return encode_record(b);
      }, reencode<net::SecureChannel>,
      "a724e2ed7e0ee16dc93afbde51dd7906b732c346bae12ebdc906b8bc7dbab235");
  add("SecureChannel record", [] {
        net::SecureChannel a(pattern<16>(52),
                             net::SecureChannel::Role::kInitiator);
        return a.seal_record(pattern_bytes(21, 53));
      }, [](ByteView wire) {
        net::SecureChannel b(pattern<16>(52),
                             net::SecureChannel::Role::kResponder);
        net::SecureChannel a(pattern<16>(52),
                             net::SecureChannel::Role::kInitiator);
        auto plaintext = b.open_record(wire);
        return plaintext.ok() ? a.seal_record(plaintext.value()) : Bytes{};
      },
      "c6d92908d2dee5bacf8f21c5dddbac0b1706cafbb48c4bf1b8870a6b4feff4f5");
  add("DONE record", [] {
        return encode_record(DoneRecord{0x0102030405060708ULL});
      }, reencode<DoneRecord>,
      "cc899642e8b74cea423e49754cc52035e7945c7200c0b4017990a88873763232");
  add("Abort reply", [] { return encode_record(AbortReply{true}); },
      reencode<AbortReply>,
      "ba47575d295fe0d926598be4e1cf472169118301030b0eee293e30feb6c49949");
  add("Reconcile reply", [] {
        return encode_record(ReconcileReply{ReconcileVerdict::kSuperseded});
      }, reencode<ReconcileReply>,
      "67fd192200dbcf222f8f8969a2a817ea13863d91374b1b789423129d1d0b76b5");
  add("kStatusReport payload", [] {
        return encode_record(StatusReportPayload{OutgoingState::kCompleted});
      }, reencode<StatusReportPayload>,
      "dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986");
  add("kConfirmMigration payload", [] {
        return encode_record(ConfirmPayload{0x55aa55aa55aa55aaULL});
      }, reencode<ConfirmPayload>,
      "77ce8ffa3e5e0bacf8b693a1edd26f22e7a4039aafca3c944e4020a977ecbc8a");
  add("kRaMsg3 payload", [] {
        RaMsg3Payload p;
        p.msg3.initiator_quote = encode_record(sample_quote());
        p.auth.credential = sample_credential();
        p.auth.transcript_signature = pattern<64>(19);
        return encode_record(p);
      }, reencode<RaMsg3Payload>,
      "7a7378bb53479db189eda88b44213b818ff3712e0a7e23d11ddc52d09a102c8c");
  add("kRaMsg3 reply", [] {
        RaMsg3Reply p;
        p.auth.credential = sample_credential();
        p.auth.transcript_signature = pattern<64>(19);
        p.epoch = 0x1122334455667788ULL;
        return encode_record(p);
      }, reencode<RaMsg3Reply>,
      "4dd227f8ecba5e9986a8728d883a96f5ac5a976baa499d4935fb0cca58c04fa9");
  add("Sealed blob", [] {
        const sgx::SimCpu cpu(pattern<32>(54));
        crypto::CtrDrbg drbg(pattern_bytes(48, 56));
        auto sealed = sgx::seal_data(cpu, sample_report_body().identity, drbg,
                                     sgx::KeyPolicy::kMrSigner,
                                     pattern_bytes(9, 57),
                                     pattern_bytes(33, 58));
        return sealed.ok() ? sealed.value() : Bytes{};
      }, reencode<sgx::SealedBlob>,
      "6e2d41e3f36cb12822ca856dc5a4f5f273a97c6473fa4c2295bc92c2f9c2a162");
  add("MSK-sealed blob", [] {
        return encode_record(MskSealedBlob{pattern<12>(59), pattern<16>(60),
                                           pattern_bytes(7, 61),
                                           pattern_bytes(40, 62)});
      }, reencode<MskSealedBlob>,
      "7b110cbaec3787ad8afa0c61d2439289e0e2aa60141045fd6925c3aacea2d9e9");
  add("Teechan channel state", [] {
        apps::TeechanChannelState s;
        s.channel_id = 0x77;
        s.is_party_a = true;
        s.balance_a = 900;
        s.balance_b = 100;
        s.sequence = 17;
        s.signing_seed = pattern<32>(63);
        s.peer_key = pattern<32>(64);
        s.peer_key_set = true;
        s.version_counter = 3;
        return encode_record(s);
      }, reencode<apps::TeechanChannelState>,
      "6adc5efb6f322e55e480a72986a6ed0363508035b08ca8fcf18598b906e2b304");
  add("Trinx state", [] {
        apps::TrinxState s;
        s.signing_seed = pattern<32>(65);
        s.next_trinx_id = 4;
        s.counters = {{1, 5}, {3, 0x100000000ULL}};
        s.version_counter = 2;
        return encode_record(s);
      }, reencode<apps::TrinxState>,
      "97e190252de4b3368d9c93e77c0049e1ef9bfa070f6fc5efcc7a15b9684d7a9e");
  add("KvStore store", [] {
        apps::KvStoreState s;
        s.version_counter = 1;
        s.entries = {{"alpha", pattern_bytes(3, 66)}, {"beta", Bytes{}}};
        return encode_record(s);
      }, reencode<apps::KvStoreState>,
      "34e28acb8ea6d92f19762ddeb8198fda66635ea9fa2f7be714d65419123d01bf");
  add("App state version AAD", [] {
        return encode_record(apps::StateVersion{"kvstore-state", 9});
      }, reencode<apps::StateVersion>,
      "f45a3ab658f24d1794074b699f602b10585aa3d9e72acf791d4de378424cf977");
  add("VersionedState payload", [] {
        return encode_record(apps::VersionedPayload{pattern_bytes(12, 67)});
      }, reencode<apps::VersionedPayload>,
      "74d57116d718612e15b2d1faae5028d384989402a820de82d482c52121e3efc7");
  add("VersionedState version AAD", [] {
        return encode_record(apps::VersionedAad{5});
      }, reencode<apps::VersionedAad>,
      "2594b6a92ebfb1c3312deb7d01c015fb95e9fbe9bd7bc6b527af07813ec7b910");
  add("VersionedState native blob", [] {
        return encode_record(apps::NativeStateBlob{pattern_bytes(30, 68)});
      }, reencode<apps::NativeStateBlob>,
      "8916bbd1055b08bacc439dddd883e2f44cdd5d644c6dae7b3e815f4814dcf8a6");
  add("VersionedState KDC blob", [] {
        return encode_record(apps::KdcStateBlob{6, pattern<12>(69),
                                                pattern<16>(70),
                                                pattern_bytes(25, 71)});
      }, reencode<apps::KdcStateBlob>,
      "beb15e4db4b047c4ba178900da0b2ae4fbab4f5caba17b3009cba4c8dddef26b");
  add("VersionedState memory image", [] {
        return encode_record(
            apps::MemoryImage{pattern_bytes(10, 72), pattern<16>(73)});
      }, reencode<apps::MemoryImage>,
      "b2233a135852ff56129931b54da523da2a3d2041df5ad56bb167448ec3eee178");
  return out;
}

TEST(ProtocolPins, EveryRecordEncodesToItsPinnedDigest) {
  for (const Pin& pin : pins()) {
    const Bytes wire = pin.encode();
    const auto digest = crypto::Sha256::hash(wire);
    EXPECT_EQ(hex_encode(ByteView(digest.data(), digest.size())), pin.sha256)
        << pin.record;
  }
}

TEST(ProtocolPins, EveryPinnedSampleReencodesToItsOwnBytes) {
  for (const Pin& pin : pins()) {
    const Bytes wire = pin.encode();
    EXPECT_EQ(pin.reencode(wire), wire) << pin.record;
  }
}

/// encode_record(record) holds exactly the bytes write_record appends to a
/// BinaryWriter, in one allocation of exactly their size.
template <class T>
void expect_encodes_like_writer(const char* name, const T& record) {
  BinaryWriter w;
  write_record(w, record);
  const Bytes encoded = encode_record(record);
  EXPECT_EQ(encoded, w.data()) << name;
  EXPECT_EQ(encoded.capacity(), encoded.size()) << name;
}

TEST(ProtocolPins, EncodeRecordMatchesWriteRecord) {
  LibraryState state;
  for (const size_t slot : {size_t{0}, size_t{3}, kMaxCounters - 1}) {
    state.counters_active[slot] = true;
    state.counter_uuids[slot].counter_id = static_cast<uint32_t>(slot + 7);
    state.counter_uuids[slot].nonce = pattern<12>(static_cast<uint8_t>(slot));
    state.counter_offsets[slot] = static_cast<uint32_t>(slot * 3);
  }
  state.msk = pattern<16>(21);
  state.epoch_active = 1;
  state.epoch_value = 9;
  expect_encodes_like_writer("LibraryState", state);
  // A list field (kRetire) and a length-prefixed one (kCreate).
  expect_encodes_like_writer("PseRequest kRetire",
                             sample_pse_request(sgx::PseOp::kRetire));
  expect_encodes_like_writer("PseRequest kCreate",
                             sample_pse_request(sgx::PseOp::kCreate));
  const sgx::SimCpu cpu(pattern<32>(54));
  crypto::CtrDrbg drbg(pattern_bytes(48, 56));
  const auto sealed = sgx::seal_data(cpu, sample_report_body().identity, drbg,
                                     sgx::KeyPolicy::kMrSigner,
                                     pattern_bytes(9, 57),
                                     pattern_bytes(5436, 58));
  ASSERT_TRUE(sealed.ok());
  const auto blob = decode_record<sgx::SealedBlob>(sealed.value());
  ASSERT_TRUE(blob.ok());
  expect_encodes_like_writer("SealedBlob", blob.value());
  // Two sized fields, one holding a nested record with its own bytes.
  RaMsg3Payload msg3;
  msg3.msg3.initiator_quote = encode_record(sample_quote());
  msg3.auth.credential = sample_credential();
  msg3.auth.transcript_signature = pattern<64>(19);
  expect_encodes_like_writer("RaMsg3Payload", msg3);
  // A map, and an optional both present and absent.
  apps::KvStoreState kv;
  kv.version_counter = 1;
  kv.entries = {{"alpha", pattern_bytes(3, 66)}, {"beta", Bytes{}}};
  expect_encodes_like_writer("KvStoreState", kv);
  expect_encodes_like_writer(
      "MemoryImage", apps::MemoryImage{pattern_bytes(10, 72), pattern<16>(73)});
  expect_encodes_like_writer("MemoryImage without key",
                             apps::MemoryImage{pattern_bytes(10, 72), {}});
}

// The exact bytes of the two commits the simulator seals most: a Table II
// (a 5,436 B LibraryState under the library's AAD) and a 65,082 B ME queue
// snapshot, each sealed twice through one SealContext (the second seal
// draws the next IV), under a fixed CPU secret and DRBG seed.
TEST(ProtocolPins, SealedCommitsMatchTheirPinnedDigests) {
  LibraryState state;
  for (size_t slot = 0; slot < kMaxCounters; slot += 14) {
    state.counters_active[slot] = true;
    state.counter_uuids[slot].counter_id = static_cast<uint32_t>(slot + 1);
    state.counter_uuids[slot].nonce = pattern<12>(static_cast<uint8_t>(slot));
    state.counter_offsets[slot] = static_cast<uint32_t>(slot * 5);
  }
  state.msk = pattern<16>(74);
  const Bytes table = encode_record(state);
  ASSERT_EQ(table.size(), 5436u);
  const Bytes queue = pattern_bytes(65082, 75);

  const sgx::SimCpu cpu(pattern<32>(76));
  crypto::CtrDrbg drbg(pattern_bytes(48, 77));
  sgx::SealContext context(cpu, sample_report_body().identity, drbg,
                           sgx::KeyPolicy::kMrEnclave);
  const auto sha256_of = [](const Result<Bytes>& sealed) {
    if (!sealed.ok()) return std::string("seal failed");
    const auto digest = crypto::Sha256::hash(sealed.value());
    return hex_encode(ByteView(digest.data(), digest.size()));
  };
  const Bytes table_aad = to_bytes(std::string_view("SGXMIG-ML-STATE"));
  const Bytes queue_aad = to_bytes(std::string_view("SGXMIG-ME-QUEUE"));
  EXPECT_EQ(sha256_of(context.seal(table_aad, table)),
            "4812c49b38cede3ef9e7225340a8e4fb9d58fb7accf1deafd5e219e0e0e5aac6");
  EXPECT_EQ(sha256_of(context.seal(table_aad, table)),
            "e9aaf6849fe067459b2b81fb3d2c15c0293d6dc20221ce8fb5288f721874b0ea");
  EXPECT_EQ(sha256_of(context.seal(queue_aad, queue)),
            "e67a1f14b4ec8438c2d25db6025da7e3f7bbeee3f740375a5ed758ee00f157ef");
  const auto sealed_queue = context.seal(queue_aad, queue);
  EXPECT_EQ(sha256_of(sealed_queue),
            "835891d403b191b35ccfc496f0d5dffa89e044d51e9a26b2c8eccc1ea1acfa77");
  ASSERT_TRUE(sealed_queue.ok());
  EXPECT_EQ(sealed_queue.value().size(),
            sgx::sealed_blob_size(queue_aad.size(), queue.size()));
  const auto opened = sgx::unseal_data(cpu, sample_report_body().identity,
                                       sealed_queue.value());
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().plaintext, queue);
  EXPECT_EQ(opened.value().aad, queue_aad);
}

// ----- bounds table -----
//
// Every bound a reader enforces on host-supplied bytes: the record must
// decode with the field at `at` and be refused with it at `past`.  `make`
// builds the encoding with the field set to the given length, count or
// raw value; `decodes` reports whether the top-level decoder accepts it.

struct Bound {
  const char* field;
  size_t at;
  size_t past;
  std::function<Bytes(size_t)> make;
  std::function<bool(ByteView)> decodes;
};

template <class T>
bool decodes_as(ByteView wire) {
  return decode_record<T>(wire).ok();
}

std::vector<std::string> strings(size_t count, size_t length) {
  return std::vector<std::string>(count, std::string(length, 'a'));
}

// The TransferPayload / MigrateRequestPayload data field with its inner
// encoding zero-padded to `n` bytes: only the real size decodes, and
// one past the bound must be refused before the inner decode runs.
Bytes padded_data(size_t n) {
  Bytes data = encode_record(sample_data());
  if (n > data.size()) data.resize(n, 0);
  return data;
}

Bytes padded_report(size_t n) {
  Bytes report = encode_record(sample_report());
  if (n > report.size()) report.resize(n, 0);
  return report;
}

// `off` with the one byte where it differs from `on` set to `n`: the
// encoding of a record whose single flag field holds the raw byte `n`.
Bytes with_flag_byte(Bytes off, const Bytes& on, size_t n) {
  size_t differing = 0;
  size_t at = 0;
  for (size_t i = 0; i < off.size(); ++i) {
    if (off[i] != on[i]) {
      ++differing;
      at = i;
    }
  }
  EXPECT_EQ(differing, 1u);
  off[at] = static_cast<uint8_t>(n);
  return off;
}

// A LibraryState flag set to the raw byte `n` (1 decodes, 2 is refused).
Bound library_flag(const char* field, void (*set)(LibraryState&)) {
  return {field, 1, 2, [set](size_t n) {
            LibraryState on;
            set(on);
            return with_flag_byte(encode_record(LibraryState{}),
                                  encode_record(on), n);
          }, decodes_as<LibraryState>};
}

// ----- the ME's sealed queue snapshot (format v5) -----
//
// Only a live ME reads the queue: a row's snapshot is sealed under the ME
// image's key and restored into one ME kept for the whole table.

class QueueSealer : public sgx::Enclave {
 public:
  explicit QueueSealer(platform::Machine& machine)
      : sgx::Enclave(machine, MigrationEnclave::standard_image()) {}

  Bytes seal_queue(ByteView plaintext) {
    auto sealed = seal(sgx::KeyPolicy::kMrEnclave,
                       to_bytes(std::string_view("SGXMIG-ME-QUEUE")),
                       plaintext);
    return sealed.ok() ? sealed.value() : Bytes{};
  }
};

bool queue_restores(ByteView plaintext) {
  static platform::World world(/*seed=*/7);
  static platform::Machine& machine = world.add_machine("m0");
  static MigrationEnclave me(machine, MigrationEnclave::standard_image(),
                             world.provider());
  static QueueSealer sealer(machine);
  return me.restore_queue(sealer.seal_queue(plaintext)) == Status::kOk;
}

// The snapshot's sections in wire order.
enum QueueSection : size_t {
  kOutgoingSection, kAssembledSection, kInboundSection, kLatestSection,
  kCompletedSection, kConfirmedSection, kRelaySection, kPrecopySection,
  kStagingSection, kTaskSection, kPeerSection, kSectionCount,
};

/// A snapshot whose sections are all empty but `section`, which holds
/// `count` entries encoded as `entries`.
Bytes queue_snapshot(QueueSection section, size_t count,
                     const Bytes& entries) {
  BinaryWriter w;
  w.str("SGXMIG-ME-QUEUE-v5");
  w.u64(1);
  for (size_t i = 0; i < kSectionCount; ++i) {
    w.u32(i == section ? static_cast<uint32_t>(count) : 0);
    if (i == section) w.raw(entries);
  }
  return w.take();
}

// Retained transfers under `ids`, in the given order.
Bytes queue_outgoing(size_t destination_len, size_t retained_len,
                     const std::vector<uint64_t>& ids = {1}) {
  BinaryWriter w;
  for (const uint64_t id : ids) {
    w.u64(id);
    w.fixed(pattern<32>(80));
    w.str(std::string(destination_len, 'd'));
    w.u64(9);
    w.bytes(Bytes(retained_len, 1));
    w.u64(id);
    w.boolean(false);
  }
  return queue_snapshot(kOutgoingSection, ids.size(), w.take());
}

Bytes queue_assembled(const Bytes& data, size_t source_len) {
  BinaryWriter w;
  w.fixed(pattern<32>(81));
  w.u64(3);
  w.bytes(data);
  w.str(std::string(source_len, 's'));
  w.u64(9);
  return queue_snapshot(kAssembledSection, 1, w.take());
}

Bytes queue_inbound(size_t region_len, size_t address_len) {
  BinaryWriter channel;
  channel.fixed(pattern<16>(82));
  channel.u32(0x52324900);  // responder: sends R2I, receives I2R
  channel.u32(0x49325200);
  channel.u64(1);
  channel.u64(2);
  BinaryWriter w;
  w.u64(4);
  w.str(std::string(region_len, 'r'));
  w.str(std::string(address_len, 'a'));
  w.bytes(channel.data());
  return queue_snapshot(kInboundSection, 1, w.take());
}

Bytes queue_latest(size_t state) {
  BinaryWriter w;
  w.fixed(pattern<32>(83));
  w.u64(1);
  w.u8(static_cast<uint8_t>(state));
  return queue_snapshot(kLatestSection, 1, w.take());
}

// `count` distinct completed transfers, oldest first.
Bytes queue_completed(size_t count) {
  BinaryWriter w;
  for (size_t i = 0; i < count; ++i) {
    w.u64(i + 1);
    w.fixed(pattern<32>(84));
    w.u64(1000 + i);
    w.u64(i + 1);
  }
  return queue_snapshot(kCompletedSection, count, w.take());
}

// `count` distinct confirmed identities, oldest first.
Bytes queue_confirmed(size_t count) {
  BinaryWriter w;
  for (size_t i = 0; i < count; ++i) {
    sgx::Measurement mr{};
    store_be64(mr.data(), i);
    w.fixed(mr);
    w.u64(i + 1);
  }
  return queue_snapshot(kConfirmedSection, count, w.take());
}

Bytes queue_relay(size_t address_len, size_t record_len) {
  BinaryWriter w;
  w.u64(5);
  w.str(std::string(address_len, 's'));
  w.bytes(Bytes(record_len, 2));
  return queue_snapshot(kRelaySection, 1, w.take());
}

// Chunks 0..count-1, in index order.
void write_chunks(BinaryWriter& w, size_t count) {
  w.u32(static_cast<uint32_t>(count));
  for (size_t i = 0; i < count; ++i) {
    write_record(w, sample_chunk(static_cast<uint32_t>(i)));
  }
}

Bytes queue_precopy(size_t destination_len, size_t chunks) {
  BinaryWriter w;
  w.u64(77);
  w.fixed(pattern<32>(85));
  w.str(std::string(destination_len, 'd'));
  w.u64(6);
  w.u32(2);
  w.boolean(false);
  write_chunks(w, chunks);
  w.boolean(false);  // no staged finalize
  return queue_snapshot(kPrecopySection, 1, w.take());
}

Bytes queue_staging(size_t source_len, size_t chunks) {
  BinaryWriter w;
  w.fixed(pattern<32>(86));
  w.u64(7);
  w.str(std::string(source_len, 's'));
  w.u64(78);
  w.u32(2);
  write_chunks(w, chunks);
  w.u64(1);
  return queue_snapshot(kStagingSection, 1, w.take());
}

MigrateRequestPayload sample_request() {
  MigrateRequestPayload p;
  p.destination_address = "m1";
  p.request_nonce = 79;
  p.policy = sample_policy();
  p.data = sample_data();
  return p;
}

// The task's request with its encoding zero-padded to `n` bytes.
Bytes queue_task(size_t n) {
  Bytes request = encode_record(sample_request());
  if (n > request.size()) request.resize(n, 0);
  BinaryWriter w;
  w.u64(79);
  w.fixed(pattern<32>(87));
  w.bytes(request);
  w.boolean(true);
  return queue_snapshot(kTaskSection, 1, w.take());
}

Bytes queue_peer(size_t address_len, size_t region_len) {
  BinaryWriter w;
  w.str(std::string(address_len, 'p'));
  w.fixed(pattern<16>(88));
  w.u64(3);
  write_record(w, sample_credential());
  w.str(std::string(region_len, 'r'));
  return queue_snapshot(kPeerSection, 1, w.take());
}

std::vector<Bound> bounds() {
  constexpr size_t kEnvelopeMax = 1u << 22;
  constexpr size_t kDataMax = 1u << 20;
  const size_t data_size = encode_record(sample_data()).size();
  const size_t report_size = encode_record(sample_report()).size();
  std::vector<Bound> out;
  out.push_back({"MeRequest.type (highest)", 12, 13, [](size_t n) {
                   MeRequest req;
                   req.type = static_cast<MeMsgType>(n);
                   return encode_record(req);
                 }, decodes_as<MeRequest>});
  out.push_back({"MeRequest.type (lowest)", 1, 0, [](size_t n) {
                   MeRequest req;
                   req.type = static_cast<MeMsgType>(n);
                   return encode_record(req);
                 }, decodes_as<MeRequest>});
  out.push_back({"MeRequest.payload", kEnvelopeMax, kEnvelopeMax + 1,
                 [](size_t n) {
                   MeRequest req;
                   req.payload = Bytes(n, 1);
                   return encode_record(req);
                 }, decodes_as<MeRequest>});
  out.push_back({"MeResponse.payload", kEnvelopeMax, kEnvelopeMax + 1,
                 [](size_t n) {
                   MeResponse resp;
                   resp.payload = Bytes(n, 1);
                   return encode_record(resp);
                 }, decodes_as<MeResponse>});
  out.push_back({"LibMsg.payload", kEnvelopeMax, kEnvelopeMax + 1,
                 [](size_t n) {
                   LibMsg msg;
                   msg.payload = Bytes(n, 1);
                   return encode_record(msg);
                 }, decodes_as<LibMsg>});
  out.push_back({"MigrateRequestPayload.destination_address", 256, 257,
                 [](size_t n) {
                   MigrateRequestPayload p;
                   p.destination_address.assign(n, 'd');
                   return encode_record(p);
                 }, decodes_as<MigrateRequestPayload>});
  out.push_back({"MigrateRequestPayload.data", data_size, kDataMax + 1,
                 [](size_t n) {
                   BinaryWriter w;
                   w.str("m1");
                   w.u64(1);
                   write_record(w, MigrationPolicy{});
                   w.bytes(padded_data(n));
                   return w.take();
                 }, decodes_as<MigrateRequestPayload>});
  out.push_back({"MigrateReservePayload.destination_address", 256, 257,
                 [](size_t n) {
                   MigrateReservePayload p;
                   p.destination_address.assign(n, 'd');
                   return encode_record(p);
                 }, decodes_as<MigrateReservePayload>});
  out.push_back({"MigrationPolicy.allowed_regions (count)", 256, 257,
                 [](size_t n) {
                   MigrateReservePayload p;
                   p.policy.allowed_regions = strings(n, 1);
                   return encode_record(p);
                 }, decodes_as<MigrateReservePayload>});
  out.push_back({"MigrationPolicy.allowed_regions (length)", 256, 257,
                 [](size_t n) {
                   MigrateReservePayload p;
                   p.policy.allowed_regions = strings(1, n);
                   return encode_record(p);
                 }, decodes_as<MigrateReservePayload>});
  out.push_back({"MigrationPolicy.denied_addresses (count)", 4096, 4097,
                 [](size_t n) {
                   MigrateReservePayload p;
                   p.policy.denied_addresses = strings(n, 1);
                   return encode_record(p);
                 }, decodes_as<MigrateReservePayload>});
  out.push_back({"MigrationPolicy.denied_addresses (length)", 256, 257,
                 [](size_t n) {
                   MigrateReservePayload p;
                   p.policy.denied_addresses = strings(1, n);
                   return encode_record(p);
                 }, decodes_as<MigrateReservePayload>});
  out.push_back({"TransferProgressPayload.progress", 4, 5, [](size_t n) {
                   TransferProgressPayload p;
                   p.progress = static_cast<TransferProgress>(n);
                   return encode_record(p);
                 }, decodes_as<TransferProgressPayload>});
  out.push_back({"AbortStalePayload.destination_address", 256, 257,
                 [](size_t n) {
                   AbortStalePayload p;
                   p.destination_address.assign(n, 'd');
                   return encode_record(p);
                 }, decodes_as<AbortStalePayload>});
  out.push_back({"IncomingDataPayload.data", kDataMax, kDataMax + 1,
                 [](size_t n) {
                   IncomingDataPayload p;
                   p.data = Bytes(n, 1);
                   return encode_record(p);
                 }, decodes_as<IncomingDataPayload>});
  out.push_back({"PrecopyRoundPayload.destination_address", 256, 257,
                 [](size_t n) {
                   PrecopyRoundPayload p;
                   p.destination_address.assign(n, 'd');
                   return encode_record(p);
                 }, decodes_as<PrecopyRoundPayload>});
  out.push_back({"PrecopyRoundPayload.chunks (count)", kPrecopyChunkCount,
                 kPrecopyChunkCount + 1, [](size_t n) {
                   PrecopyRoundPayload p;
                   p.chunks.assign(n, sample_chunk(1));
                   return encode_record(p);
                 }, decodes_as<PrecopyRoundPayload>});
  out.push_back({"CounterChunk.index", kPrecopyChunkCount - 1,
                 kPrecopyChunkCount, [](size_t n) {
                   PrecopyRoundPayload p;
                   p.chunks = {sample_chunk(static_cast<uint32_t>(n))};
                   return encode_record(p);
                 }, decodes_as<PrecopyRoundPayload>});
  out.push_back({"PrecopyFinalizePayload.destination_address", 256, 257,
                 [](size_t n) {
                   PrecopyFinalizePayload p;
                   p.destination_address.assign(n, 'd');
                   return encode_record(p);
                 }, decodes_as<PrecopyFinalizePayload>});
  out.push_back({"PrecopyFinalizePayload.chunks (count)", kPrecopyChunkCount,
                 kPrecopyChunkCount + 1, [](size_t n) {
                   PrecopyFinalizePayload p;
                   p.chunks.assign(n, sample_chunk(1));
                   return encode_record(p);
                 }, decodes_as<PrecopyFinalizePayload>});
  out.push_back({"PrecopyFinalizePayload.manifest (count)", kPrecopyChunkCount,
                 kPrecopyChunkCount + 1, [](size_t n) {
                   PrecopyFinalizePayload p;
                   p.manifest.assign(n, ChunkManifestEntry{1, 1});
                   return encode_record(p);
                 }, decodes_as<PrecopyFinalizePayload>});
  out.push_back({"PrecopyFinalizePayload.manifest (index)",
                 kPrecopyChunkCount - 1, kPrecopyChunkCount, [](size_t n) {
                   PrecopyFinalizePayload p;
                   p.manifest = {{static_cast<uint32_t>(n), 1}};
                   return encode_record(p);
                 }, decodes_as<PrecopyFinalizePayload>});
  out.push_back({"PrecopyChunkRecord.source_me_address", 256, 257,
                 [](size_t n) {
                   PrecopyChunkRecord p;
                   p.source_me_address.assign(n, 's');
                   return encode_record(p);
                 }, decodes_as<PrecopyChunkRecord>});
  out.push_back({"PrecopyChunkRecord.chunks (count)", kPrecopyChunkCount,
                 kPrecopyChunkCount + 1, [](size_t n) {
                   PrecopyChunkRecord p;
                   p.chunks.assign(n, sample_chunk(1));
                   return encode_record(p);
                 }, decodes_as<PrecopyChunkRecord>});
  out.push_back({"PrecopyChunkRecord.chunks (index)", kPrecopyChunkCount - 1,
                 kPrecopyChunkCount, [](size_t n) {
                   PrecopyChunkRecord p;
                   p.chunks = {sample_chunk(static_cast<uint32_t>(n))};
                   return encode_record(p);
                 }, decodes_as<PrecopyChunkRecord>});
  out.push_back({"PrecopyFinalizeRecord.source_me_address", 256, 257,
                 [](size_t n) {
                   PrecopyFinalizeRecord p;
                   p.source_me_address.assign(n, 's');
                   return encode_record(p);
                 }, decodes_as<PrecopyFinalizeRecord>});
  out.push_back({"PrecopyFinalizeRecord.chunks (count)", kPrecopyChunkCount,
                 kPrecopyChunkCount + 1, [](size_t n) {
                   PrecopyFinalizeRecord p;
                   p.chunks.assign(n, sample_chunk(1));
                   return encode_record(p);
                 }, decodes_as<PrecopyFinalizeRecord>});
  out.push_back({"PrecopyFinalizeRecord.chunks (index)", kPrecopyChunkCount - 1,
                 kPrecopyChunkCount, [](size_t n) {
                   PrecopyFinalizeRecord p;
                   p.chunks = {sample_chunk(static_cast<uint32_t>(n))};
                   return encode_record(p);
                 }, decodes_as<PrecopyFinalizeRecord>});
  out.push_back({"PrecopyFinalizeRecord.manifest (count)", kPrecopyChunkCount,
                 kPrecopyChunkCount + 1, [](size_t n) {
                   PrecopyFinalizeRecord p;
                   p.manifest.assign(n, ChunkManifestEntry{1, 1});
                   return encode_record(p);
                 }, decodes_as<PrecopyFinalizeRecord>});
  out.push_back({"PrecopyFinalizeRecord.manifest (index)",
                 kPrecopyChunkCount - 1, kPrecopyChunkCount, [](size_t n) {
                   PrecopyFinalizeRecord p;
                   p.manifest = {{static_cast<uint32_t>(n), 1}};
                   return encode_record(p);
                 }, decodes_as<PrecopyFinalizeRecord>});
  out.push_back({"TransferPayload.source_me_address", 256, 257, [](size_t n) {
                   TransferPayload p;
                   p.source_me_address.assign(n, 's');
                   return encode_record(p);
                 }, decodes_as<TransferPayload>});
  out.push_back({"TransferPayload.data", data_size, kDataMax + 1,
                 [](size_t n) {
                   BinaryWriter w;
                   w.fixed(sgx::Measurement{});
                   w.str("m0");
                   w.u64(1);
                   w.bytes(padded_data(n));
                   return w.take();
                 }, decodes_as<TransferPayload>});
  out.push_back({"SessionResumeRequest.initiator_address", 256, 257,
                 [](size_t n) {
                   SessionResumeRequest p;
                   p.initiator_address.assign(n, 'i');
                   return encode_record(p);
                 }, decodes_as<SessionResumeRequest>});
  out.push_back({"ProviderAuth.credential.address", 256, 257, [](size_t n) {
                   ProviderAuth p;
                   p.credential.address.assign(n, 'a');
                   return encode_record(p);
                 }, decodes_as<ProviderAuth>});
  out.push_back({"ProviderAuth.credential.region", 256, 257, [](size_t n) {
                   ProviderAuth p;
                   p.credential.region.assign(n, 'r');
                   return encode_record(p);
                 }, decodes_as<ProviderAuth>});
  out.push_back({"DhMsg2.initiator_report", report_size, 1025, [](size_t n) {
                   BinaryWriter w;
                   w.fixed(crypto::X25519Key{});
                   w.bytes(padded_report(n));
                   return w.take();
                 }, decodes_as<sgx::DhMsg2>});
  out.push_back({"DhMsg3.responder_report", report_size, 1025, [](size_t n) {
                   BinaryWriter w;
                   w.bytes(padded_report(n));
                   return w.take();
                 }, decodes_as<sgx::DhMsg3>});
  out.push_back({"RaMsg2.responder_quote", 4096, 4097, [](size_t n) {
                   sgx::RaMsg2 m;
                   m.responder_quote = Bytes(n, 1);
                   return encode_record(m);
                 }, decodes_as<sgx::RaMsg2>});
  out.push_back({"RaMsg3.initiator_quote", 4096, 4097, [](size_t n) {
                   sgx::RaMsg3 m;
                   m.initiator_quote = Bytes(n, 1);
                   return encode_record(m);
                 }, decodes_as<sgx::RaMsg3>});
  out.push_back({"PseRequest.op (highest)", 5, 6, [](size_t n) {
                   auto req = sample_pse_request(sgx::PseOp::kRead);
                   req.op = static_cast<sgx::PseOp>(n);
                   return encode_record(req);
                 }, decodes_as<sgx::PseRequest>});
  out.push_back({"PseRequest.op (lowest)", 1, 0, [](size_t n) {
                   auto req = sample_pse_request(sgx::PseOp::kRead);
                   req.op = static_cast<sgx::PseOp>(n);
                   return encode_record(req);
                 }, decodes_as<sgx::PseRequest>});
  out.push_back({"PseRequest.nonce_entropy", 64, 65, [](size_t n) {
                   auto req = sample_pse_request(sgx::PseOp::kCreate);
                   req.nonce_entropy = Bytes(n, 1);
                   return encode_record(req);
                 }, decodes_as<sgx::PseRequest>});
  // Flags take exactly the bytes 0 and 1, so a decoded record re-encodes
  // to the bytes it came from.
  out.push_back(library_flag("LibraryState.frozen",
                             [](LibraryState& s) { s.frozen = 1; }));
  out.push_back(library_flag("LibraryState.counters_active[0]",
                             [](LibraryState& s) {
                               s.counters_active[0] = true;
                             }));
  out.push_back(library_flag("LibraryState.counters_active[255]",
                             [](LibraryState& s) {
                               s.counters_active[255] = true;
                             }));
  out.push_back(library_flag("LibraryState.epoch_active",
                             [](LibraryState& s) { s.epoch_active = 1; }));
  out.push_back({"CounterChunk.active[15]", 1, 2, [](size_t n) {
                   PrecopyChunkRecord on;
                   on.chunks = {sample_chunk(1)};
                   PrecopyChunkRecord off = on;
                   off.chunks[0].active[15] = false;
                   return with_flag_byte(encode_record(off),
                                         encode_record(on), n);
                 }, decodes_as<PrecopyChunkRecord>});
  out.push_back({"PseRequest.retire_uuids (count)", 256, 257, [](size_t n) {
                   auto req = sample_pse_request(sgx::PseOp::kRetire);
                   req.retire_uuids.resize(n);
                   return encode_record(req);
                 }, decodes_as<sgx::PseRequest>});
  // The ME queue snapshot, section by section.
  const size_t request_size = encode_record(sample_request()).size();
  constexpr size_t kHistory = 4096;
  constexpr size_t kRelayMax = 1u << 16;
  constexpr size_t kRequestMax = 1u << 21;
  const auto queue = [&out](const char* field, size_t at, size_t past,
                            std::function<Bytes(size_t)> make) {
    out.push_back({field, at, past, std::move(make), queue_restores});
  };
  queue("MeQueue outgoing.destination_address", 256, 257,
        [](size_t n) { return queue_outgoing(n, 0); });
  queue("MeQueue outgoing.retained_data", kDataMax, kDataMax + 1,
        [](size_t n) { return queue_outgoing(1, n); });
  queue("MeQueue incoming.data", data_size, kDataMax + 1,
        [](size_t n) { return queue_assembled(padded_data(n), 1); });
  queue("MeQueue incoming.source_me_address", 256, 257, [](size_t n) {
    return queue_assembled(encode_record(sample_data()), n);
  });
  queue("MeQueue inbound.source_region", 256, 257,
        [](size_t n) { return queue_inbound(n, 1); });
  queue("MeQueue inbound.source_address", 256, 257,
        [](size_t n) { return queue_inbound(1, n); });
  queue("MeQueue latest.state", 2, 3, queue_latest);
  queue("MeQueue completed (count)", kHistory, kHistory + 1, queue_completed);
  queue("MeQueue confirmed (count)", kHistory, kHistory + 1, queue_confirmed);
  queue("MeQueue done_relay.source_me_address", 256, 257,
        [](size_t n) { return queue_relay(n, 1); });
  queue("MeQueue done_relay.sealed_record", kRelayMax, kRelayMax + 1,
        [](size_t n) { return queue_relay(1, n); });
  queue("MeQueue precopy.destination_address", 256, 257,
        [](size_t n) { return queue_precopy(n, 1); });
  queue("MeQueue precopy.merged (count)", kPrecopyChunkCount,
        kPrecopyChunkCount + 1, [](size_t n) { return queue_precopy(1, n); });
  queue("MeQueue staging.source_me_address", 256, 257,
        [](size_t n) { return queue_staging(n, 1); });
  queue("MeQueue staging.chunks (count)", kPrecopyChunkCount,
        kPrecopyChunkCount + 1, [](size_t n) { return queue_staging(1, n); });
  queue("MeQueue task.request", request_size, kRequestMax + 1, queue_task);
  queue("MeQueue peer_session.address", 256, 257,
        [](size_t n) { return queue_peer(n, 1); });
  queue("MeQueue peer_session.region", 256, 257,
        [](size_t n) { return queue_peer(1, n); });
  return out;
}

TEST(ProtocolPins, EveryBoundDecodesAtItsLimitAndRefusesOnePast) {
  for (const Bound& bound : bounds()) {
    EXPECT_TRUE(bound.decodes(bound.make(bound.at)))
        << bound.field << " at " << bound.at;
    EXPECT_FALSE(bound.decodes(bound.make(bound.past)))
        << bound.field << " at " << bound.past;
  }
}

// A nested record must fill exactly the length in front of it.
TEST(ProtocolPins, SizedRecordFillsItsLength) {
  const size_t size = encode_record(sample_data()).size();
  for (const size_t n : {size - 1, size + 1}) {
    Bytes data = encode_record(sample_data());
    data.resize(n, 0);
    BinaryWriter w;
    w.fixed(sgx::Measurement{});
    w.str("m0");
    w.u64(1);
    w.bytes(data);
    EXPECT_FALSE(decodes_as<TransferPayload>(w.take())) << n << " bytes";
  }
}

// A queue section lists its keys once each, in ascending order: the
// writer walks a std::map, so any other order is a forged snapshot.
TEST(ProtocolPins, QueueSectionKeysAscendOnce) {
  EXPECT_TRUE(queue_restores(queue_outgoing(1, 1, {1, 2})));
  EXPECT_FALSE(queue_restores(queue_outgoing(1, 1, {2, 1})));
  EXPECT_FALSE(queue_restores(queue_outgoing(1, 1, {1, 1})));
}

TEST(ProtocolPins, MagicsAreChecked) {
  // A sealed buffer or migrated-data blob whose magic differs in one byte,
  // or whose magic string is longer than the reader's 64-byte bound, is
  // refused.
  const Bytes state = encode_record(LibraryState{});
  const Bytes data = encode_record(MigrationData{});
  ASSERT_TRUE(decode_record<LibraryState>(state).ok());
  ASSERT_TRUE(decode_record<MigrationData>(data).ok());
  for (const auto& [wire, is_state] :
       {std::pair{state, true}, std::pair{data, false}}) {
    Bytes flipped = wire;
    flipped[4] ^= 0x01;  // first magic character, after the u32 length
    const auto decodes = [&](const Bytes& b) {
      return is_state ? decode_record<LibraryState>(b).ok()
                      : decode_record<MigrationData>(b).ok();
    };
    EXPECT_FALSE(decodes(flipped));
    // Re-prefix the same body with a 65-byte magic.
    BinaryReader r(wire);
    const std::string magic = r.str();
    const Bytes body = r.raw(r.remaining());
    BinaryWriter w;
    w.str(magic + std::string(65 - magic.size(), 'x'));
    w.raw(body);
    EXPECT_FALSE(decodes(w.take()));
  }
}

}  // namespace
}  // namespace sgxmig::migration
