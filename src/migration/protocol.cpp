#include "migration/protocol.h"

namespace sgxmig::migration {

const char* me_msg_type_name(MeMsgType type) {
  switch (type) {
    case MeMsgType::kLaStart:
      return "la-start";
    case MeMsgType::kLaMsg2:
      return "la-msg2";
    case MeMsgType::kLaRecord:
      return "la-record";
    case MeMsgType::kRaMsg1:
      return "ra-msg1";
    case MeMsgType::kRaMsg3:
      return "ra-msg3";
    case MeMsgType::kTransfer:
      return "transfer";
    case MeMsgType::kDone:
      return "done";
    case MeMsgType::kPrecopyChunk:
      return "precopy-chunk";
    case MeMsgType::kPrecopyFinalize:
      return "precopy-finalize";
    case MeMsgType::kReconcile:
      return "reconcile";
    case MeMsgType::kAbort:
      return "abort";
    case MeMsgType::kSessionResume:
      return "session-resume";
  }
  return "unknown";
}

Bytes MeRequest::serialize() const {
  BinaryWriter w;
  w.u8(static_cast<uint8_t>(type));
  w.u64(id);
  w.bytes(payload);
  return w.take();
}

Result<MeRequest> MeRequest::deserialize(ByteView bytes) {
  BinaryReader r(bytes);
  MeRequest req;
  const uint8_t type = r.u8();
  if (type < 1 || type > 12) return Status::kTampered;
  req.type = static_cast<MeMsgType>(type);
  req.id = r.u64();
  req.payload = r.bytes(1u << 22);
  if (!r.done()) return Status::kTampered;
  return req;
}

Bytes MeResponse::serialize() const {
  BinaryWriter w;
  w.u32(static_cast<uint32_t>(status));
  w.bytes(payload);
  return w.take();
}

Result<MeResponse> MeResponse::deserialize(ByteView bytes) {
  BinaryReader r(bytes);
  MeResponse resp;
  resp.status = static_cast<Status>(r.u32());
  resp.payload = r.bytes(1u << 22);
  if (!r.done()) return Status::kTampered;
  return resp;
}

Bytes LibMsg::serialize() const {
  BinaryWriter w;
  w.u8(static_cast<uint8_t>(type));
  w.u32(static_cast<uint32_t>(status));
  w.bytes(payload);
  return w.take();
}

Result<LibMsg> LibMsg::deserialize(ByteView bytes) {
  BinaryReader r(bytes);
  LibMsg msg;
  msg.type = static_cast<LibMsgType>(r.u8());
  msg.status = static_cast<Status>(r.u32());
  msg.payload = r.bytes(1u << 22);
  if (!r.done()) return Status::kTampered;
  return msg;
}

Bytes MigrateRequestPayload::serialize() const {
  BinaryWriter w;
  w.str(destination_address);
  w.u64(request_nonce);
  policy.serialize(w);
  w.bytes(data.serialize());
  return w.take();
}

Result<MigrateRequestPayload> MigrateRequestPayload::deserialize(
    ByteView bytes) {
  BinaryReader r(bytes);
  MigrateRequestPayload p;
  p.destination_address = r.str(256);
  p.request_nonce = r.u64();
  auto policy = MigrationPolicy::deserialize(r);
  if (!policy.ok()) return Status::kTampered;
  p.policy = std::move(policy).value();
  auto data = MigrationData::deserialize(r.bytes(1u << 20));
  if (!r.done() || !data.ok()) return Status::kTampered;
  p.data = std::move(data).value();
  return p;
}

Bytes MigrateReservePayload::serialize() const {
  BinaryWriter w;
  w.str(destination_address);
  w.u64(request_nonce);
  policy.serialize(w);
  return w.take();
}

Result<MigrateReservePayload> MigrateReservePayload::deserialize(
    ByteView bytes) {
  BinaryReader r(bytes);
  MigrateReservePayload p;
  p.destination_address = r.str(256);
  p.request_nonce = r.u64();
  auto policy = MigrationPolicy::deserialize(r);
  if (!policy.ok() || !r.done()) return Status::kTampered;
  p.policy = std::move(policy).value();
  return p;
}

Bytes PollTransferPayload::serialize() const {
  BinaryWriter w;
  w.u64(request_nonce);
  return w.take();
}

Result<PollTransferPayload> PollTransferPayload::deserialize(ByteView bytes) {
  BinaryReader r(bytes);
  PollTransferPayload p;
  p.request_nonce = r.u64();
  if (!r.done()) return Status::kTampered;
  return p;
}

Bytes TransferProgressPayload::serialize() const {
  BinaryWriter w;
  w.u8(static_cast<uint8_t>(progress));
  w.u32(static_cast<uint32_t>(failure));
  return w.take();
}

Result<TransferProgressPayload> TransferProgressPayload::deserialize(
    ByteView bytes) {
  BinaryReader r(bytes);
  TransferProgressPayload p;
  const uint8_t progress = r.u8();
  if (progress > 4) return Status::kTampered;
  p.progress = static_cast<TransferProgress>(progress);
  p.failure = static_cast<Status>(r.u32());
  if (!r.done()) return Status::kTampered;
  return p;
}

Bytes AbortStalePayload::serialize() const {
  BinaryWriter w;
  w.u64(request_nonce);
  w.str(destination_address);
  return w.take();
}

Result<AbortStalePayload> AbortStalePayload::deserialize(ByteView bytes) {
  BinaryReader r(bytes);
  AbortStalePayload p;
  p.request_nonce = r.u64();
  p.destination_address = r.str(256);
  if (!r.done()) return Status::kTampered;
  return p;
}

Bytes AbortRequest::serialize() const {
  BinaryWriter w;
  w.fixed(source_mr_enclave);
  w.u64(request_nonce);
  return w.take();
}

Result<AbortRequest> AbortRequest::deserialize(ByteView bytes) {
  BinaryReader r(bytes);
  AbortRequest a;
  a.source_mr_enclave = r.fixed<32>();
  a.request_nonce = r.u64();
  if (!r.done()) return Status::kTampered;
  return a;
}

Bytes IncomingDataPayload::serialize() const {
  BinaryWriter w;
  w.bytes(data);
  w.u64(delivery_token);
  w.u64(request_nonce);
  return w.take();
}

Result<IncomingDataPayload> IncomingDataPayload::deserialize(ByteView bytes) {
  BinaryReader r(bytes);
  IncomingDataPayload p;
  p.data = r.bytes(1u << 20);
  p.delivery_token = r.u64();
  p.request_nonce = r.u64();
  if (!r.done()) return Status::kTampered;
  return p;
}

Bytes QueryStatusPayload::serialize() const {
  BinaryWriter w;
  w.u64(request_nonce);
  return w.take();
}

Result<QueryStatusPayload> QueryStatusPayload::deserialize(ByteView bytes) {
  QueryStatusPayload p;
  BinaryReader r(bytes);
  p.request_nonce = r.u64();
  if (!r.done()) return Status::kTampered;
  return p;
}

// ----- pre-copy messages -----

void CounterChunk::serialize(BinaryWriter& w) const {
  w.u32(index);
  w.u64(generation);
  for (bool a : active) w.u8(a ? 1 : 0);
  for (uint32_t v : values) w.u32(v);
}

Result<CounterChunk> CounterChunk::deserialize(BinaryReader& r) {
  CounterChunk c;
  c.index = r.u32();
  c.generation = r.u64();
  for (auto& a : c.active) a = r.u8() != 0;
  for (auto& v : c.values) v = r.u32();
  if (!r.ok() || c.index >= kPrecopyChunkCount) return Status::kTampered;
  return c;
}

namespace {

void serialize_chunks(BinaryWriter& w, const std::vector<CounterChunk>& chunks) {
  w.u32(static_cast<uint32_t>(chunks.size()));
  for (const CounterChunk& c : chunks) c.serialize(w);
}

Result<std::vector<CounterChunk>> deserialize_chunks(BinaryReader& r) {
  const uint32_t count = r.u32();
  if (count > kPrecopyChunkCount) return Status::kTampered;
  std::vector<CounterChunk> chunks;
  chunks.reserve(count);
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    auto c = CounterChunk::deserialize(r);
    if (!c.ok()) return c.status();
    chunks.push_back(std::move(c).value());
  }
  if (!r.ok()) return Status::kTampered;
  return chunks;
}

void serialize_manifest(BinaryWriter& w,
                        const std::vector<ChunkManifestEntry>& manifest) {
  w.u32(static_cast<uint32_t>(manifest.size()));
  for (const ChunkManifestEntry& e : manifest) {
    w.u32(e.index);
    w.u64(e.generation);
  }
}

Result<std::vector<ChunkManifestEntry>> deserialize_manifest(BinaryReader& r) {
  const uint32_t count = r.u32();
  if (count > kPrecopyChunkCount) return Status::kTampered;
  std::vector<ChunkManifestEntry> manifest;
  manifest.reserve(count);
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    ChunkManifestEntry e;
    e.index = r.u32();
    e.generation = r.u64();
    if (e.index >= kPrecopyChunkCount) return Status::kTampered;
    manifest.push_back(e);
  }
  if (!r.ok()) return Status::kTampered;
  return manifest;
}

}  // namespace

Bytes PrecopyRoundPayload::serialize() const {
  BinaryWriter w;
  w.str(destination_address);
  w.u64(request_nonce);
  w.u32(round);
  policy.serialize(w);
  serialize_chunks(w, chunks);
  return w.take();
}

Result<PrecopyRoundPayload> PrecopyRoundPayload::deserialize(ByteView bytes) {
  BinaryReader r(bytes);
  PrecopyRoundPayload p;
  p.destination_address = r.str(256);
  p.request_nonce = r.u64();
  p.round = r.u32();
  auto policy = MigrationPolicy::deserialize(r);
  if (!policy.ok()) return Status::kTampered;
  p.policy = std::move(policy).value();
  auto chunks = deserialize_chunks(r);
  if (!chunks.ok() || !r.done()) return Status::kTampered;
  p.chunks = std::move(chunks).value();
  return p;
}

Bytes PrecopyFinalizePayload::serialize() const {
  BinaryWriter w;
  w.str(destination_address);
  w.u64(request_nonce);
  w.u32(round);
  policy.serialize(w);
  serialize_chunks(w, chunks);
  serialize_manifest(w, manifest);
  w.fixed(msk);
  return w.take();
}

Result<PrecopyFinalizePayload> PrecopyFinalizePayload::deserialize(
    ByteView bytes) {
  BinaryReader r(bytes);
  PrecopyFinalizePayload p;
  p.destination_address = r.str(256);
  p.request_nonce = r.u64();
  p.round = r.u32();
  auto policy = MigrationPolicy::deserialize(r);
  if (!policy.ok()) return Status::kTampered;
  p.policy = std::move(policy).value();
  auto chunks = deserialize_chunks(r);
  if (!chunks.ok()) return Status::kTampered;
  p.chunks = std::move(chunks).value();
  auto manifest = deserialize_manifest(r);
  if (!manifest.ok()) return Status::kTampered;
  p.manifest = std::move(manifest).value();
  p.msk = r.fixed<16>();
  if (!r.done()) return Status::kTampered;
  return p;
}

Bytes PrecopyChunkRecord::serialize() const {
  BinaryWriter w;
  w.fixed(source_mr_enclave);
  w.str(source_me_address);
  w.u64(request_nonce);
  w.u32(round);
  serialize_chunks(w, chunks);
  return w.take();
}

Result<PrecopyChunkRecord> PrecopyChunkRecord::deserialize(ByteView bytes) {
  BinaryReader r(bytes);
  PrecopyChunkRecord p;
  p.source_mr_enclave = r.fixed<32>();
  p.source_me_address = r.str(256);
  p.request_nonce = r.u64();
  p.round = r.u32();
  auto chunks = deserialize_chunks(r);
  if (!chunks.ok() || !r.done()) return Status::kTampered;
  p.chunks = std::move(chunks).value();
  return p;
}

Bytes PrecopyFinalizeRecord::serialize() const {
  BinaryWriter w;
  w.fixed(source_mr_enclave);
  w.str(source_me_address);
  w.u64(request_nonce);
  w.u32(round);
  serialize_chunks(w, chunks);
  serialize_manifest(w, manifest);
  w.fixed(msk);
  return w.take();
}

Result<PrecopyFinalizeRecord> PrecopyFinalizeRecord::deserialize(
    ByteView bytes) {
  BinaryReader r(bytes);
  PrecopyFinalizeRecord p;
  p.source_mr_enclave = r.fixed<32>();
  p.source_me_address = r.str(256);
  p.request_nonce = r.u64();
  p.round = r.u32();
  auto chunks = deserialize_chunks(r);
  if (!chunks.ok()) return Status::kTampered;
  p.chunks = std::move(chunks).value();
  auto manifest = deserialize_manifest(r);
  if (!manifest.ok()) return Status::kTampered;
  p.manifest = std::move(manifest).value();
  p.msk = r.fixed<16>();
  if (!r.done()) return Status::kTampered;
  return p;
}

Bytes ReconcileQuery::serialize() const {
  BinaryWriter w;
  w.fixed(source_mr_enclave);
  w.u64(request_nonce);
  return w.take();
}

Result<ReconcileQuery> ReconcileQuery::deserialize(ByteView bytes) {
  BinaryReader r(bytes);
  ReconcileQuery q;
  q.source_mr_enclave = r.fixed<32>();
  q.request_nonce = r.u64();
  if (!r.done()) return Status::kTampered;
  return q;
}

Bytes TransferPayload::serialize() const {
  BinaryWriter w;
  w.fixed(source_mr_enclave);
  w.str(source_me_address);
  w.u64(request_nonce);
  w.bytes(data.serialize());
  return w.take();
}

Result<TransferPayload> TransferPayload::deserialize(ByteView bytes) {
  BinaryReader r(bytes);
  TransferPayload p;
  p.source_mr_enclave = r.fixed<32>();
  p.source_me_address = r.str(256);
  p.request_nonce = r.u64();
  auto data = MigrationData::deserialize(r.bytes(1u << 20));
  if (!r.done() || !data.ok()) return Status::kTampered;
  p.data = std::move(data).value();
  return p;
}

Bytes SessionResumeRequest::serialize() const {
  BinaryWriter w;
  w.str(initiator_address);
  w.u64(responder_epoch);
  w.fixed(nonce);
  w.fixed(mac);
  return w.take();
}

Result<SessionResumeRequest> SessionResumeRequest::deserialize(
    ByteView bytes) {
  BinaryReader r(bytes);
  SessionResumeRequest req;
  req.initiator_address = r.str(256);
  req.responder_epoch = r.u64();
  req.nonce = r.fixed<16>();
  req.mac = r.fixed<16>();
  if (!r.done()) return Status::kTampered;
  return req;
}

Bytes SessionResumeReply::serialize() const {
  BinaryWriter w;
  w.fixed(nonce);
  w.fixed(mac);
  return w.take();
}

Result<SessionResumeReply> SessionResumeReply::deserialize(ByteView bytes) {
  BinaryReader r(bytes);
  SessionResumeReply reply;
  reply.nonce = r.fixed<16>();
  reply.mac = r.fixed<16>();
  if (!r.done()) return Status::kTampered;
  return reply;
}

Bytes ProviderAuth::serialize() const {
  BinaryWriter w;
  credential.serialize(w);
  w.fixed(transcript_signature);
  return w.take();
}

Result<ProviderAuth> ProviderAuth::deserialize(ByteView bytes) {
  BinaryReader r(bytes);
  ProviderAuth auth;
  auth.credential = platform::MachineCredential::deserialize(r);
  auth.transcript_signature = r.fixed<64>();
  if (!r.done()) return Status::kTampered;
  return auth;
}

Bytes provider_auth_message(const std::array<uint8_t, 32>& transcript_hash) {
  BinaryWriter w;
  w.str("SGXMIG-PROVIDER-AUTH-v1");
  w.fixed(transcript_hash);
  return w.take();
}

}  // namespace sgxmig::migration
