// Wire messages of the migration protocol (paper Fig. 2).
//
// Two layers:
//  * the OUTER envelope (MeRequest/MeResponse) travels over the untrusted
//    network to a Migration Enclave's endpoint and carries attestation
//    handshake messages or encrypted channel records;
//  * the INNER messages travel as plaintext of SecureChannel records and
//    are only visible to the attested endpoints:
//      - LibMsg between a Migration Library and its local ME,
//      - TransferPayload / DONE between source and destination MEs.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "migration/migration_data.h"
#include "migration/policy.h"
#include "platform/provider.h"
#include "sgx/remote_attestation.h"
#include "sgx/types.h"
#include "support/bytes.h"
#include "support/serde.h"
#include "support/status.h"

namespace sgxmig::migration {

// ----- outer envelope -----

enum class MeMsgType : uint8_t {
  kLaStart = 1,   // ML -> ME: begin local attestation (payload empty)
  kLaMsg2 = 2,    // ML -> ME: DH msg2 (payload = DhMsg2)
  kLaRecord = 3,  // ML -> ME: encrypted LibMsg record
  kRaMsg1 = 4,    // ME_src -> ME_dst: RA msg1
  kRaMsg3 = 5,    // ME_src -> ME_dst: RA msg3 + provider auth
  kTransfer = 6,  // ME_src -> ME_dst: encrypted TransferPayload record
  kDone = 7,      // ME_dst -> ME_src: encrypted DONE record
  // Live pre-copy transfer (VM-live-migration style, iterative rounds).
  kPrecopyChunk = 8,     // ME_src -> ME_dst: encrypted PrecopyChunkRecord
  kPrecopyFinalize = 9,  // ME_src -> ME_dst: encrypted PrecopyFinalizeRecord
  // Incoming-record reconciliation (lost-ACCEPTED or lost-abort cleanup):
  // the ME holding an undelivered record asks the ORIGINATING source ME,
  // over a fresh RA channel, whether that logical migration is still live.
  kReconcile = 10,  // ME_dst -> ME_src: encrypted AttemptRef record
  // Proactive abort on re-route: the ORIGINATING source ME tells the
  // orphaned destination — over a fresh RA channel — that a logical
  // migration attempt was abandoned, so its undelivered incoming record,
  // staged or assembled, can be expired immediately instead of lingering
  // until the pull-based reconcile sweep happens to run.
  kAbort = 11,  // ME_src -> ME_dst: encrypted AttemptRef record
  // Cached-session resume (one round-trip instead of full msg1/msg3): the
  // source ME proves possession of the master key of a previously
  // completed RA handshake toward this destination INSTANCE (epoch-bound)
  // and both sides derive a fresh channel key from fresh nonces.  Any
  // verification failure falls back to the full handshake.
  kSessionResume = 12,  // ME_src -> ME_dst: SessionResumeRequest (plaintext)
};

/// Stable wire-facing name of an outer envelope type ("la-record",
/// "transfer", ...) for fault-site enumeration, chaos coverage accounting,
/// and trace/report labels.  Unknown values map to "unknown".
const char* me_msg_type_name(MeMsgType type);

/// Every outer envelope type, in wire order — the fault-site enumeration
/// chaos profiles draw from when building per-message-type rules.
inline constexpr std::array<MeMsgType, 12> kAllMeMsgTypes = {
    MeMsgType::kLaStart,        MeMsgType::kLaMsg2,
    MeMsgType::kLaRecord,       MeMsgType::kRaMsg1,
    MeMsgType::kRaMsg3,         MeMsgType::kTransfer,
    MeMsgType::kDone,           MeMsgType::kPrecopyChunk,
    MeMsgType::kPrecopyFinalize, MeMsgType::kReconcile,
    MeMsgType::kAbort,          MeMsgType::kSessionResume,
};

/// Largest payload either envelope carries.
inline constexpr size_t kMaxEnvelopePayload = 1u << 22;
/// Largest machine address a message carries.
inline constexpr size_t kMaxAddress = 256;
/// Largest serialized MigrationData (or raw data blob) a message carries.
inline constexpr size_t kMaxDataBlob = 1u << 20;

struct MeRequest {
  MeMsgType type = MeMsgType::kLaStart;
  uint64_t id = 0;  // LA session id or transfer id
  Bytes payload;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u8(m.type, MeMsgType::kLaStart, MeMsgType::kSessionResume);
    io.u64(m.id);
    io.bytes(m.payload, kMaxEnvelopePayload);
  }
};

struct MeResponse {
  Status status = Status::kUnexpected;
  Bytes payload;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u32(m.status);
    io.bytes(m.payload, kMaxEnvelopePayload);
  }
};

// ----- inner ML <-> ME messages -----

enum class LibMsgType : uint8_t {
  // requests (ML -> ME)
  kMigrateRequest = 1,
  kFetchIncoming = 2,
  kConfirmMigration = 3,  // ConfirmPayload
  kQueryStatus = 4,
  kPrecopyRound = 5,        // ship chunks dirtied since the last round
  kPrecopyFinalizeReq = 6,  // frozen: ship the final delta + MSK
  kMigrateEnqueue = 7,      // non-blocking migrate: queue a TransferTask
  kPollTransfer = 8,        // progress of a queued TransferTask (by nonce)
  kAbortStale = 9,          // re-route: abort the previous attempt's orphan
  // responses (ME -> ML)
  kMigrateAccepted = 10,
  kIncomingData = 11,
  kConfirmAck = 12,
  kStatusReport = 13,
  kError = 14,
  kPrecopyAck = 15,
  kFinalizeAccepted = 16,
  kMigrateQueued = 17,      // TransferTask accepted into the pipeline
  kTransferProgress = 18,   // TransferProgressPayload
  // The abort path is best-effort fire-and-forget: a failed or ignored
  // abort just leaves the orphan for the pull-based reconcile sweep, so
  // the library deliberately never inspects this reply.
  kAbortAck = 19,  // simlint: allow(protocol-consume)
  // Freeze-aware (enqueue-without-freeze) pipeline: the library reserves
  // a transfer slot WITHOUT freezing (kMigrateReserve carries no data);
  // the ME runs the attestation pipeline and parks the task slot-live;
  // kPollTransfer then reports kSlotLive, the library freezes + collects
  // and arms the task with the real payload (kMigrateArm).
  kMigrateReserve = 20,     // request: MigrateReservePayload (no data)
  kMigrateArm = 21,         // request: MigrateRequestPayload (full data)
  kArmAck = 22,             // response: task armed, transfer shipping
  // Warm pre-copy destination: an instance launched on the destination
  // before the freeze asks its local ME which attempt is staged for its
  // identity, and creates that attempt's counter set ahead of the data.
  kWarmIncoming = 23,  // request: no payload
  kWarmBinding = 24,   // response: WarmBindingPayload
};

struct LibMsg {
  LibMsgType type = LibMsgType::kError;
  Status status = Status::kOk;
  Bytes payload;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u8(m.type);
    io.u32(m.status);
    io.bytes(m.payload, kMaxEnvelopePayload);
  }
};

/// Payload of kConfirmMigration: the delivery token of the kIncomingData
/// reply.  It proves the confirmer is the instance the sealed fetch reply
/// reached, even over a re-attested session.
struct ConfirmPayload {
  uint64_t delivery_token = 0;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u64(m.delivery_token);
  }
};

enum class OutgoingState : uint8_t {
  kNone = 0,       // no outgoing migration known for this enclave
  kPending = 1,    // data transferred, waiting for destination confirm
  kCompleted = 2,  // destination confirmed; source data deleted
};

/// Payload of kStatusReport.
struct StatusReportPayload {
  OutgoingState state = OutgoingState::kNone;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u8(m.state, OutgoingState::kNone, OutgoingState::kCompleted);
  }
};

// ----- pipelined (non-blocking) outgoing transfers -----
//
// kMigrateEnqueue carries the same MigrateRequestPayload as
// kMigrateRequest, but the source ME answers kMigrateQueued IMMEDIATELY
// and runs the ME<->ME conversation as a step-driven TransferTask behind
// its pump() scheduler, interleaved with every other in-flight transfer.
// The library polls the task's fate with kPollTransfer (nonce-scoped);
// the task is durable from the moment it is queued, so an ME restart
// resumes the pipeline instead of losing the attempt.

/// Observable state of one queued transfer attempt (kTransferProgress).
enum class TransferProgress : uint8_t {
  kNone = 0,      // the ME knows nothing about this nonce
  kInFlight = 1,  // queued or mid-conversation with the destination
  kAccepted = 2,  // destination accepted; retained (or already completed)
  kFailed = 3,    // terminal failure; `failure` carries the status
  /// Freeze-aware pipeline: the destination is attested and the transfer
  /// slot is held — the library should now freeze, collect, and arm the
  /// task (kMigrateArm).  Only reported for reserve-mode tasks.
  kSlotLive = 4,
};

/// Payload of kMigrateReserve (ML -> ME): like kMigrateEnqueue but with
/// no migration data — the enclave stays LIVE while the task queues and
/// attests.  The data follows in kMigrateArm once the poll reports
/// kSlotLive and the library has frozen + collected.
struct MigrateReservePayload {
  std::string destination_address;
  /// Random per-migration-attempt identifier chosen by the Migration
  /// Library.  The ME stores it in the durable transfer queue so that (a)
  /// a re-sent request after a lost reply is deduplicated instead of
  /// producing a second transfer, and (b) the library can re-query the
  /// fate of exactly THIS attempt (kQueryStatus with a nonce) after the
  /// ME restarted mid-exchange.  Never 0: every transfer path refuses a
  /// zero nonce (kInvalidParameter).
  uint64_t request_nonce = 0;
  /// Migration policy (paper §X extension), enforced by the source ME
  /// against the destination machine's certified attributes.
  MigrationPolicy policy;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.str(m.destination_address, kMaxAddress);
    io.u64(m.request_nonce);
    io.record(m.policy);
  }
};

/// Payload of kMigrateRequest, kMigrateEnqueue and kMigrateArm: a
/// reservation followed by the migration data.
struct MigrateRequestPayload : MigrateReservePayload {
  MigrationData data;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    MigrateReservePayload::fields(io, m);
    io.sized(m.data, kMaxDataBlob);
  }
};

/// Payload of kQueryStatus and kPollTransfer: the request nonce of one
/// migrate attempt.  The answer is scoped to the single migrate request
/// that carried the nonce (the resume path after an ME restart
/// mid-exchange must not be confused by earlier migrations of the same
/// identity through the same ME); nonce 0 names no attempt and is
/// kInvalidParameter.
struct NoncePayload {
  uint64_t request_nonce = 0;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u64(m.request_nonce);
  }
};

/// Payload of kTransferProgress.
struct TransferProgressPayload {
  TransferProgress progress = TransferProgress::kNone;
  Status failure = Status::kOk;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u8(m.progress, TransferProgress::kNone, TransferProgress::kSlotLive);
    io.u32(m.failure);
  }
};

/// Payload of kAbortStale (ML -> its local ME): the library re-routed a
/// staged attempt, so the old destination's undelivered entry for
/// `request_nonce` is an orphan the source ME should proactively expire.
struct AbortStalePayload {
  uint64_t request_nonce = 0;
  std::string destination_address;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u64(m.request_nonce);
    io.str(m.destination_address, kMaxAddress);
  }
};

/// Payload of the kAbort record (source ME -> orphaned destination ME)
/// and of the kReconcile record (pending-entry holder -> the entry's
/// originating source ME, over a fresh RA channel): one logical migration
/// attempt, named by its enclave and the library's request nonce.
struct AttemptRef {
  sgx::Measurement source_mr_enclave{};
  uint64_t request_nonce = 0;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.fixed(m.source_mr_enclave);
    io.u64(m.request_nonce);
  }
};

/// Payload of kIncomingData (the fetch reply): the serialized migration
/// data, the delivery token — proof of being the instance the sealed
/// reply reached, honored by the confirm even from a re-attested session
/// — and the attempt's request nonce, so the destination's restore joins
/// the source's trace tree.
struct IncomingDataPayload {
  Bytes data;
  uint64_t delivery_token = 0;
  uint64_t request_nonce = 0;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.bytes(m.data, kMaxDataBlob);
    io.u64(m.delivery_token);
    io.u64(m.request_nonce);
  }
};

/// Payload of kWarmBinding: the staged pre-copy attempt a warm
/// destination instance binds its counter set to, and the Table II slots
/// its rounds hold active so far.  Carries no counter value and no MSK.
struct WarmBindingPayload {
  uint64_t request_nonce = 0;
  std::array<bool, kMaxCounters> active{};

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u64(m.request_nonce);
    for (auto& a : m.active) io.u8(a);
  }
};

// ----- live pre-copy transfer (iterative rounds, paper-plus) -----
//
// The Table II counter array is tracked at sealed-chunk granularity: each
// chunk covers kPrecopyChunkSlots consecutive counter slots and carries a
// monotonic generation stamped by the library on every mutation that
// touches one of its slots.  Pre-copy rounds ship only chunks whose
// generation advanced since the last round, while the enclave keeps
// serving mutations; migration_finalize_detailed() freezes and ships just
// the final dirty delta plus the MSK.  The finalize manifest lists every
// chunk (index, generation) the destination must hold so a lost round can
// never silently restore a truncated Table II.

inline constexpr size_t kPrecopyChunkSlots = 16;
inline constexpr size_t kPrecopyChunkCount = kMaxCounters / kPrecopyChunkSlots;

/// One dirty region of the Table II counter array: the slots' active
/// flags and EFFECTIVE values (offset + hardware) at collect time.
struct CounterChunk {
  uint32_t index = 0;       // chunk index, [0, kPrecopyChunkCount)
  uint64_t generation = 0;  // library mutation generation at collect time
  std::array<bool, kPrecopyChunkSlots> active{};
  std::array<uint32_t, kPrecopyChunkSlots> values{};

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u32(m.index);
    io.u64(m.generation);
    for (auto& a : m.active) io.u8(a);
    for (auto& v : m.values) io.u32(v);
    io.require(m.index < kPrecopyChunkCount);
  }
};

/// One (chunk index, generation) pair of the finalize manifest.
struct ChunkManifestEntry {
  uint32_t index = 0;
  uint64_t generation = 0;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u32(m.index);
    io.u64(m.generation);
    io.require(m.index < kPrecopyChunkCount);
  }
};

/// Payload of kPrecopyRound (ML -> source ME).
struct PrecopyRoundPayload {
  std::string destination_address;
  uint64_t request_nonce = 0;  // identifies the whole pre-copy attempt
  uint32_t round = 0;
  /// Enforced by the source ME against the destination's certified
  /// attributes on the first round, BEFORE any chunk leaves the machine.
  MigrationPolicy policy;
  std::vector<CounterChunk> chunks;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.str(m.destination_address, kMaxAddress);
    io.u64(m.request_nonce);
    io.u32(m.round);
    io.record(m.policy);
    io.list(m.chunks, kPrecopyChunkCount);
  }
};

/// Payload of kPrecopyFinalizeReq (ML -> source ME): a round carrying the
/// final delta, then the manifest and the MSK.  Sent after the library
/// froze; carries only the chunks dirtied since the last round (or
/// everything staged, after a re-route to a fresh destination).
struct PrecopyFinalizePayload : PrecopyRoundPayload {
  std::vector<ChunkManifestEntry> manifest;  // every chunk the dst must hold
  sgx::Key128 msk{};

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    PrecopyRoundPayload::fields(io, m);
    io.list(m.manifest, kPrecopyChunkCount);
    io.fixed(m.msk);
  }
};

/// Payload of the kPrecopyChunk record (source ME -> destination ME).
struct PrecopyChunkRecord {
  sgx::Measurement source_mr_enclave{};
  std::string source_me_address;
  uint64_t request_nonce = 0;
  uint32_t round = 0;
  std::vector<CounterChunk> chunks;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.fixed(m.source_mr_enclave);
    io.str(m.source_me_address, kMaxAddress);
    io.u64(m.request_nonce);
    io.u32(m.round);
    io.list(m.chunks, kPrecopyChunkCount);
  }
};

/// Payload of the kPrecopyFinalize record (source ME -> destination ME):
/// a chunk record, then the manifest and the MSK.
struct PrecopyFinalizeRecord : PrecopyChunkRecord {
  std::vector<ChunkManifestEntry> manifest;
  sgx::Key128 msk{};
  /// Re-shipped from the source ME's durable queue after a restart: the
  /// destination may have confirmed it already, so it only completes a
  /// record of its own migration and never starts one.
  bool resumed = false;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    PrecopyChunkRecord::fields(io, m);
    io.list(m.manifest, kPrecopyChunkCount);
    io.fixed(m.msk);
    io.u8(m.resumed);
  }
};

/// Verdict of a reconcile query (u8 on the wire).
enum class ReconcileVerdict : uint8_t {
  kStillLive = 0,   // the migration may still complete (or: unknown; keep)
  kSuperseded = 1,  // a newer transfer of the identity completed: expire
};

/// Reply record of kReconcile, sealed on the query's channel.
struct ReconcileReply {
  ReconcileVerdict verdict = ReconcileVerdict::kStillLive;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.magic("SGXMIG-RECON", 64);
    io.u8(m.verdict, ReconcileVerdict::kStillLive,
          ReconcileVerdict::kSuperseded);
  }
};

/// Reply record of kAbort, sealed on the abort's channel: true when no
/// undelivered record of the attempt remains (the source may forget it);
/// false when an instance fetched the data and may still confirm.
struct AbortReply {
  bool forgettable = false;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.magic("SGXMIG-ABORT", 64);
    io.u8(m.forgettable);
  }
};

// ----- inner ME <-> ME messages -----

/// Payload of the kTransfer record.
struct TransferPayload {
  sgx::Measurement source_mr_enclave{};
  std::string source_me_address;
  /// The library's request nonce, forwarded ME-to-ME so the destination
  /// can recognize a RE-transfer of the same logical migration: if the
  /// ACCEPTED ack is lost, the source retains nothing and retries with a
  /// fresh transfer id — without the nonce the orphaned pending entry
  /// would block that enclave->machine pair with kAlreadyExists forever.
  uint64_t request_nonce = 0;
  MigrationData data;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.fixed(m.source_mr_enclave);
    io.str(m.source_me_address, kMaxAddress);
    io.u64(m.request_nonce);
    io.sized(m.data, kMaxDataBlob);
  }
};

/// Payload of the kDone record (destination ME -> source ME): the
/// transfer whose data an instance confirmed.
struct DoneRecord {
  uint64_t transfer_id = 0;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.magic("SGXMIG-DONE", 64);
    io.u64(m.transfer_id);
  }
};

// ----- cached-session resume (ME <-> ME) -----
//
// After a successful full RA handshake the initiator caches the session
// master key together with the responder's instance epoch (a random value
// drawn at ME construction, returned with the msg3 response).  A later
// transfer to the same destination resumes in ONE round-trip: the
// initiator MACs a transcript containing the expected epoch and a fresh
// nonce with the cached master key; the responder (which keeps its
// acceptor table in MEMORY ONLY, so a restart forgets it) verifies and
// answers with its own nonce + MAC.  Both derive a fresh channel key
//   K = CMAC(master, "SGXMIG-RESUME-KEY" || nonce_i || nonce_r || id)
// so records of different resumed sessions never share a key stream.
// Any mismatch (unknown peer, stale epoch, bad MAC) makes the responder
// refuse and the initiator fall back to the full msg1/msg3 handshake.

/// Plaintext payload of kSessionResume (the MAC is the authenticator).
struct SessionResumeRequest {
  std::string initiator_address;
  uint64_t responder_epoch = 0;  // epoch the initiator believes is current
  std::array<uint8_t, 16> nonce{};
  std::array<uint8_t, 16> mac{};  // CMAC(master, resume transcript)

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.str(m.initiator_address, kMaxAddress);
    io.u64(m.responder_epoch);
    io.fixed(m.nonce);
    io.fixed(m.mac);
  }
};

/// Payload of the kSessionResume response.
struct SessionResumeReply {
  std::array<uint8_t, 16> nonce{};
  std::array<uint8_t, 16> mac{};  // CMAC(master, reply transcript)

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.fixed(m.nonce);
    io.fixed(m.mac);
  }
};

/// Provider authentication attached to RA msg3 and its response: the
/// machine credential plus a signature over the attestation transcript
/// with the certified machine key (paper §V-B).
struct ProviderAuth {
  platform::MachineCredential credential;
  crypto::Ed25519Signature transcript_signature{};

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.record(m.credential);
    io.fixed(m.transcript_signature);
  }
};

/// Largest RA msg3 or provider authentication the msg3 exchange carries.
inline constexpr size_t kMaxHandshakeRecord = 1u << 16;

/// Payload of kRaMsg3: the RA msg3 and the initiator's provider auth.
struct RaMsg3Payload {
  sgx::RaMsg3 msg3;
  ProviderAuth auth;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.sized(m.msg3, kMaxHandshakeRecord);
    io.sized(m.auth, kMaxHandshakeRecord);
  }
};

/// Payload of the kRaMsg3 response: the responder's provider auth and
/// its instance epoch (what a later resume must name).
struct RaMsg3Reply {
  ProviderAuth auth;
  uint64_t epoch = 0;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.sized(m.auth, kMaxHandshakeRecord);
    io.u64(m.epoch);
  }
};

/// Message a machine key signs to authenticate an RA transcript.
Bytes provider_auth_message(const std::array<uint8_t, 32>& transcript_hash);

}  // namespace sgxmig::migration
