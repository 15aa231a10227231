// The Migration Enclave (ME) — paper §V-B / §VI-A.
//
// One ME runs in the management VM of every physical machine.  It:
//  * accepts local attestations from Migration Libraries and records the
//    attested MRENCLAVE of each session;
//  * for OUTGOING migrations: performs mutual remote attestation with the
//    destination ME, checks that the peer has *exactly its own* MRENCLAVE,
//    authenticates the peer as a machine of the same cloud provider (via
//    the operator-issued certificate + a signature over the attestation
//    transcript), enforces region policies, transfers the migration data
//    over the derived secure channel, and retains a copy until the
//    destination confirms (DONE);
//  * for INCOMING migrations: verifies the same things in the other
//    direction, stores the data until a local enclave with the matching
//    MRENCLAVE attests and fetches it, and relays the DONE confirmation
//    back to the source ME so it can delete its copy.
//
// DURABLE TRANSFER QUEUE (§V-D hardening): the retention guarantee above
// is only worth anything if it survives the ME process itself.  Every
// queue transition (retain outgoing / accept incoming / confirm / DONE)
// seals the transfer queue — retained data, pending incoming entries, the
// secure-channel key material needed to finish each conversation, and the
// DONE-relay backlog — and hands it to an untrusted-storage OCALL
// (set_queue_persist_callback) before the transition completes.  A
// restarted ME restores the queue via restore_queue() and resumes: it can
// still be DONE-confirmed for transfers it retained, still delivers
// pending data, and still re-relays unacknowledged DONEs.  Session state
// (local attestation channels) is deliberately NOT durable: libraries
// re-attest.  Neither is a pre-copy task's merged set before its finalize
// ships: the live library holds every staged chunk, and the finalize
// fetches whatever a restart lost.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "migration/protocol.h"
#include "net/channel.h"
#include "platform/machine.h"
#include "platform/provider.h"
#include "sgx/dh.h"
#include "sgx/enclave.h"
#include "sgx/remote_attestation.h"
#include "support/fifo_map.h"

namespace sgxmig::migration {

/// The ME's durable transfer queue (§V-D hardening): every record the
/// sealed snapshot carries, and the snapshot's v5 layout as one field list
/// over them.  The writer runs it straight over the ME's maps; the reader
/// fills a fresh queue, so a refused snapshot leaves the ME's untouched.
struct DurableQueue {
  struct InboundTransfer {
    std::unique_ptr<sgx::RaSession> ra;  // null once restored from disk
    std::optional<net::SecureChannel> channel;
    bool authenticated = false;
    std::string source_region;
    /// Provider-certified address of the peer machine (verified against
    /// its credential): authorizes source-scoped operations like kAbort.
    std::string source_address;
  };
  struct OutgoingTransfer {
    sgx::Measurement source_mr{};
    std::string destination_address;
    uint64_t request_nonce = 0;  // ties the transfer to one ML attempt
    Bytes retained_data;         // kept until DONE (paper §V-D)
    std::optional<net::SecureChannel> channel;
    uint64_t sequence = 0;  // creation order, for status queries
  };
  /// The one incoming migration of an enclave identity (paper §V-D,
  /// §VI-A), from its first record until an instance with that MRENCLAVE
  /// confirms it.  A record is STAGED — pre-copy chunks merged by
  /// generation across rounds — until a transfer or a passing finalize
  /// manifest ASSEMBLES it; only assembled data is fetched or confirmed.
  /// Durable except the delivery pin, the token and the reconcile stamp.
  struct IncomingRecord {
    uint64_t transfer_id = 0;  // inbound_ entry holding the live channel
    std::string source_me_address;
    uint64_t request_nonce = 0;  // identifies the logical migration
    // --- staged ---
    uint32_t rounds = 0;
    std::map<uint32_t, CounterChunk> chunks;
    /// Virtual time of the last merged round: drives the age-based sweep
    /// of staging whose source went away for good.
    Duration last_update{};
    // --- assembled ---
    std::optional<MigrationData> data;
    uint64_t delivering_session = 0;  // LA session the data was handed to
    /// Random token delivered INSIDE the sealed fetch reply: only the
    /// instance that received the data can present it, so a confirm
    /// bearing it is honored even from a fresh LA session (the instance
    /// re-attested after a channel desync).  Transient, like the pin.
    uint64_t delivery_token = 0;
    // Last reconciliation sweep (virtual time, not persisted): a LIVE
    // record blocking a busy-retrying peer must not pay one RA handshake
    // to its source ME per retry just to re-learn it is live.
    Duration last_reconcile{};

    bool assembled() const { return data.has_value(); }
    /// Turns the record into authoritative pending data (a transfer or a
    /// passing finalize): the staged chunks are spent.
    void assemble(MigrationData assembled);
  };
  using IncomingMap = std::map<sgx::Measurement, IncomingRecord>;
  /// One outgoing attempt, keyed by the library's request nonce: the
  /// source-side protocol as resumable steps, for both transfer modes.  A
  /// full-snapshot task ships its payload once; a pre-copy task ships
  /// rounds of merged chunks and then the staged finalize.  A queued
  /// task's payload is durable; a pre-copy task's merged set is soft
  /// state until its finalize record ships (a finalize whose manifest it
  /// does not cover is refused with kPrecopyIncomplete, and the library
  /// re-sends its whole staged set).  The channel is per-attempt state — a
  /// restarted ME re-runs the attest from scratch under a fresh transfer
  /// id (the nonce keeps it exactly-once).
  struct TransferTask {
    enum class Step : uint8_t {
      kQueued = 0,       // nothing sent yet (fresh, restored, or resyncing);
                         // pre-copy: no record in flight
      kAttesting = 1,    // attest_peer run in flight
      kAwaitAccept = 3,  // sealed TransferPayload posted
      kFailed = 4,       // terminal; `failure` held until polled
      kAwaitArm = 5,     // reserve-mode: attested, slot held, awaiting data
      kAwaitRoundAck = 6,     // pre-copy: a sealed round record in flight
      kAwaitFinalizeAck = 7,  // pre-copy: the sealed finalize in flight
    };
    sgx::Measurement source_mr{};
    /// Destination, nonce, policy, data.  A pre-copy task keeps only the
    /// destination and nonce: its data is `merged`, and each round and
    /// the finalize bring their own policy.
    MigrateRequestPayload request;
    Step step = Step::kQueued;
    Status failure = Status::kOk;
    uint64_t transfer_id = 0;  // current attempt's wire id
    std::optional<net::SecureChannel> channel;
    /// false: freeze-aware reserve (kMigrateReserve) — request.data is
    /// empty until the library freezes and arms the task (kMigrateArm);
    /// the poll reports kSlotLive once the destination is attested.
    bool armed = true;
    /// Driven by a blocking kMigrateRequest: its steps run inline over
    /// rpc, and it lives only inside that handler — never serialized as
    /// resumable work.
    bool blocking = false;

    // --- pre-copy: ships in rounds, then the staged finalize ---
    bool precopy = false;
    uint32_t rounds = 0;
    /// What the library shipped since the task was created (or since the
    /// snapshot it was restored from), merged by chunk generation.
    std::map<uint32_t, CounterChunk> merged;
    /// Set when a send failed (channel possibly desynced): the next send
    /// re-attests under a fresh transfer id and re-ships the whole merged
    /// set, so the destination converges no matter what was lost.
    bool resync = false;
    /// Highest generation per chunk index the destination ACKed
    /// (memory-only); a ship sends merged entries newer than this (all,
    /// on resync).
    std::map<uint32_t, uint64_t> acked;
    /// Staged finalize (its chunks already merged): the manifest, MSK,
    /// round and policy the finalize record ships with.  Under the async
    /// transport it is durable from the moment its record is posted — the
    /// resumable finalize record, written while the record travels — so a
    /// restarted ME re-attests and re-ships it on its own under the same
    /// nonce (the destination dedups the repeat).  A restart before the
    /// ship (or an exhausted ship budget) drops it: the still-frozen
    /// library observes kNone and re-sends the finalize.
    std::optional<PrecopyFinalizePayload> staged_finalize;
    uint32_t finalize_attempts = 0;  // memory-only ship retry budget
    /// The staged finalize was read back from the queue: the library that
    /// staged it may have seen kAccepted and be gone, so it ships marked
    /// resumed and spends no budget (see spend_finalize_try).  A finalize
    /// the library (re-)sends clears it.
    bool resumed = false;
    /// Last library round or finalize (or the restore that read the task
    /// back), memory-only: a pre-copy task with nothing staged or in flight
    /// whose library stayed silent for kPrecopyStagingMaxAge ages out.
    Duration last_update{};

    /// Everything merged beyond the destination's acked front (on
    /// resync: the whole merged set) — what the next record carries.
    std::vector<CounterChunk> unacked_chunks() const;
    /// Spends one unit of the finalize ship budget; past it the staged
    /// finalize is handed back to the library.  A resumed finalize
    /// re-ships on every pump until the destination answers it, and is
    /// handed back only when the destination holds no record of its
    /// migration.  Returns `status`.
    Status spend_finalize_try(Status status);
  };
  /// Compact durable record of a confirmed outgoing transfer: enough to
  /// answer status queries and absorb duplicate DONEs idempotently after
  /// the retained data itself has been wiped.  Bounded FIFO history.
  struct CompletedOutgoing {
    sgx::Measurement source_mr{};
    uint64_t request_nonce = 0;
    uint64_t sequence = 0;
  };
  /// A DONE confirmation the destination ME could not deliver: the exact
  /// sealed record is kept (re-sealing would desync the channel sequence
  /// numbers) and retried until the source ME acknowledges it.
  struct DoneRelay {
    std::string source_me_address;
    Bytes sealed_record;
  };
  /// Initiator-side cached attestation session toward one peer ME
  /// (durable since queue v4): the master key of a completed full handshake,
  /// bound to the peer's instance epoch, plus the certified credential so
  /// per-attempt policy is re-evaluated without a wire round trip.
  struct PeerSession {
    sgx::Key128 master_key{};
    uint64_t peer_epoch = 0;
    platform::MachineCredential credential;
    std::string region;
  };
  using OutgoingMap = std::map<uint64_t, OutgoingTransfer>;
  // Per-identity latest outgoing transfer: O(log n) status queries
  // instead of scanning every transfer ever made.  Once that transfer
  // completed, its request nonce stays here after the capped completion
  // history trims its record, so the janitors keep their evidence.  The
  // nonce is not persisted: a restored entry takes it from a retained
  // completion record, or keeps 0 (no evidence) when that was trimmed.
  struct LatestOutgoing {
    uint64_t sequence = 0;
    OutgoingState state = OutgoingState::kNone;
    uint64_t completed_nonce = 0;
  };

  std::map<uint64_t, InboundTransfer> inbound_;
  OutgoingMap outgoing_;
  std::map<uint64_t, TransferTask> transfer_tasks_;  // by request nonce
  IncomingMap incoming_;
  std::map<sgx::Measurement, LatestOutgoing> latest_outgoing_;
  FifoMap<uint64_t, CompletedOutgoing> completed_outgoing_;
  // Durable record that an incoming migration for this identity was
  // confirmed (its record erased, DONE queued), keyed by identity with the
  // confirmed request nonce as value.  Lets a RE-sent confirm — whose
  // ConfirmAck reply was lost, forcing the library to re-attest and
  // retry — succeed idempotently instead of stranding a fully restored
  // destination instance, and a re-shipped transfer or finalize of the
  // confirmed migration be answered with its DONE instead of a second
  // record.  FIFO-bounded like the completed history.
  FifoMap<sgx::Measurement, uint64_t> confirmed_incoming_;
  std::map<uint64_t, DoneRelay> done_relays_;
  uint64_t next_outgoing_sequence_ = 1;
  // Initiator side of the cached attestation sessions.
  std::map<std::string, PeerSession> peer_sessions_;

  /// The only queue format written or read; a snapshot with any other
  /// magic is refused as tampered.
  static constexpr char kMagic[] = "SGXMIG-ME-QUEUE-v5";
  /// Default (and largest) cap of the completed-outgoing and
  /// confirmed-incoming histories: enough to absorb duplicate DONEs from
  /// any realistic relay-retry window without growing with fleet lifetime.
  static constexpr size_t kCompletedHistoryLimit = 4096;
  static constexpr size_t kMaxChannelState = 64;
  static constexpr size_t kMaxDoneRelay = 1u << 16;
  static constexpr size_t kMaxRequest = 1u << 21;

  /// Heap bytes of the queue's records and histories: each entry's value
  /// and the buffers it owns (tree links, string heap and allocator
  /// overhead are not counted).
  size_t memory_bytes() const;

  /// Snapshot v5.  Split maps write two sections that read back into the
  /// one map, so an entry listed in both is refused.  Session state (LA
  /// channels, delivery pins, acked fronts) is deliberately not durable.
  template <class Io, class Self>
  static void fields(Io& io, Self& q) {
    const auto channel = [](auto& f, auto& c) {
      f.sized(c, kMaxChannelState);
    };
    const auto chunk_map = [](auto& f, auto& chunks) {
      f.map(chunks, kPrecopyChunkCount, [](auto& g, auto& index, auto& chunk) {
        g.record(chunk);
        g.implied(index, chunk.index);
      });
    };
    io.magic(kMagic, 64);
    io.u64(q.next_outgoing_sequence_);
    io.map(q.outgoing_, kAnyCount, [&](auto& f, auto& id, auto& t) {
      f.u64(id);
      f.fixed(t.source_mr);
      f.str(t.destination_address, kMaxAddress);
      f.u64(t.request_nonce);
      f.bytes(t.retained_data, kMaxDataBlob);
      f.u64(t.sequence);
      f.optional(t.channel, channel);
    });
    // Assembled incoming records; staged ones follow the pre-copy tasks.
    // The delivery pin is not durable: LA sessions die with the ME
    // process, so delivery re-arms after a restart.
    io.map(q.incoming_, kAnyCount, [](auto& f, auto& mr, auto& p) {
      f.fixed(mr);
      f.u64(p.transfer_id);
      f.sized(p.data, kMaxDataBlob);
      f.str(p.source_me_address, kMaxAddress);
      f.u64(p.request_nonce);
    }, [](const IncomingRecord& p) { return p.assembled(); });
    // Inbound transfers that completed authentication: their channel is
    // what decrypts the (re)sent transfer record and seals the DONE relay,
    // and their source address authorizes source-scoped aborts.
    io.map(q.inbound_, kAnyCount, [&](auto& f, auto& id, auto& in) {
      f.u64(id);
      f.str(in.source_region, kMaxAddress);
      f.str(in.source_address, kMaxAddress);
      f.sized(in.channel, kMaxChannelState);
      f.implied(in.authenticated, true);
    }, [](const InboundTransfer& in) {
      return in.authenticated && in.channel.has_value();
    });
    io.map(q.latest_outgoing_, kAnyCount, [](auto& f, auto& mr, auto& l) {
      f.fixed(mr);
      f.u64(l.sequence);
      f.u8(l.state, OutgoingState::kNone, OutgoingState::kCompleted);
    });
    io.ordered_map(q.completed_outgoing_, kCompletedHistoryLimit,
                   [](auto& f, auto& id, auto& c) {
                     f.u64(id);
                     f.fixed(c.source_mr);
                     f.u64(c.request_nonce);
                     f.u64(c.sequence);
                   });
    io.ordered_map(q.confirmed_incoming_, kCompletedHistoryLimit,
                   [](auto& f, auto& mr, auto& id) {
                     f.fixed(mr);
                     f.u64(id);
                   });
    io.map(q.done_relays_, kAnyCount, [](auto& f, auto& id, auto& relay) {
      f.u64(id);
      f.str(relay.source_me_address, kMaxAddress);
      f.bytes(relay.sealed_record, kMaxDoneRelay);
    });
    // Live pre-copy state: source tasks (merged chunk sets, and a shipped
    // finalize) and staged incoming records.  Staging is written with
    // each record it merges, so it survives a destination restart.  A
    // source task is written only inside snapshots of other transitions
    // until its finalize ships, so a restored one may be rounds behind;
    // its finalize's coverage check fetches what it misses from the
    // library, and one restored after the finalize shipped re-ships it.
    // A task's channel is not durable: a snapshot can predate a record
    // sealed on it or the ack of one (a shipped finalize), so reusing it
    // could repeat a GCM nonce or fail the next ack.  A restored task
    // re-attests under a fresh transfer id; the old id stays so a DONE on
    // that conversation is held for it.
    io.map(q.transfer_tasks_, kAnyCount, [&](auto& f, auto& nonce, auto& t) {
      f.u64(nonce);
      f.fixed(t.source_mr);
      f.str(t.request.destination_address, kMaxAddress);
      f.u64(t.transfer_id);
      f.u32(t.rounds);
      f.u8(t.resync);
      chunk_map(f, t.merged);
      f.optional(t.staged_finalize,
                 [](auto& g, auto& fin) { g.record(fin); });
      f.implied(t.resumed, t.staged_finalize.has_value());
      f.implied(t.precopy, true);
      f.implied(t.request.request_nonce, nonce);
    }, [](const TransferTask& t) { return t.precopy; });
    io.map(q.incoming_, kAnyCount, [&](auto& f, auto& mr, auto& s) {
      f.fixed(mr);
      f.u64(s.transfer_id);
      f.str(s.source_me_address, kMaxAddress);
      f.u64(s.request_nonce);
      f.u32(s.rounds);
      chunk_map(f, s.chunks);
      f.u64(s.last_update);  // sweep age
    }, [](const IncomingRecord& s) { return !s.assembled(); });
    // Queued full-snapshot tasks: only their durable identity (who,
    // where, what data, which nonce).  Attestation state is per attempt,
    // so a restarted ME resumes every pipeline from the attest step under
    // a fresh transfer id, and an unarmed reservation re-parks at
    // kAwaitArm.  A blocking task is not resumable work — its caller holds
    // the data and gets the verdict — so a snapshot cut mid-conversation
    // (a reentrant DONE's persist) leaves it out.
    io.map(q.transfer_tasks_, kAnyCount, [](auto& f, auto& nonce, auto& t) {
      f.u64(nonce);
      f.fixed(t.source_mr);
      f.sized(t.request, kMaxRequest);
      f.u8(t.armed);
    }, [](const TransferTask& t) { return !t.precopy && !t.blocking; });
    // Cached ME<->ME attestation sessions.  Master keys ride the sealed
    // snapshot like channel keys do; losing an entry only costs one full
    // handshake.  Acceptor-side state is deliberately NOT persisted (a
    // restarted responder must force the full handshake — that is the
    // anti-fork evidence the initiator relies on).
    io.map(q.peer_sessions_, kAnyCount, [](auto& f, auto& address, auto& s) {
      f.str(address, kMaxAddress);
      f.fixed(s.master_key);
      f.u64(s.peer_epoch);
      f.record(s.credential);
      f.str(s.region, kMaxAddress);
    });
  }
};

class MigrationEnclave : public sgx::Enclave, private DurableQueue {
 public:
  /// Secure setup phase (paper §V-B): the ME generates its machine
  /// authentication key and the cloud operator certifies it for this
  /// machine's address and region.  Also registers the ME's network
  /// endpoint ("<address>/me").
  MigrationEnclave(sgx::PlatformIface& platform,
                   std::shared_ptr<const sgx::EnclaveImage> image,
                   platform::ProviderCa& provider);
  ~MigrationEnclave() override;

  /// The standard ME image every machine of the provider deploys.  MEs
  /// only cooperate with peers measuring to the same MRENCLAVE.
  static std::shared_ptr<const sgx::EnclaveImage> standard_image();

  /// Untrusted dispatcher entry point: raw request from the network.
  Result<Bytes> handle_request(ByteView raw);

  // ----- pipelined outgoing transfers -----
  //
  // Every outgoing attempt of either transfer mode is a TransferTask:
  // the source-side protocol (attest -> ship -> await-ack -> retained) as
  // resumable steps sent through one seam (send_step).  A full-snapshot
  // task ships one payload; a pre-copy task ships rounds and then its
  // finalize.  The attest is the one ME<->ME handshake chain
  // (attest_peer: a cached resume or RA msg1/msg3), which the pre-copy
  // first contact, the abort and the reconcile query run inline too.  A
  // queued task (kMigrateEnqueue/kMigrateReserve) posts its round trips
  // through net::Network::post, so N concurrent outgoing transfers
  // interleave over independent RA channels instead of serializing.  It
  // is part of the durable queue from the moment it is queued: a
  // restarted ME resumes every in-flight pipeline (re-attesting under a
  // fresh transfer id; the request nonce makes re-ships exactly-once end
  // to end).  Terminal failures are held until the library polls them
  // (kPollTransfer), mapping onto the existing retry classification.  A
  // blocking kMigrateRequest runs the same steps over rpc inside its
  // handler and answers from the task's end state.

  /// Re-issues the next step of every task that is not awaiting a reply
  /// (freshly queued, restored from the durable queue after a restart, or
  /// whose conversation collapsed).  Drive this alongside
  /// Network::pump_one().
  void pump();

  /// Live source-side attempts of both transfer modes.
  size_t transfer_task_count() const { return transfer_tasks_.size(); }
  /// DurableQueue::memory_bytes of this ME's queue.
  size_t queue_memory_bytes() const { return DurableQueue::memory_bytes(); }

  /// Pre-copy transport.  Both transports merge at the SOURCE ME first
  /// (a round writes no queue) and then run the same ship steps.
  /// Async: the steps post through Network::post/pump() — kPrecopyRound is
  /// acked at once and kPrecopyFinalizeReq answers kMigrateQueued, so hops
  /// of different enclaves overlap on every lane and the frozen library
  /// polls the finalize's fate.  Sync (the default): the steps run over
  /// rpc inside the handler, which replies with their outcome; a round
  /// gets one attempt (re-attesting once if the destination forgot the
  /// conversation), a finalize the ship budget.
  void set_async_precopy(bool on) { async_precopy_ = on; }
  bool async_precopy() const { return async_precopy_; }

  /// Test hook: simulates an ME re-deployment without a process restart —
  /// cached-resume peers must fall back to a full handshake.
  void bump_instance_epoch();
  uint64_t instance_epoch() const { return instance_epoch_; }

  /// Handshake economics (bench observables): full mutual-RA handshakes
  /// completed as the INITIATOR vs. one-round-trip cached resumes.
  uint64_t full_handshake_count() const { return full_handshakes_; }
  uint64_t resumed_handshake_count() const { return resumed_handshakes_; }
  size_t peer_session_count() const { return peer_sessions_.size(); }

  /// Ages out pre-copy state nobody will finish, untouched for
  /// kPrecopyStagingMaxAge: destination-side staged records whose source
  /// stopped shipping rounds (abandoned without a reachable abort path),
  /// and source-side pre-copy tasks with no staged finalize and nothing in
  /// flight whose library stopped calling (a resumed finalize the
  /// destination refused leaves one behind when its library is gone).
  /// Runs one sweep now; returns how many records and tasks it expired.
  /// Also run opportunistically (rate-limited) on any inbound request.
  size_t sweep_stale_precopy_staging();

  /// Optional machine-level policy: if non-empty, incoming migrations are
  /// only accepted from source machines in these regions.
  void set_allowed_source_regions(std::vector<std::string> regions) {
    allowed_source_regions_ = std::move(regions);
  }

  // ----- durable transfer queue -----

  /// OCALL handing the sealed queue snapshot to the untrusted host for
  /// storage (the host should write it with UntrustedStore::put_versioned
  /// so a torn write cannot destroy the only copy).  A failed write fails
  /// the queue transition that made it.
  using QueuePersistCallback = std::function<Status(ByteView sealed_queue)>;
  void set_queue_persist_callback(QueuePersistCallback callback) {
    queue_persist_callback_ = std::move(callback);
  }

  /// Restores the transfer queue from a previously persisted snapshot.
  /// Call once, right after construction of a restarted ME, before it
  /// serves requests.  Delivery pins and LA sessions are not restored:
  /// pending data is re-armed for whichever matching enclave attests next.
  Status restore_queue(ByteView sealed_queue);

  /// Latest sealed queue snapshot (what the persist OCALL last stored).
  const Bytes& sealed_queue_state() const { return sealed_queue_state_; }

  /// Re-sends DONE confirmations whose delivery previously failed (source
  /// ME unreachable / restarting).  Returns how many are still unrelayed.
  /// Also retried opportunistically whenever the ME handles any request.
  size_t retry_done_relays();

  /// Reconciliation sweep for ONE undelivered incoming record, staged or
  /// assembled (the lost-ACCEPTED re-route orphan, or a pre-copy attempt
  /// whose abort was lost): asks the record's originating source ME —
  /// over a fresh mutually attested channel — whether that logical
  /// migration is still live.  If the source ME reports the identity
  /// completed a NEWER transfer (and knows nothing live about this
  /// nonce), the stale record (pre-migration state a future instance must
  /// never fetch) is expired, clearing the kAlreadyExists block for this
  /// enclave->machine pair.  Returns kOk when the record was expired,
  /// kMigrationInProgress when the source considers it live (or could not
  /// vouch), kNoPendingMigration when there is nothing to reconcile.  Also
  /// invoked automatically when an arriving record of another migration
  /// is blocked by an undelivered assembled record.
  Status reconcile_pending(const sgx::Measurement& mr);

  /// Post-storm queue janitors (chaos harness + recovery drills).  A
  /// fault storm can strand queue entries whose normal cleanup message
  /// was itself lost: re-routed attempts whose abort never reached this
  /// ME, and incoming records whose lost-ACCEPTED or lost-abort reconcile
  /// only runs when a NEW record collides with them.  Both sweeps act only
  /// on POSITIVE evidence and leave anything ambiguous retained (§V-D).
  ///
  /// reconcile_all_pending: one reconcile_pending sweep (same rate
  /// limit) over every undelivered incoming record, staged or assembled;
  /// returns how many records remain afterwards.
  size_t reconcile_all_pending();
  /// sweep_superseded_outgoing: expires retained outgoing transfers and
  /// transfer tasks (of both modes) whose enclave identity verifiably
  /// completed a NEWER migration from this ME (a completion record under
  /// a different nonce, none under the entry's own).  Returns how many
  /// entries were expired.
  size_t sweep_superseded_outgoing();

  /// How long a delivery pin on pending incoming data survives without
  /// the pinned LA session showing activity.  After the timeout a NEW
  /// attested session of the same MRENCLAVE may re-arm the delivery (the
  /// pinned destination instance is presumed dead — the re-fetch path of
  /// a crashed destination enclave).  This is an explicit
  /// availability-vs-fork dial: an instance that fetched but is merely
  /// SLOW past the timeout still holds the data, so a takeover hands a
  /// second copy to the replacement (the revoked session blocks the old
  /// instance's confirm, not its memory).  Duration::max() restores the
  /// paper-strict unconditional pin (never fork, possibly stuck forever).
  void set_delivery_takeover_timeout(Duration timeout) {
    delivery_takeover_timeout_ = timeout;
  }
  Duration delivery_takeover_timeout() const {
    return delivery_takeover_timeout_;
  }

  // ----- introspection (used by tests and the bench harness) -----
  /// Assembled incoming records (fetchable, awaiting their confirm).
  size_t pending_incoming_count() const;
  /// Live (retained, not yet confirmed) outgoing transfers.  Confirmed
  /// transfers are erased from the queue; only a compact per-identity
  /// completion record remains.
  size_t outgoing_count() const { return outgoing_.size(); }
  size_t la_session_count() const { return la_sessions_.size(); }
  size_t unrelayed_done_count() const { return done_relays_.size(); }
  OutgoingState outgoing_state(const sgx::Measurement& mr) const;
  /// Pre-copy attempts staged on this ME as the DESTINATION side (not yet
  /// assembled by their finalize).
  size_t precopy_staging_count() const;

  /// Caps the FIFO-bounded completed-outgoing and confirmed-incoming
  /// histories (the exactly-once dedup retention).  0 restores the
  /// library default; values above the default are clamped to it, so a
  /// restored durable queue always passes the serialization tamper
  /// check.  Shrinking trims the oldest entries immediately.
  void set_completed_history_limit(size_t limit);
  /// Retained completed-outgoing records (memory-bound observable).
  size_t completed_history_size() const { return completed_outgoing_.size(); }
  /// Retained confirmed-incoming records (memory-bound observable).
  size_t confirmed_incoming_size() const { return confirmed_incoming_.size(); }

 private:
  struct LaSessionState {
    std::unique_ptr<sgx::DhSession> dh;
    std::optional<net::SecureChannel> channel;
    sgx::EnclaveIdentity peer;
    Duration last_used{};  // virtual time; drives delivery-pin takeover
  };
  /// Responder-side resume acceptor, keyed by initiator address.  Kept in
  /// MEMORY ONLY by design: an ME restart forgets it, so every cached
  /// peer is forced back to the full handshake (restart = fresh epoch
  /// anyway).  Region/address are the already-verified provider facts the
  /// full handshake established — a resumed InboundTransfer reuses them.
  struct ResumeAcceptor {
    sgx::Key128 master_key{};
    std::string source_region;
    std::string source_address;
  };

  // outer-envelope handlers
  MeResponse on_la_start(const MeRequest& req);
  MeResponse on_la_msg2(const MeRequest& req);
  MeResponse on_la_record(const MeRequest& req);
  MeResponse on_ra_msg1(const MeRequest& req);
  MeResponse on_ra_msg3(const MeRequest& req);
  MeResponse on_transfer(const MeRequest& req);
  MeResponse on_done(const MeRequest& req);
  MeResponse on_precopy_chunk(const MeRequest& req);
  MeResponse on_precopy_finalize(const MeRequest& req);
  MeResponse on_reconcile(const MeRequest& req);
  /// The janitors' supersede criterion for attempt `nonce` of `mr`:
  /// positive evidence that the identity completed a transfer under
  /// another nonce, and none that this attempt completed.  Reads the
  /// capped completion history, and the per-identity index when its
  /// completed transfer is newer than `sequence`: the attempt's retained
  /// transfer, 0 for an attempt not live here, UINT64_MAX for one still
  /// queued or pre-copying (newer than any retained transfer).
  bool superseded_by_completion(const sgx::Measurement& mr, uint64_t nonce,
                                uint64_t sequence) const;
  MeResponse on_abort(const MeRequest& req);
  MeResponse on_session_resume(const MeRequest& req);

  // ----- inner LibMsg handlers (authenticated via the LA channel) -----
  // on_la_record is the one front door: it decodes each request's
  // payload through serve, and sends a handler's refusal (or a malformed
  // payload's kTampered) as the one kError reply.

  /// The library a request came from: its LA session id and the
  /// MRENCLAVE that session attested.  Copied, not referenced: a nested
  /// rpc can re-enter handle_request and erase sessions.
  struct LibCaller {
    uint64_t session_id = 0;
    sgx::Measurement mr{};
  };
  /// A handler's reply, or the status the front door refuses with.
  using LibReply = Result<LibMsg>;
  template <typename Payload>
  using LibHandler = LibReply (MigrationEnclave::*)(const LibCaller&,
                                                    Payload);
  /// Decodes `payload` as the handler's request record (kTampered when
  /// malformed) and runs the handler on it.
  template <typename Payload>
  LibReply serve(LibHandler<Payload> handler, const LibCaller& from,
                 ByteView payload);
  LibReply on_migrate_request(const LibCaller& from,
                              MigrateRequestPayload request);
  LibReply on_fetch_incoming(const LibCaller& from);
  /// Names the attempt staged (or assembled) for the caller's identity
  /// and its active slots, for a warm destination instance.
  LibReply on_warm_incoming(const LibCaller& from);
  LibReply on_confirm_migration(const LibCaller& from, ConfirmPayload confirm);
  LibReply on_query_status(const LibCaller& from, NoncePayload query);
  LibReply on_precopy_round(const LibCaller& from, PrecopyRoundPayload round);
  LibReply on_precopy_finalize_req(const LibCaller& from,
                                   PrecopyFinalizePayload fin);
  LibReply on_migrate_enqueue(const LibCaller& from,
                              MigrateRequestPayload request);
  LibReply on_migrate_reserve(const LibCaller& from,
                              MigrateReservePayload reservation);
  LibReply on_migrate_arm(const LibCaller& from, MigrateRequestPayload request);
  LibReply on_poll_transfer(const LibCaller& from, NoncePayload poll);
  LibReply on_abort_stale(const LibCaller& from, AbortStalePayload abort);

  // ----- outgoing step machine (TransferTask, both modes) -----
  // A step that sends returns kOk once posted, or, run inline, the
  // outcome its continuation chain ended in.
  using StepContinuation = std::function<Status(Result<Bytes> reply)>;
  /// The one send seam of the step machine.  A deferred step posts `req`
  /// to `destination`'s ME and runs `next` under a fresh ecall when the
  /// reply lands; an inline step rpcs and runs `next` at once, inside the
  /// caller's ecall (no extra transition charge).
  Status send_step(bool inline_step, const std::string& destination,
                   const MeRequest& req, StepContinuation next);
  /// Shared body of kMigrateEnqueue and (armed = false) kMigrateReserve:
  /// validates, dedups, re-queues a same-nonce task, or queues a new
  /// durable one and kicks it.
  LibReply queue_task(const sgx::Measurement& mr,
                      MigrateRequestPayload request, bool armed);
  /// Paper Listing 1's blocking start: creates (or takes over) the task
  /// for the request's nonce, drives it inline to retained or failed, and
  /// returns that outcome with the task gone.  `source_mr` by value: the
  /// nested rpcs can re-enter handle_request (a peer ME's DONE-relay
  /// retry) and erase the session a reference would point into.
  Status run_blocking_task(sgx::Measurement source_mr,
                           MigrateRequestPayload request);
  /// Front-of-queue validation + dedup: kOk when (source_mr, nonce,
  /// destination) is already retained (re-fenced) or completed (the poll
  /// will report kAccepted), kNoPendingMigration when it is unknown.
  Status dedup_against_queue(const sgx::Measurement& source_mr,
                             uint64_t nonce,
                             const std::string& destination_address);
  /// Fate of one attempt (identity + request nonce) in the source-side
  /// queue: kPending while retained (to `destination`, when given),
  /// kCompleted once DONE, else kNone.
  OutgoingState attempt_state(const sgx::Measurement& mr, uint64_t nonce,
                              const std::string* destination = nullptr) const;
  /// Starts the attest of one kQueued task (-> kAttesting): one
  /// attest_peer run, deferred or (blocking task) inline, whose steps
  /// trace as the task's await-resume / await-ra-msg2 / await-auth and
  /// land in task_attested while the task still attests under that
  /// transfer id.
  Status kick_task(uint64_t nonce);
  Status task_on_accept(uint64_t nonce, Result<Bytes> raw);
  /// The one success tail of both transfer modes: the destination
  /// accepted, so the task dissolves into a retained transfer of
  /// `retained_data` until DONE (paper §V-D) — a fresh sequence, the
  /// per-identity index marked kPending — and, when `persist`, the queue
  /// is persisted.  A failed persist unwinds the retained entry and
  /// reinstates the task without its channel; the caller applies its
  /// mode's failure rule.  Without `persist` (an async finalize, whose
  /// shipped record is already durable) the next queue commit of any kind
  /// makes the entry durable.
  Status retain_task(uint64_t nonce, Bytes retained_data, bool persist = true);
  /// Drops a retained transfer that will never see its DONE: wipes the
  /// copy and the per-identity index entry still pointing at it (a
  /// dangling kPending there is never evicted).  Returns the next entry.
  OutgoingMap::iterator drop_outgoing(OutgoingMap::iterator it);
  /// Post-attestation landing shared by the full and resumed paths:
  /// armed tasks ship the sealed TransferPayload (-> kAwaitAccept),
  /// reserve-mode tasks park slot-live (-> kAwaitArm).
  Status task_attested(uint64_t nonce, TransferTask& task);
  /// Seals + sends the task's TransferPayload (the tail of task_attested,
  /// shared with on_migrate_arm) -> kAwaitAccept.
  Status ship_task_payload(uint64_t nonce, TransferTask& task);
  /// Sends the next sealed round record of one idle attempt with unacked
  /// merged chunks (or a full resync set), or its staged finalize; no-op
  /// when nothing is dirty.
  Status kick_precopy_ship(uint64_t nonce);
  Status precopy_on_round_ack(uint64_t nonce, uint64_t transfer_id,
                              const std::vector<ChunkManifestEntry>& shipped,
                              Result<Bytes> raw);
  /// Sends the staged finalize record (everything merged beyond the acked
  /// front rides along); re-attests first if the channel was dropped.
  /// Async: then persists the resumable finalize record while the record
  /// travels; a failed persist fails the ship like a failed hop.
  Status kick_precopy_finalize(uint64_t nonce);
  /// A finalize ack retains the copy the destination assembled (the
  /// merged chunks + manifest) through retain_task: in memory only under
  /// the async transport, whose ship already persisted the record.
  Status precopy_on_finalize_ack(uint64_t nonce, uint64_t transfer_id,
                                 Result<Bytes> raw);
  /// A pre-copy hop failed (its ack, the persist of a shipped async
  /// finalize, or the retain after a sync finalize's ack): the channel
  /// may have desynced, so drop it; the next kick
  /// re-attests and re-ships the whole merged set.  A finalize also
  /// spends one unit of its ship budget and persists (a hand back drops
  /// the staged finalize); a round writes nothing.  Returns `failure`.
  Status precopy_ship_failed(TransferTask& task, Status failure,
                             bool finalize);
  /// Parses a pumped MeResponse reply; non-kOk peers and transport
  /// failures collapse to a Status.
  static Result<Bytes> open_task_reply(const Result<Bytes>& raw);
  /// Opens a reply sealed under `channel` that must be exactly `marker`
  /// (a missing channel is kInvalidState, another record kTampered).
  static Status open_sealed_ack(const Result<Bytes>& raw,
                                std::optional<net::SecureChannel>& channel,
                                std::string_view marker);
  /// Marks the task kFailed with `status` (held for the poll); returns it.
  Status fail_task(uint64_t nonce, Status status);
  /// cancel_posts tag + reply-lane key for this ME's deferred traffic.
  std::string net_endpoint() const;

  /// Proactively tells the orphaned destination of an abandoned attempt
  /// (re-route) to expire its undelivered entry; best-effort.
  Status abort_remote_pending(const sgx::Measurement& source_mr,
                              uint64_t nonce,
                              const std::string& destination_address);

  /// One attested one-shot query (kAbort, kReconcile): attests `peer`
  /// inline, seals `request` for the fresh conversation and returns the
  /// peer's sealed `Reply` record.
  template <typename Reply>
  Result<Reply> attested_query(const std::string& peer, MeMsgType type,
                               const Bytes& request);

  // ----- ME<->ME attestation: one chain, four callers -----
  // kick_task (deferred, or inline for a blocking task); inline: the
  // pre-copy first contact (precopy_attempt) and the kAbort and
  // kReconcile queries (attested_query).

  /// Caller hooks of one run.  `on_step` fires before each message with
  /// the run's transfer id and the step it enters ("await-resume",
  /// "await-ra-msg2", "await-auth"), or "requeued" when a refused resume
  /// restarts the run; `live` is asked on every reply — false ends the
  /// run silently.  The sync callers leave both empty.
  struct AttestHooks {
    std::function<void(uint64_t transfer_id, const char* step)> on_step;
    std::function<bool(uint64_t transfer_id)> live;
  };
  /// End of a run: its transfer id and the initiator channel keyed for
  /// it, or the failure that ended the run.
  using AttestContinuation = std::function<Status(
      uint64_t transfer_id, Result<net::SecureChannel> channel)>;
  struct AttestRun {
    bool inline_step = false;
    std::string destination;
    MigrationPolicy policy;
    AttestHooks hooks;
    AttestContinuation done;
    uint64_t transfer_id = 0;
    std::unique_ptr<sgx::RaSession> ra{};
    std::array<uint8_t, 16> resume_nonce{};
  };
  using AttestRunPtr = std::shared_ptr<AttestRun>;
  using AttestStep = Status (MigrationEnclave::*)(const AttestRunPtr&,
                                                  Result<Bytes>);
  /// The one ME<->ME handshake: draws a transfer id that collides with no
  /// live conversation, then resumes the cached peer session or runs RA
  /// msg1 -> msg2 -> msg3 with provider auth, evaluating `policy` against
  /// the provider-certified credential either way, and caches a full
  /// handshake's session.  A resume lost on the wire ends the run and
  /// keeps the cache; a refused one retires the entry and re-handshakes
  /// under a fresh transfer id.  Returns kOk once posted, or, inline,
  /// what `done` returned.
  Status attest_peer(bool inline_step, const std::string& destination,
                     const MigrationPolicy& policy, AttestHooks hooks,
                     AttestContinuation done);
  Status attest_begin(const AttestRunPtr& run);
  /// send_step for one handshake message: reports `step` to on_step and
  /// hands the reply to `next` while the caller still wants it.
  Status attest_send(const AttestRunPtr& run, const MeRequest& req,
                     const char* step, AttestStep next);
  Status attest_on_resume(const AttestRunPtr& run, Result<Bytes> raw);
  Status attest_on_ra_msg2(const AttestRunPtr& run, Result<Bytes> raw);
  Status attest_on_auth(const AttestRunPtr& run, Result<Bytes> raw);

  /// The one nonce rule of the outgoing map, for both modes: the task
  /// holding `nonce`, or nullptr when none does.  A nonce binds one
  /// identity (a foreign collision is kAlreadyExists), one destination
  /// and one mode (kInvalidParameter); a zero nonce is kInvalidParameter.
  Result<TransferTask*> find_task(const sgx::Measurement& mr, uint64_t nonce,
                                  const std::string& destination,
                                  bool precopy);
  /// find_task, or a fresh task for (identity, destination, mode) when
  /// none holds the nonce; this machine as destination is
  /// kInvalidParameter.  `created` reports whether the task is fresh.
  Result<TransferTask*> find_or_create_task(const sgx::Measurement& mr,
                                            uint64_t nonce,
                                            const std::string& destination,
                                            bool precopy,
                                            bool* created = nullptr);
  /// The pre-copy entry of find_or_create_task: re-attests inline (fresh
  /// transfer id + resync) when the channel is missing or was dropped
  /// after a failed send.
  Result<TransferTask*> precopy_attempt(const sgx::Measurement& source_mr,
                                        const std::string& destination,
                                        uint64_t nonce,
                                        const MigrationPolicy& policy);

  /// The one-per-identity rule for an arriving transfer, chunk or
  /// finalize record of (nonce, source) on conversation `transfer_id`.
  /// The same migration keeps its record and rebinds it to the
  /// conversation; a foreign staged record is dropped; a foreign assembled
  /// one gets the rate-limited reconcile; a delivered one blocks
  /// (kAlreadyExists).  A zero nonce is kInvalidParameter.  Returns the
  /// record to merge into or assemble, fresh and staged when none was held.
  Result<IncomingRecord*> claim_incoming(const sgx::Measurement& mr,
                                         uint64_t nonce,
                                         const std::string& source_me_address,
                                         uint64_t transfer_id);
  /// The one expiry step: drops an undelivered record with its inbound
  /// conversation (but never `live_transfer_id`, the one the caller still
  /// answers on).  A delivered record is never dropped: returns false.
  /// The caller persists.
  bool expire_incoming(IncomingMap::iterator it,
                       uint64_t live_transfer_id = 0);
  /// The one record opener of the peer handlers: the authenticated
  /// inbound conversation `req.id`, its sealed record opened (and priced
  /// as bulk GCM when `charge`) and parsed as a `Record`.
  template <typename Record>
  struct OpenedRecord {
    InboundTransfer* inbound = nullptr;
    Record record;
  };
  template <typename Record>
  Result<OpenedRecord<Record>> open_inbound_record(const MeRequest& req,
                                                   bool charge);
  /// The one path of the records that carry migration data (kTransfer,
  /// kPrecopyChunk, kPrecopyFinalize): open, claim the identity's
  /// incoming record, `apply` the record to it, seal `ack`, and persist
  /// before the ack leaves.  A refusal of `apply` is the reply's status.
  /// A transfer or finalize (the records that assemble) of a migration
  /// this ME already confirmed is acked with no record, and its DONE is
  /// queued on the new conversation.  A resumed finalize that finds
  /// neither its record nor its confirm is refused (kNoPendingMigration).
  template <typename Record, typename Apply>
  MeResponse accept_record(const MeRequest& req, std::string_view ack,
                           Apply apply);
  /// The one tail of the one-shot queries (kAbort, kReconcile): opens the
  /// AttemptRef, seals the record `answer` returns for it, and ends the
  /// conversation.
  template <typename Answer>
  MeResponse answer_query(const MeRequest& req, Answer answer);

  /// Verifies the peer ME's provider authentication for a transcript.
  Status verify_provider_auth(const ProviderAuth& auth,
                              const std::array<uint8_t, 32>& transcript,
                              const std::string& expected_address,
                              std::string* region_out);

  ProviderAuth make_provider_auth(const std::array<uint8_t, 32>& transcript);

  uint64_t fresh_id();
  /// Effective completed/confirmed history cap (override or default).
  size_t history_limit() const;
  /// Records a confirmed outgoing transfer in the bounded history.
  void record_completed(uint64_t transfer_id, const OutgoingTransfer& t);
  /// Drops LA sessions whose peer measurement matches `mr` (the instance
  /// behind them is frozen/retired; a live library simply re-attests).
  void drop_sessions_for(const sgx::Measurement& mr);

  // ----- durable queue internals -----
  /// Seals the queue and hands it to the persist OCALL.
  Status commit_state();
  /// Makes one queue transition durable (commit_state in a
  /// `persist.fence` span); `nonce` (0 when none) is the attempt whose
  /// trace shows it.
  Status persist_queue(uint64_t nonce = 0);

  crypto::Ed25519KeyPair machine_key_;
  platform::MachineCredential credential_;
  crypto::Ed25519PublicKey provider_ca_key_{};
  std::vector<std::string> allowed_source_regions_;

  std::map<uint64_t, LaSessionState> la_sessions_;
  /// Effective history cap; set once from the library default (or an
  /// operator override via set_completed_history_limit) in the .cpp.
  size_t completed_history_limit_ = 0;  // 0 = library default
  // Responder side of the cached attestation sessions: memory-only
  // (restart forgets -> full re-handshake).
  std::map<std::string, ResumeAcceptor> resume_acceptors_;
  uint64_t instance_epoch_ = 0;
  uint64_t full_handshakes_ = 0;
  uint64_t resumed_handshakes_ = 0;
  bool async_precopy_ = false;

  std::optional<sgx::SealContext> queue_seal_ctx_;
  Bytes sealed_queue_state_;
  QueuePersistCallback queue_persist_callback_;
  // Default above the worst-case legitimate fetch->confirm gap: a full
  // restore creates up to 256 hardware counters at counter_create cost
  // (~250ms each, see cost_model.h) before the confirm is sent, so only
  // instances idle far beyond that are ever presumed dead.
  Duration delivery_takeover_timeout_ = seconds(120);
  // Opportunistic relay retries are rate-limited on the virtual clock so
  // a down source ME does not tax every unrelated request with one
  // doomed RPC per backlog entry.
  Duration relay_retry_interval_ = milliseconds(250);
  // Same idea for reconciliation sweeps against a still-live pending
  // entry (the common same-image serialization case).
  Duration reconcile_retry_interval_ = milliseconds(250);
  Duration last_relay_retry_{};
  bool retrying_relays_ = false;
  Duration last_staging_sweep_{};
  // LA session currently being serviced by on_la_record: protected from
  // drop_sessions_for so a reentrant DONE (arriving over a nested rpc)
  // cannot erase the session mid-dispatch.
  uint64_t active_la_session_ = 0;
};

/// Builds a Machine management-enclave factory producing a standard-image
/// ME with its durable transfer queue wired to the machine's untrusted
/// store (versioned two-slot writes, key "<address>.me-queue").  A
/// restarted ME restores the queue before serving; install fleet-wide via
/// World::install_management_enclaves.  `configure`, when set, runs on
/// every instance the factory builds (after the queue restore), so ME
/// settings survive a kill/restart.
platform::Machine::MgmtEnclaveFactory durable_me_factory(
    platform::ProviderCa& provider,
    std::function<void(MigrationEnclave&)> configure = {});

/// Typed accessor for a machine's management enclave; nullptr when none
/// is installed or it is not a MigrationEnclave.
MigrationEnclave* me_on(platform::Machine& machine);

}  // namespace sgxmig::migration
