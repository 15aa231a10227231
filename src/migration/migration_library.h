// The Migration Library (ML) — paper §V-C / §VI-B.
//
// Linked into every migratable enclave (same protection domain — the host
// enclave grants it friend access to its trusted runtime).  It provides:
//
//  * MIGRATABLE SEALING: instead of the CPU-bound sealing key, data is
//    sealed under a Migration Sealing Key (MSK) generated once per enclave
//    lifetime.  The MSK itself is sealed with the standard (machine-bound)
//    sealing key inside the library's persistent buffer and travels to the
//    destination only through attested Migration Enclaves.
//
//  * MIGRATABLE COUNTERS: wrappers over the SGX monotonic counters that
//    add a per-counter OFFSET.  effective = offset + hardware value.  On
//    migration the source sends effective values; the destination stores
//    them as offsets over fresh (zero) hardware counters — constant-time
//    counter migration regardless of counter value (§VI-B), the design
//    choice benchmarked in bench/ablation_counter_offset.cpp.
//    Application code addresses counters by a small library-assigned id
//    instead of the SGX UUID (the only API change vs. the SDK).
//
//  * THE MIGRATION PROTOCOL CLIENT: local attestation of the ME, the
//    freeze flag, counter destruction before data leaves the machine, and
//    the incoming-migration restore path.
//
// Crash-consistency note: the library re-seals and persists its internal
// buffer (Table II) inside every *mutating* counter operation — losing
// the UUID table or offsets would permanently strand the enclave's
// counters.  Every mutation is sealed and handed to the persist OCALL
// before the operation returns — one seal + OCALL per mutation, the
// mechanistic source of the small overhead on create/increment/destroy in
// Fig. 3 (≤ ~12%); reads touch no state and show no significant overhead.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "migration/library_state.h"
#include "migration/protocol.h"
#include "net/channel.h"
#include "sgx/enclave.h"

namespace sgxmig::obs {
struct Observability;
class TraceRecorder;
}  // namespace sgxmig::obs

namespace sgxmig::migration {

/// Paper Fig. 1: how the enclave is being initialized.
enum class InitState : uint8_t {
  kNew = 1,      // first-ever start: generate a fresh MSK
  kRestore = 2,  // restart on the same machine: reload the sealed buffer
  kMigrate = 3,  // start on the destination machine: fetch incoming data
};

struct CreatedMigratableCounter {
  uint32_t counter_id = 0;  // library-assigned id (not the SGX UUID)
  uint32_t value = 0;       // effective value (starts at 0)
};

/// Convergence policy for iterative pre-copy, mirroring
/// vm::LiveMigrationEngine (kMaxPrecopyRounds / stop-and-copy threshold):
/// keep shipping dirty-chunk rounds while the enclave runs, freeze once
/// the delta is small enough or the round budget is spent.
constexpr uint32_t kPrecopyMaxRounds = 8;
/// A round that ships this many chunks or fewer is converged (the
/// remaining delta is cheap enough to move inside the freeze).
constexpr uint32_t kPrecopyMinDeltaChunks = 1;

/// Outcome of one pre-copy round.
struct PrecopyRoundReport {
  uint32_t round = 0;           // 0-based round index just shipped
  uint32_t chunks_shipped = 0;  // dirty chunks moved this round
  uint64_t bytes_shipped = 0;   // serialized payload bytes this round

  bool converged() const {
    return chunks_shipped <= kPrecopyMinDeltaChunks ||
           round + 1 >= kPrecopyMaxRounds;
  }
};

/// Coarse classification of a migration_start failure, so callers driving
/// many migrations (the fleet orchestrator) can decide mechanically
/// whether retrying — possibly against another destination — can help.
enum class MigrationFailureClass : uint8_t {
  kNone = 0,          // no failure
  kRetryableNetwork,  // transient transport loss/corruption: retry
  kRetryableBusy,     // a service or the destination ME is busy: back off
  kFatalPolicy,       // migration policy denied this destination
  kFatalState,        // the library cannot migrate in its current state
  kFatalInternal,     // attestation/crypto/internal failure: do not retry
};

const char* migration_failure_class_name(MigrationFailureClass cls);
bool migration_failure_is_retryable(MigrationFailureClass cls);

/// Maps a Status from the migration_start path to a failure class.
MigrationFailureClass classify_migration_failure(Status status);

/// Structured outcome of migration_start: the bare Status plus a failure
/// class and a message naming the protocol step that failed.
struct MigrationStartResult {
  Status status = Status::kOk;
  MigrationFailureClass failure_class = MigrationFailureClass::kNone;
  std::string message;  // empty on success

  bool ok() const { return status == Status::kOk; }
  bool retryable() const {
    return migration_failure_is_retryable(failure_class);
  }
};

class MigrationLibrary {
 public:
  /// `host` is the enclave embedding this library.
  /// `live_transfer_capable` makes the library create an epoch-guard
  /// hardware counter at init (kNew / kMigrate) — the prerequisite for
  /// iterative pre-copy migration, and a one-counter cost on init plus one
  /// hardware-counter read on restore.  Off by default: legacy enclaves
  /// keep the paper's exact init costs and full-snapshot migration
  /// semantics.
  explicit MigrationLibrary(sgx::Enclave& host,
                            bool live_transfer_capable = false);

  /// OCALL the library uses to hand its sealed persistent buffer to the
  /// untrusted application for storage (invoked on mutating counter ops
  /// and migration events; after migration_init the application should
  /// store sealed_state() itself).
  /// The buffer is shared, not copied: a callback that keeps it (the
  /// untrusted store does) holds the same allocation as sealed_state().
  using PersistCallback = std::function<void(const SharedBytes& sealed_state)>;
  void set_persist_callback(PersistCallback callback) {
    persist_callback_ = std::move(callback);
  }

  // ----- Listing 1: interface for the untrusted application -----

  /// Initializes the library.  `state_buffer` is the previously stored
  /// sealed buffer for kRestore (ignored otherwise).  Refuses to operate
  /// if the restored buffer carries the freeze flag (the enclave was
  /// migrated away).  For kMigrate, contacts the local ME and applies the
  /// incoming migration data.
  Status migration_init(ByteView state_buffer, InitState init_state,
                        const std::string& me_address);

  /// Starts a migration to `destination_address`: freezes the library,
  /// collects effective counter values, DESTROYS the hardware counters,
  /// sets + persists the freeze flag, and hands the migration data to the
  /// local ME.  `policy` optionally constrains the destination (§X
  /// extension); it is enforced by the source ME against the
  /// destination's certified attributes.  On failure the collected data
  /// stays staged so the application can retry with another destination.
  Status migration_start(const std::string& destination_address,
                         MigrationPolicy policy = {});

  /// Like migration_start, but reports a structured failure (class +
  /// message naming the failing protocol step) instead of a bare Status.
  MigrationStartResult migration_start_detailed(
      const std::string& destination_address, MigrationPolicy policy = {});

  // ----- pipelined (non-blocking) migration start -----
  //
  // The blocking migration_start holds the caller for the whole ME<->ME
  // conversation, so a fleet driver can only overlap transfers by
  // spending one thread each.  The enqueue/poll pair instead hands the
  // staged snapshot to the local ME's TransferTask pipeline and returns;
  // the ME interleaves every queued transfer over independent RA
  // channels, and the caller polls for the fate of exactly this attempt.

  /// Runs the same destructive prologue as migration_start (freeze,
  /// collect, destroy counters, persist the freeze flag) and queues the
  /// transfer at the local ME.  kOk means QUEUED — the migration is in
  /// flight until migration_poll_transfer reports its fate.  Failures
  /// are classified like migration_start and leave the staged data for a
  /// retry (possibly re-routed).
  MigrationStartResult migration_enqueue_detailed(
      const std::string& destination_address, MigrationPolicy policy = {});

  /// Freeze-aware variant of migration_enqueue_detailed: reserves a
  /// transfer slot at the local ME WITHOUT freezing — the enclave keeps
  /// mutating counters while the ME queues, attests the destination, and
  /// parks the slot.  Only when migration_poll_transfer observes
  /// kSlotLive does the library run the destructive freeze+collect and
  /// arm the payload, so a queued transfer waits live, not frozen.  If a
  /// previous attempt already froze (staged data exists), this degrades
  /// to migration_enqueue_detailed — the freeze already happened.
  MigrationStartResult migration_reserve_detailed(
      const std::string& destination_address, MigrationPolicy policy = {});

  /// Fate of the queued attempt: kOk = the destination accepted (the
  /// source side is done, metrics updated); status kMigrationInProgress
  /// with failure_class kNone = still in flight, poll again after
  /// pumping; anything else = terminal failure of THIS attempt,
  /// classified for the caller's retry machinery (staged data kept).
  /// For reserved (freeze-aware) attempts, the poll that observes
  /// kSlotLive runs the freeze+collect+arm step inline.
  MigrationStartResult migration_poll_transfer();

  /// True while an enqueued attempt is awaiting its poll verdict.
  bool transfer_enqueued() const {
    return attempt_ != nullptr && attempt_->queued;
  }

  // ----- live pre-copy migration (iterative, VM-live-migration style) ---
  //
  // Instead of freezing for the whole Table II snapshot, the caller ships
  // dirty chunks round by round while counter operations CONTINUE, then
  // freezes only for the final delta:
  //
  //   while (!report.converged()) report = migration_precopy_round(d);
  //   migration_finalize(d);
  //
  // Requires the live-transfer capability (epoch guard): finalize kills
  // the instance's counters and the epoch guard with ONE logical PSE
  // retire (one firmware journal entry) instead of a destroy per counter,
  // so the freeze window no longer grows with the number of active
  // counters.  The flash slots are reclaimed by the platform's background
  // sweep.

  /// Ships every Table II chunk dirtied since the last shipped round
  /// (round 0 ships all populated chunks) to `destination_address` via the
  /// local ME.  Mutations stay enabled throughout.  Switching destination
  /// mid-pre-copy restarts the attempt (fresh nonce, full re-ship).
  Result<PrecopyRoundReport> migration_precopy_round(
      const std::string& destination_address, MigrationPolicy policy = {});

  /// Freezes the library, collects the chunks dirtied since the last
  /// round, retires this instance's hardware counters and epoch guard in
  /// one PSE op (every previously sealed buffer is refused from then on),
  /// persists the freeze flag, and ships the delta plus the MSK.  The
  /// destination ME assembles the authoritative snapshot from its staged
  /// rounds + this delta (verified against a chunk manifest).  Works with
  /// zero prior rounds (pure stop-and-copy).
  MigrationStartResult migration_finalize_detailed(
      const std::string& destination_address, MigrationPolicy policy = {});
  Status migration_finalize(const std::string& destination_address,
                            MigrationPolicy policy = {});

  // ----- warm pre-copy destination -----
  //
  // Under the offset scheme (§VI-B) a fresh counter's starting value does
  // not matter, so a destination instance can create its counters before
  // the data arrives.  A warm instance asks its local ME which pre-copy
  // attempt is staged for its identity, creates one counter per slot the
  // staged rounds hold plus the epoch guard, and seals them under the
  // freeze flag: it holds no MSK and no offsets, serves no ops, and its
  // sealed buffer never restores.  migration_init(kMigrate) then applies
  // the attempt's data over the set; the data of any other attempt is
  // refused.

  /// Launches this (uninitialized) instance warm for the pre-copy attempt
  /// staged at `me_address`.  On failure nothing stays created.
  Status migration_warm_up(const std::string& me_address);
  /// Retires the warm set (one PSE retire) unless an init consumed it;
  /// the slots go to the platform's reclaim sweep.  No-op without one.
  Status retire_warm_set();
  /// The request nonce the warm set is bound to (0: none held).
  uint64_t warm_nonce() const { return warm_nonce_; }

  /// Asks the local ME for the state of this enclave's outgoing migration.
  Result<OutgoingState> query_migration_status();

  /// Asks the local ME for the fate of the CURRENT migration attempt
  /// (identified by its request nonce, in either transfer mode).  This is
  /// how a caller — or migration_start itself — distinguishes "the ME
  /// never saw my request" from "the ME accepted it but the reply (or the
  /// ME process) died": the latter returns kPending/kCompleted from the
  /// ME's durable transfer queue.  kNone when nothing is staged.
  Result<OutgoingState> query_staged_attempt_status();

  // ----- Listing 2: interface for the application enclave -----

  Result<Bytes> seal_migratable_data(ByteView additional_mac_text,
                                     ByteView text_to_encrypt);
  Result<sgx::UnsealedData> unseal_migratable_data(ByteView sealed_blob);

  Result<CreatedMigratableCounter> create_migratable_counter();
  Status destroy_migratable_counter(uint32_t counter_id);
  Result<uint32_t> increment_migratable_counter(uint32_t counter_id);
  Result<uint32_t> read_migratable_counter(uint32_t counter_id);

  // ----- chaos drill plumbing (oracle self-tests only) -----
  /// FAULT-INJECTION DRILL: disables the anti-fork machinery of the
  /// pre-copy finalize path — the hardware counters and the epoch guard
  /// are NOT retired, so a stale pre-freeze sealed buffer restores into a
  /// usable second live instance (a fork).  Exists so the chaos fork
  /// oracle can be proven to catch the violation it guards against; never
  /// call outside such a drill.
  void chaos_disable_epoch_guard() { chaos_epoch_guard_disabled_ = true; }

  // ----- state inspection -----
  bool frozen() const { return runtime_frozen_; }
  /// True when this library can run the iterative pre-copy protocol (the
  /// epoch guard exists — capability requested at construction AND the
  /// state was initialized/restored with the guard present).
  bool live_transfer_capable() const { return state_.epoch_active != 0; }
  /// Virtual time the enclave spent frozen during its last successful
  /// outgoing migration: freeze instant -> transfer accepted by the local
  /// ME.  Zero until a migration succeeded.
  Duration last_freeze_window() const { return last_freeze_window_; }
  /// Serialized migration payload bytes of the last successful outgoing
  /// migration (all pre-copy rounds + finalize, or the full snapshot).
  uint64_t last_transfer_bytes() const { return last_transfer_bytes_; }
  /// Pre-copy rounds shipped before the last successful finalize (0 for a
  /// full-snapshot migration or a pure stop-and-copy finalize).
  uint32_t last_precopy_rounds() const { return last_precopy_rounds_; }
  /// Virtual time a reserved (freeze-aware) attempt waited LIVE between
  /// the reserve and its slot going live (freeze+arm).  Zero for
  /// freeze-at-enqueue attempts — their whole queue wait is freeze time.
  Duration last_enqueue_wait() const { return last_enqueue_wait_; }
  /// Latest sealed persistent buffer (Table II) for the application to
  /// store.
  const SharedBytes& sealed_state() const { return sealed_state_; }
  size_t active_counters() const { return state_.slots.size(); }
  /// Heap bytes of the resident Table II and of the open outgoing attempt
  /// (none when no attempt is open).  The sealed buffer is the store's.
  size_t memory_bytes() const;
  /// Dirty-tracking generation of Table II chunk `chunk` (0 until a slot
  /// in it is mutated by this instance).
  uint64_t chunk_generation(size_t chunk) const {
    return chunk_generation_[chunk];
  }

 private:
  /// Seals Table II and hands it to the persist OCALL.
  Status commit_state();
  /// Virtual time of the host platform.
  Duration now() const;

  // ----- observability helpers -----
  /// The world's trace/metrics bundle (null when not wired).
  obs::Observability* observability() const;
  /// The world's trace recorder when wired AND enabled; nullptr otherwise.
  obs::TraceRecorder* recorder() const;
  /// This enclave's machine address (the lane spans are attributed to).
  const std::string& lane() const;
  /// Ensures the attempt's root span ("migration", one per trace id) is
  /// open, binding `nonce` as the trace id of it and of an open freeze.
  void trace_attempt_root(uint64_t nonce);
  /// Opens the freeze span at freeze_started_ (trace id bound later if
  /// the nonce does not exist yet).
  void trace_freeze_begin();
  /// Closes the freeze span where last_freeze_window_ is computed, so the
  /// trace-derived window equals the reported one BY CONSTRUCTION.
  void trace_freeze_end();
  /// Ends `span` (if tracing and open) with an "outcome" argument.
  void close_span(uint64_t span, const char* outcome);
  /// Closes the attempt's spans and root on the accepted verdict.
  void trace_attempt_done(uint64_t nonce, uint64_t payload_bytes);

  /// Mutation that must be durable before returning (freeze flag, fresh
  /// counter UUIDs, a destroy): commit_state inside a `persist.fence` span
  /// whose `kind` argument is `kind`, counted in `persist.flush_fences`.
  Status persist_mutation_durable(const char* kind);

  Status ensure_me_channel();

  // ----- the outgoing attempt (§V-D), shared by both transfer modes -----
  /// True when the attempt froze and collected a payload of this mode.
  bool holds_frozen(bool precopy) const {
    return attempt_ != nullptr && attempt_->collected &&
           attempt_->precopy == precopy;
  }
  /// Entry prologue of every attempt: init and freeze checks, the LA
  /// channel, and the switch to (mode, destination).  An attempt that has
  /// collected nothing yet is discarded — its nonce aborted — when it
  /// changes mode or destination: the new one shares none of its state.
  MigrationStartResult open_attempt(const std::string& destination_address,
                                    bool precopy);
  /// The attempt's nonce toward `destination_address`: kept while the
  /// destination stays, otherwise drawn fresh, with a proactive abort of
  /// the nonce it supersedes.
  void claim_nonce(const std::string& destination_address);
  /// Freeze (metrics and the freeze span), then `collect` the payload; a
  /// failed collect undoes the freeze.
  MigrationStartResult freeze_and_collect(
      const std::function<Status()>& collect, const char* step);
  /// Persists the freeze flag once, durably, unless the guard is retired.
  MigrationStartResult persist_freeze_flag();
  /// Lost-reply check: did the ME retain (or complete) this attempt?
  bool attempt_landed();
  /// The full-snapshot front half: open, freeze + collect (once), nonce,
  /// counter destroys, freeze flag.  Idempotent across retries.
  MigrationStartResult stage_for_migration(
      const std::string& destination_address, MigrationPolicy policy);
  /// The staged snapshot as a `type` request (start, enqueue or arm).
  LibMsg snapshot_request(LibMsgType type);
  /// Best-effort proactive abort of a superseded attempt: tells the local
  /// ME that (nonce, old destination) was re-routed so the orphaned
  /// destination entry can be expired now instead of by the pull-based
  /// reconcile sweep.  Failures are ignored — the sweep remains the
  /// backstop.
  void notify_abort_stale(uint64_t nonce, const std::string& old_destination);
  /// The only success tail: freeze-window and payload metrics, the
  /// attempt cleared.
  void finish_outgoing();
  /// kSlotLive landing of a reserved attempt: records the live queue
  /// wait, runs the destructive stage (freeze+collect+destroy+persist)
  /// and ships the armed payload to the parked TransferTask.
  MigrationStartResult arm_reserved_slot();
  /// Shared body of the two status queries (nonce 0 = per-identity).
  Result<OutgoingState> query_status_internal(uint64_t nonce);
  /// Sends one LibMsg over the LA channel and returns the reply.
  Result<LibMsg> me_exchange(const LibMsg& request);
  /// Like me_exchange, but re-runs local attestation once if the ME lost
  /// the session (e.g. the management VM restarted) and retries.
  Result<LibMsg> me_exchange_reattest(const LibMsg& request);
  /// Seals the internal buffer and (optionally) OCALLs it out.
  Status persist(bool invoke_callback);
  /// The restore of both transfer modes: offsets over the warm set bound
  /// to `request_nonce` (kReplayDetected for another attempt's data),
  /// fresh counters for every active slot the set lacks, the set's unused
  /// counters retired, and one durable persist.
  Status apply_incoming(const MigrationData& data, uint64_t request_nonce);
  /// Appends slot `index` (above every active slot) over a fresh hardware
  /// counter, with `offset`.
  Status add_fresh_slot(uint32_t index, uint32_t offset);
  Result<MigrationData> collect_values();
  Status destroy_active_counters();
  /// The pre-copy teardown: one PSE retire over the active counters and
  /// the epoch guard.
  Status retire_active_counters();
  Status check_operational() const;
  /// The slot's hardware counter value: the cache when warm, otherwise
  /// one Platform Services read that fills it.
  Result<uint32_t> cached_hw_value(ActiveSlot& slot);

  // ----- pre-copy internals -----
  /// Stamps the chunk containing `slot` with the next mutation generation
  /// (piggybacked on every Table II mutation; drives dirty-chunk rounds).
  void note_slot_dirty(size_t slot);
  /// Creates the epoch-guard hardware counter (live-transfer capability).
  Status create_epoch_guard();
  /// Restore-time rollback check: the hardware epoch counter must still
  /// hold the value this buffer was sealed under.
  Status check_epoch_guard() const;
  /// Collects every chunk with generation > shipped generation; round 0
  /// (`include_all_populated`) also collects clean chunks holding active
  /// counters (e.g. restored state whose generations start at zero).
  /// Effective values come from the hardware-value cache where warm.
  Result<std::vector<CounterChunk>> collect_dirty_chunks(
      bool include_all_populated);
  /// Records `chunks` as held by the destination (shipped generations,
  /// merged staged set).
  void stage_chunks(const std::vector<CounterChunk>& chunks);
  /// Manifest of everything shipped so far (staged chunks, latest gens).
  std::vector<ChunkManifestEntry> staged_manifest() const;
  /// The whole merged staged set, for a finalize that re-ships it all.
  std::vector<CounterChunk> all_staged_chunks() const;

  sgx::Enclave& host_;
  // Sealing key derived once per library lifetime (one EGETKEY) and
  // reused for every Table II re-seal; see sgx::SealContext.
  std::optional<sgx::SealContext> seal_ctx_;
  // Table II, active slots only; sealed as the dense LibraryState.
  ResidentState state_;
  SharedBytes sealed_state_;
  PersistCallback persist_callback_;
  sgx::Measurement expected_me_mr_{};
  std::string me_address_;
  bool initialized_ = false;
  bool runtime_frozen_ = false;
  uint64_t la_session_id_ = 0;
  std::optional<net::SecureChannel> me_channel_;

  /// The in-flight outgoing migration, whichever transfer mode runs it.
  struct OutgoingAttempt {
    // Random identifier of the attempt, drawn per (attempt, destination)
    // and re-sent verbatim on retries TOWARD THE SAME DESTINATION.  The
    // ME stores it durably with the retained transfer, which makes the
    // request exactly-once (re-sends are deduplicated) and resumable (a
    // nonce-scoped status query reveals whether a lost reply — or a
    // restarted ME — actually accepted the transfer).  Re-routing draws a
    // FRESH nonce: a transfer that landed at the old destination must
    // never be mistaken for success toward the new one.
    uint64_t nonce = 0;
    std::string destination;
    // Kept so an internal re-enqueue or the arm re-ships under the SAME
    // constraints the caller staged.
    MigrationPolicy policy;
    // Acked pre-copy round bytes, and the last frozen payload shipped
    // (the snapshot, or the finalize record).
    uint64_t round_bytes = 0;
    uint64_t payload_bytes = 0;
    // Queued at the local ME: the poll owns the verdict.
    bool queued = false;
    bool precopy = false;
    // The payload was collected under the freeze (the enclave is frozen
    // for this attempt).
    bool collected = false;
    // Full-snapshot payload, collected under the freeze.  Held on the
    // heap, and only by an attempt that collected one, so that an idle
    // library does not carry a dense 256-slot record.
    std::unique_ptr<const MigrationData> snapshot;
    // Pre-copy payload: what the destination already holds, everything
    // shipped so far merged (the re-route / incomplete-staging fallback
    // re-ships this full set in one finalize), and the final delta
    // collected at freeze time (counter values become unreadable once the
    // in-freeze retire runs, so finalize retries resend this cache instead
    // of re-collecting).
    std::array<uint64_t, kPrecopyChunkCount> shipped_generation{};
    std::map<uint32_t, CounterChunk> staged_chunks;
    std::vector<CounterChunk> final_chunks;
    uint32_t rounds = 0;
  };
  // Held only while an attempt is open (from open_attempt to the accept),
  // so an idle or restored library carries none.
  std::unique_ptr<OutgoingAttempt> attempt_;
  // The source's hardware counters are dead: destroyed one by one (full
  // snapshot) or retired in one op (pre-copy).  Never torn down twice.
  bool counters_destroyed_ = false;
  // Set once the freeze flag has been durably persisted during an
  // outgoing migration.  Kept separate from counters_destroyed_ so a
  // retry after a failed persist still writes the flag (and a retry after
  // a failed ME exchange never re-destroys hardware counters).
  bool freeze_persisted_ = false;

  // ----- pre-copy state -----
  bool live_transfer_capable_ = false;
  // Nonce of the attempt the warm set in state_ is bound to; 0 once an
  // init consumed it, or when the instance never warmed.
  uint64_t warm_nonce_ = 0;
  // Dirty tracking: one monotonic generation per Table II chunk, stamped
  // from a global mutation counter on every create/destroy/increment and
  // restore-apply.  Always maintained (two array writes per mutation —
  // noise next to the seal + OCALL the same mutation already pays).
  uint64_t mutation_generation_ = 0;
  std::array<uint64_t, kPrecopyChunkCount> chunk_generation_{};
  // chaos_disable_epoch_guard() drill: skip the pre-copy counter retire
  // so the fork oracle has a real fork to catch.
  bool chaos_epoch_guard_disabled_ = false;

  // ----- per-migration metrics (freeze-window accounting) -----
  Duration freeze_started_{};
  Duration last_freeze_window_{};
  uint64_t last_transfer_bytes_ = 0;
  uint32_t last_precopy_rounds_ = 0;
  // Freeze-aware accounting: when the reserve was issued, and how long
  // the attempt waited live before its slot went live.
  Duration enqueue_started_{};
  Duration last_enqueue_wait_{};

  // ----- trace spans of the in-flight attempt (0 = none/disabled) -----
  uint64_t root_span_ = 0;
  uint64_t freeze_span_ = 0;
  uint64_t enqueue_span_ = 0;
};

}  // namespace sgxmig::migration
