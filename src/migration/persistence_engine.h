// Pluggable persistence for the Migration Library's Table II buffer.
//
// The paper's Migration Library re-seals and persists its internal buffer
// synchronously inside every mutating counter operation — the mechanistic
// source of the ≤ ~12% overhead on create/increment/destroy in Fig. 3.
// This interface carves that decision out of the library so the *when* of
// persistence is a policy:
//
//   * SyncPersist       — paper-faithful default: one seal + OCALL per
//                         mutation.  All existing tests/benches keep their
//                         semantics under this engine.
//   * GroupCommitPersist — coalesces up to N mutations or a virtual-time
//                         window into one seal + OCALL.  flush() is a hard
//                         fence; the library forces it before any
//                         migration/freeze event and before destroying a
//                         hardware counter, so the Table II invariants
//                         (freeze flag durable before data leaves, UUID
//                         table never references a destroyed counter
//                         without a durable record) still hold.
//   * WriteBehindPersist — dirty-flag only: nothing is persisted until a
//                         batch boundary (an explicit flush()).  Upper
//                         bound for throughput ablations; crash windows
//                         span whole batches.
//
// The engine never seals anything itself: the library hands it a
// PersistSink whose commit_state() performs the seal + OCALL.  Engines
// only decide when to invoke it.  bench/ablation_persist_batching.cpp
// compares the three on the Fig. 3 workload.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "support/sim_clock.h"
#include "support/status.h"

namespace sgxmig::obs {
struct Observability;
class TraceRecorder;
}  // namespace sgxmig::obs

namespace sgxmig::migration {

enum class PersistenceMode : uint8_t {
  kSync = 0,
  kGroupCommit = 1,
  kWriteBehind = 2,
};

const char* persistence_mode_name(PersistenceMode mode);

/// What just mutated the in-memory Table II buffer.  Engines may treat
/// kinds differently (e.g. a future engine could sync UUID-table changes
/// but batch offset changes).
enum class MutationKind : uint8_t {
  kCounterCreate,
  kCounterIncrement,
  kCounterDestroy,
  kRestoreApply,
  kFreeze,
  /// A Migration Enclave transfer-queue transition (retain / accept /
  /// deliver / complete).  Always paired with a flush today — every queue
  /// transition guards either retained data or the fork-prevention erase —
  /// but routed through the engine so batching remains a knob.
  kTransferQueue,
};

/// Library-side half of the contract: seals the current Table II buffer
/// and OCALLs it to untrusted storage.  Implemented by MigrationLibrary.
class PersistSink {
 public:
  virtual ~PersistSink() = default;
  /// One durable commit of the current in-memory state (seal + OCALL).
  virtual Status commit_state() = 0;
  /// Virtual time, for window-based coalescing.
  virtual Duration now() const = 0;
  /// The world's trace/metrics bundle; null (the default) disables engine
  /// instrumentation.
  virtual obs::Observability* observability() const { return nullptr; }
};

struct GroupCommitOptions {
  /// Commit after this many pending mutations...
  uint32_t max_batch = 8;
  /// ...or once the oldest pending mutation is this old (virtual time).
  Duration window = milliseconds(100);
};

class PersistenceEngine {
 public:
  virtual ~PersistenceEngine() = default;

  virtual PersistenceMode mode() const = 0;

  /// Called by the library immediately after `kind` mutated the in-memory
  /// buffer.  The engine decides whether to commit now.
  virtual Status on_mutation(PersistSink& sink, MutationKind kind) = 0;

  /// Fence: on success, every mutation reported so far is durable.
  virtual Status flush(PersistSink& sink) = 0;

  /// True when mutations were reported but not yet committed.
  virtual bool has_pending() const = 0;

  /// One durable write, whatever the engine: on_mutation + flush inside a
  /// `persist.fence` span of `trace` (null: untraced) on `lane`, with
  /// trace id `nonce` (0 when unknown).  The span only reads the clock,
  /// so traced runs keep their timings.
  Status on_mutation_durable(PersistSink& sink, MutationKind kind,
                             obs::TraceRecorder* trace,
                             const std::string& lane, uint64_t nonce);

  // ----- instrumentation (for the ablation bench and tests) -----
  uint64_t mutations_seen() const { return mutations_seen_; }
  uint64_t commits_issued() const { return commits_issued_; }

 protected:
  Status commit(PersistSink& sink);
  void note_mutation() { ++mutations_seen_; }

 private:
  uint64_t mutations_seen_ = 0;
  uint64_t commits_issued_ = 0;
  uint64_t committed_mutations_ = 0;  // mutations covered by past commits
};

/// Factory.  `options` only affects kGroupCommit.
std::unique_ptr<PersistenceEngine> make_persistence_engine(
    PersistenceMode mode, const GroupCommitOptions& options = {});

}  // namespace sgxmig::migration
