#include "migration/persistence_engine.h"

#include "obs/observability.h"

namespace sgxmig::migration {

Status PersistenceEngine::commit(PersistSink& sink) {
  ++commits_issued_;
  const Status status = sink.commit_state();
  if (status != Status::kOk) return status;
  // Batch size = mutations newly covered by this successful commit.
  const uint64_t batch = mutations_seen_ - committed_mutations_;
  committed_mutations_ = mutations_seen_;
  obs::Observability* obs = sink.observability();
  if (obs != nullptr && obs->enabled()) {
    obs->metrics.add("persist.commits");
    obs->metrics.observe("persist.batch_mutations",
                         static_cast<double>(batch));
  }
  return status;
}

namespace {

const char* mutation_kind_name(MutationKind kind) {
  switch (kind) {
    case MutationKind::kCounterCreate: return "counter-create";
    case MutationKind::kCounterIncrement: return "counter-increment";
    case MutationKind::kCounterDestroy: return "counter-destroy";
    case MutationKind::kRestoreApply: return "restore-apply";
    case MutationKind::kFreeze: return "freeze";
    case MutationKind::kTransferQueue: return "transfer-queue";
  }
  return "unknown";
}

}  // namespace

Status PersistenceEngine::on_mutation_durable(PersistSink& sink,
                                              MutationKind kind,
                                              obs::TraceRecorder* trace,
                                              const std::string& lane,
                                              uint64_t nonce) {
  uint64_t span = 0;
  if (trace != nullptr) {
    span = trace->begin_span("persist.fence", lane, nonce);
    trace->span_arg(span, "kind", mutation_kind_name(kind));
  }
  Status status = on_mutation(sink, kind);
  if (status == Status::kOk) status = flush(sink);
  if (span != 0) {
    trace->span_arg(span, "outcome", std::string(status_name(status)));
    trace->end_span(span);
  }
  return status;
}

const char* persistence_mode_name(PersistenceMode mode) {
  switch (mode) {
    case PersistenceMode::kSync:
      return "sync";
    case PersistenceMode::kGroupCommit:
      return "group-commit";
    case PersistenceMode::kWriteBehind:
      return "write-behind";
  }
  return "unknown";
}

namespace {

class SyncPersist final : public PersistenceEngine {
 public:
  PersistenceMode mode() const override { return PersistenceMode::kSync; }

  Status on_mutation(PersistSink& sink, MutationKind /*kind*/) override {
    note_mutation();
    return commit(sink);
  }

  Status flush(PersistSink& /*sink*/) override { return Status::kOk; }

  bool has_pending() const override { return false; }
};

class GroupCommitPersist final : public PersistenceEngine {
 public:
  explicit GroupCommitPersist(const GroupCommitOptions& options)
      : options_(options) {}

  PersistenceMode mode() const override {
    return PersistenceMode::kGroupCommit;
  }

  Status on_mutation(PersistSink& sink, MutationKind /*kind*/) override {
    note_mutation();
    if (pending_ == 0) oldest_pending_ = sink.now();
    ++pending_;
    if (pending_ >= options_.max_batch ||
        sink.now() - oldest_pending_ >= options_.window) {
      return flush(sink);
    }
    return Status::kOk;
  }

  Status flush(PersistSink& sink) override {
    if (pending_ == 0) return Status::kOk;
    const Status status = commit(sink);
    // On failure the mutations stay pending; the next mutation or fence
    // retries the commit (the in-memory buffer still holds them).
    if (status == Status::kOk) pending_ = 0;
    return status;
  }

  bool has_pending() const override { return pending_ != 0; }

 private:
  GroupCommitOptions options_;
  uint32_t pending_ = 0;
  Duration oldest_pending_{0};
};

class WriteBehindPersist final : public PersistenceEngine {
 public:
  PersistenceMode mode() const override {
    return PersistenceMode::kWriteBehind;
  }

  Status on_mutation(PersistSink& /*sink*/, MutationKind /*kind*/) override {
    note_mutation();
    dirty_ = true;
    return Status::kOk;
  }

  Status flush(PersistSink& sink) override {
    if (!dirty_) return Status::kOk;
    const Status status = commit(sink);
    if (status == Status::kOk) dirty_ = false;
    return status;
  }

  bool has_pending() const override { return dirty_; }

 private:
  bool dirty_ = false;
};

}  // namespace

std::unique_ptr<PersistenceEngine> make_persistence_engine(
    PersistenceMode mode, const GroupCommitOptions& options) {
  switch (mode) {
    case PersistenceMode::kSync:
      return std::make_unique<SyncPersist>();
    case PersistenceMode::kGroupCommit:
      return std::make_unique<GroupCommitPersist>(options);
    case PersistenceMode::kWriteBehind:
      return std::make_unique<WriteBehindPersist>();
  }
  return std::make_unique<SyncPersist>();
}

}  // namespace sgxmig::migration
