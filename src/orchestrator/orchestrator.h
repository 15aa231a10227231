// The fleet migration control plane.
//
// Expands a Plan (drain / evacuate / rebalance / targeted moves) into one
// migration state machine per enclave and drives them all to a terminal
// state on the virtual clock:
//
//   kQueued --admit--> (started) --complete_move--> kDone
//      ^                   |
//      |              retryable failure
//      +-- kBackoff <------+          (fatal / attempts exhausted) -> kFailed
//
// Concurrency is bounded two ways, matching what would overload a real
// deployment: at most `max_inflight_per_machine` migrations may be away
// from one source machine but not yet restored (its ME handles every
// source-side transfer), and at most `max_inflight_total` fleet-wide.
// Each retry re-selects the destination through the Scheduler with the
// failed destinations soft-excluded and backs off exponentially in
// virtual time (pipelined: on the lane clock, from the lane instant the
// failure was observed).  Every transition is appended to a timestamped event log;
// execute() returns an OrchestratorReport with per-migration latency and
// retry counts for the bench layer.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "orchestrator/fleet_registry.h"
#include "orchestrator/plan.h"
#include "orchestrator/report.h"
#include "orchestrator/scheduler.h"

namespace sgxmig::net {
class Network;
}

namespace sgxmig::orchestrator {

/// How the source side of each migration moves its state.
enum class TransferMode : uint8_t {
  /// Paper semantics: freeze, collect + destroy everything, ship one
  /// snapshot.  Freeze window grows with the number of active counters.
  kFullSnapshot = 0,
  /// Iterative pre-copy: ship dirty Table II chunks round by round while
  /// the enclave keeps serving, freeze only for the final delta.
  /// Requires live-transfer-capable enclaves (LaunchOptions); enclaves
  /// without the capability transparently fall back to kFullSnapshot.
  kPrecopy = 1,
};

const char* transfer_mode_name(TransferMode mode);

/// Base retry backoff (virtual time); doubles per failed attempt.
constexpr Duration kRetryBackoff = milliseconds(50);

struct OrchestratorOptions {
  /// Max migrations simultaneously in flight per source machine.
  uint32_t max_inflight_per_machine = 4;
  /// Max migrations simultaneously in flight fleet-wide.
  uint32_t max_inflight_total = 16;
  /// Max migrations simultaneously in flight toward one DESTINATION
  /// machine (0 = unlimited).  With pipelined pre-copy round hops and
  /// freeze-aware scheduling, overlapping transfers would otherwise
  /// stampede a popular destination ME.
  uint32_t max_inflight_per_destination = 0;
  /// migration_start attempts per enclave before giving up.
  uint32_t max_attempts = 4;
  TransferMode transfer_mode = TransferMode::kFullSnapshot;
  /// Drive transfers through the source MEs' pipelined TransferTask
  /// engine instead of the blocking migration_start: sources are
  /// enqueued (non-blocking) and polled, the deferred-delivery network
  /// pump interleaves the ME<->ME conversations, and all per-machine
  /// work is accounted on per-machine LANES (support/sim_clock.h) so
  /// concurrent migrations genuinely overlap in virtual time.  This is
  /// what makes the in-flight caps a real throughput lever: at cap 1 the
  /// pipeline degenerates to today's serial drain, at cap N up to N
  /// transfers (and their destination-side restores) run concurrently.
  bool pipelined = false;
  /// Freeze-aware scheduling (pipelined only): enqueue via the library's
  /// reserve path, so a queued transfer waits LIVE (still serving) until
  /// the source ME signals slot-live, and only then freezes.  The freeze
  /// window stops growing with queue depth.
  bool freeze_aware = false;
  /// Cap on the in-memory orchestrator event log (0 = unbounded).  Once
  /// full, the OLDEST events are dropped and counted in
  /// OrchestratorReport::events_dropped, bounding control-plane memory
  /// over long drains; the §V-D machinery never reads this log, so
  /// retention is purely observational.
  size_t event_log_limit = 0;
};

/// Control-plane work accounting for one execute(): how many waves ran
/// and how many per-task / per-machine touches the driver spent.  The
/// scaling bench gates on these (they are deterministic, unlike CPU
/// seconds) to catch O(n^2) control-plane regressions.
struct DriverStats {
  uint64_t waves = 0;
  /// Admission candidates processed + polls + pre-copy advances +
  /// completions.  Proportional to real protocol work, far below
  /// tasks x waves.
  uint64_t task_touches = 0;
  uint64_t admission_checks = 0;
  /// ME pump lane runs: one per wave for each kick candidate whose ME
  /// has queued work.
  uint64_t pump_kicks = 0;
};

class Orchestrator {
 public:
  Orchestrator(FleetRegistry& fleet, Scheduler& scheduler,
               OrchestratorOptions options = {});

  /// Chaos-injection hook: invoked at the top of every scheduling wave
  /// with the wave index.  Tests and benches use it to kill/restart
  /// machine services (e.g. Migration Enclaves) at deterministic points
  /// MID-plan, exercising the durable-queue resume paths.
  using WaveHook = std::function<void(uint32_t wave)>;
  void set_wave_hook(WaveHook hook) { wave_hook_ = std::move(hook); }

  /// Invoked after every shipped pre-copy round (enclave id, round index
  /// just shipped).  Benches and chaos tests use it to apply a LIVE
  /// mutation workload between rounds — the enclave is not frozen — or to
  /// kill/restart MEs mid-pre-copy.
  using RoundHook = std::function<void(uint64_t enclave_id, uint32_t round)>;
  void set_round_hook(RoundHook hook) { round_hook_ = std::move(hook); }

  /// The fleet the plans run over (its completion callback is the third
  /// chaos trigger).
  FleetRegistry& fleet() { return fleet_; }

  /// Runs the plan to completion (every task kDone or kFailed) and
  /// returns the report.  Deterministic per world seed.
  OrchestratorReport execute(const Plan& plan);

  /// Work accounting of the most recent execute().
  const DriverStats& last_driver_stats() const { return stats_; }

  /// Deterministic byte accounting of the orchestrator's own state
  /// (tasks, event log, gauges, event-driver indexes) after/during an
  /// execute().  Allocator-independent, so the scaling bench can gate on
  /// "control-plane memory per enclave stays flat".
  size_t control_plane_bytes() const;

 private:
  enum class TaskPhase : uint8_t {
    kQueued,
    kBackoff,
    kTransferring,  // pipelined: queued at the source ME, polling its fate
    kPrecopying,    // pipelined: shipping pre-copy rounds, one per wave
    kStarted,  // source side done; data pending at the destination ME
    kDone,
    kFailed,
  };

  struct Task {
    uint64_t enclave_id = 0;
    std::string name;
    std::string source;
    std::string fixed_destination;        // targeted moves only
    std::vector<std::string> forbidden;   // hard exclusions from the plan
    /// Whole regions hard-excluded by the plan (evacuation): carried as
    /// region names so a 1000-machine evacuation does not give every task
    /// a 100-entry machine list.
    std::vector<std::string> forbidden_regions;
    std::vector<std::string> failed_destinations;  // soft-avoided on retry
    std::string destination;              // current attempt
    uint32_t attempts = 0;
    TaskPhase phase = TaskPhase::kQueued;
    /// Source side already succeeded; a retry resumes at complete_move.
    bool transfer_done = false;
    Duration planned_at{};
    Duration admitted_at{};
    Duration retry_at{};
    Duration finished_at{};
    /// Pipelined: earliest instant the task's next lane action may start
    /// (causality across lanes: enqueue end -> polls -> restore).
    Duration ready_at{};
    Duration freeze_window{};
    /// Freeze-aware: live wait between reserve and the slot going live.
    Duration enqueue_wait{};
    uint32_t precopy_rounds = 0;
    /// Admission order within the source's ready set: a frozen
    /// enclave's pipelined retry, then first attempts in plan order,
    /// then other pipelined retries in the order they ripened.
    uint32_t queue_key = 0;
    uint64_t transfer_bytes = 0;
    Status last_status = Status::kOk;
    migration::MigrationFailureClass last_class =
        migration::MigrationFailureClass::kNone;
    std::string last_message;
  };

  std::vector<Task> build_tasks(const Plan& plan);
  bool admit_and_start(Task& task);  // false = task could not be admitted
  /// Drives the source side under the configured transfer mode: one
  /// migration_start, or pre-copy rounds to convergence + finalize.
  migration::MigrationStartResult run_source_side(
      Task& task, migration::MigratableEnclave& enclave,
      const EnclaveRecord& record);
  /// One pre-copy step: the finalize when the enclave is frozen, else one
  /// round (+ round hook) and the finalize once converged and the
  /// destination lane is free; a failed round is a classified failure.
  /// nullopt = another round is due.
  std::optional<migration::MigrationStartResult> precopy_step(
      Task& task, migration::MigratableEnclave& enclave,
      const EnclaveRecord& record);
  void complete(Task& task);
  // ----- pipelined engine -----
  /// Pipelined source-side admission: enqueue (or begin pre-copy, whose
  /// first step resumes a frozen finalize at once) on the source
  /// machine's lane.
  void start_pipelined(Task& task, migration::MigratableEnclave& enclave,
                       const EnclaveRecord& record);
  /// Polls a kTransferring task's fate at its source ME.
  void poll_transferring(Task& task);
  /// Ships one pre-copy round (or the finalize, once converged/frozen)
  /// for a kPrecopying task.
  void advance_precopy(Task& task);
  /// A finalize the async source ME queued (kMigrationInProgress): pumps
  /// the network and polls the task at once, so the freeze ends at the
  /// accept instead of behind other tasks' live work on the source lane.
  void drive_queued_finalize(Task& task);
  /// Shared failure path of the source side; `freed_at` is the instant
  /// the failure was observed: the lane instant (when a pipelined slot
  /// frees) or, blocking, the control instant.
  void source_failure(Task& task,
                      const migration::MigrationStartResult& result,
                      Duration freed_at);
  /// Records when an in-flight slot freed (sorted insert).
  void release_slot(Duration freed_at);
  void mark_started(Task& task, migration::MigratableEnclave& enclave,
                    Duration ready_at);
  /// Earliest instant a newly admitted task may start: the control
  /// instant, or the completion time of the in-flight slot it is taking
  /// over (tracked in released_slots_).
  Duration next_slot_time();
  /// Classifies a failed attempt: kFailed, or kBackoff with retry_at =
  /// `failed_at` + the exponential backoff.  `failed_at` is the instant
  /// the failure was observed: the control instant for the blocking
  /// engine, a lane instant for the pipelined one (the source lane's for
  /// a start or poll, the destination lane's for a restore), so a
  /// pipelined retry waits out its backoff on the lane clock.
  void handle_failure(Task& task, Status status,
                      migration::MigrationFailureClass cls,
                      const std::string& message, bool destination_specific,
                      Duration failed_at);
  void fail_task(Task& task);
  void log(const Task& task, EventKind kind, std::string detail);
  Duration now() const;
  // ----- wave driver -----
  /// Single funnel for every phase transition: maintains the phase sets
  /// (ready/backoff/transferring/precopying/started) and the unfinished
  /// count.
  void set_phase(Task& task, TaskPhase phase);
  /// Moves backoff tasks whose retry_at is at or before `at` (pipelined:
  /// or before their source lane's end) into the ready set, assigning
  /// each its queue_key; when `newly` is non-null, appends their indices.
  void ripen_backoffs(Duration at, std::vector<uint32_t>* newly);
  /// One event-driven admission pass: visits ready tasks in ascending
  /// queue_key order via a per-source merge heap, skipping saturated
  /// sources wholesale (and, pipelined, sources whose ME is down).  After
  /// a stalled wave it ripens every backoff and skips no down source.
  /// Returns true if any task was admitted.
  bool event_admission_pass(bool after_stall);
  /// Adds every machine whose ME has queued work to the kick set.
  void seed_kick_candidates();
  void run_event_loop(net::Network& net);
  /// Pairs the inflight_to_destination_ gauge with the scheduler's
  /// reservation ledger, so the indexed pick path sees in-flight loads.
  void reserve_destination(const std::string& machine);
  void release_destination(const std::string& machine);

  FleetRegistry& fleet_;
  Scheduler& scheduler_;
  OrchestratorOptions options_;
  WaveHook wave_hook_;
  RoundHook round_hook_;

  // Per-execute() working state.
  std::deque<OrchestratorEvent> events_;  // ring when event_log_limit > 0
  uint64_t events_dropped_ = 0;
  std::map<std::string, uint32_t> inflight_per_machine_;
  std::map<std::string, uint32_t> inflight_to_destination_;
  uint32_t inflight_total_ = 0;
  uint32_t peak_inflight_total_ = 0;
  std::map<std::string, uint32_t> peak_inflight_per_machine_;
  // Pipelined engine state: the lane ledger of the running execute() and
  // the (sorted) completion times that freed in-flight slots.
  LaneSchedule* lanes_ = nullptr;
  std::vector<Duration> released_slots_;
  // Wave-driver state, maintained through set_phase.
  std::vector<Task> tasks_;
  /// Admittable tasks (kQueued or ripened kBackoff) per source machine,
  /// queue_key -> task index — the admission pass only visits these.
  std::map<std::string, std::map<uint32_t, uint32_t>> ready_by_source_;
  /// Ripen counter behind the pipelined retries' queue keys.
  uint32_t retries_ripened_ = 0;
  /// Per source: first attempts still open (planned and not yet through
  /// their source side); an entry is erased at zero.  A pipelined retry
  /// waits for its source's entry to go.
  std::map<std::string, uint32_t> open_first_attempts_;
  /// Pending backoffs ordered by retry time.
  std::priority_queue<std::pair<Duration, uint32_t>,
                      std::vector<std::pair<Duration, uint32_t>>,
                      std::greater<std::pair<Duration, uint32_t>>>
      backoff_heap_;
  /// Ripened-but-unadmitted backoff tasks: index -> retry_at at ripen
  /// time (keyed by index because handle_failure rewrites retry_at).
  std::map<uint32_t, Duration> ripe_backoff_;
  std::set<uint32_t> transferring_;
  std::set<uint32_t> precopying_;
  std::set<uint32_t> started_;
  size_t unfinished_count_ = 0;
  /// Machines (creation order) and address -> creation index, resolved
  /// once per execute(); the pump visits kick candidates in creation
  /// order.
  std::vector<platform::Machine*> machines_;
  std::map<std::string, uint32_t> machine_index_;
  std::set<uint32_t> kick_candidates_;
  DriverStats stats_;
};

}  // namespace sgxmig::orchestrator
