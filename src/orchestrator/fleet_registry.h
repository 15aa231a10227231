// FleetRegistry — the orchestrator's view of every migratable enclave in
// the world.
//
// The paper's protocol moves ONE enclave between two Migration Enclaves;
// a data center runs thousands.  The registry owns the live
// MigratableEnclave instances, remembers where each one runs (and with
// which image, migration policy and live-transfer capability), and
// provides the placement queries (count per machine, image
// anti-affinity) the Scheduler's policies rank destinations with.
//
// Placement changes flow through exactly two mutators so the registry can
// never disagree with reality: launch() (a fresh enclave on a machine)
// and complete_move() (the destination half of a migration whose source
// half — migration_start — the Orchestrator already drove).  The
// completion callback installed via set_completion_callback is how upper
// layers (event logs, benches) observe registry-confirmed moves.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "migration/migratable_enclave.h"
#include "platform/world.h"

namespace sgxmig::orchestrator {

/// Per-enclave launch configuration (everything complete_move() needs to
/// re-instantiate the enclave on the destination machine).
struct LaunchOptions {
  /// Travels with every migrate request for this enclave (§X policies).
  migration::MigrationPolicy policy = {};
  /// Equip the enclave's Migration Library with the epoch guard so the
  /// orchestrator can move it via iterative pre-copy (TransferMode).
  bool live_transfer = false;
};

struct EnclaveRecord {
  uint64_t id = 0;
  std::string name;  // unique; also the untrusted-storage key ("<name>.ml")
  std::shared_ptr<const sgx::EnclaveImage> image;
  std::string machine;  // current placement (machine address)
  LaunchOptions options;
  uint32_t completed_migrations = 0;
  std::unique_ptr<migration::MigratableEnclave> enclave;
};

class FleetRegistry {
 public:
  explicit FleetRegistry(platform::World& world) : world_(world) {}

  FleetRegistry(const FleetRegistry&) = delete;
  FleetRegistry& operator=(const FleetRegistry&) = delete;

  /// Creates a MigratableEnclave on `machine_address`, runs
  /// migration_init(kNew), wires its persist OCALL into the machine's
  /// untrusted store under "<name>.ml", and registers it.  Returns the
  /// fleet-assigned enclave id.
  Result<uint64_t> launch(const std::string& machine_address,
                          const std::string& name,
                          std::shared_ptr<const sgx::EnclaveImage> image,
                          const LaunchOptions& options = {});

  /// Destination half of a migration: instantiates the enclave on
  /// `destination_address` (or takes its warm instance there), fetches the
  /// incoming data from the local ME (migration_init(kMigrate)), and only
  /// then retires the frozen source instance, takes its sealed buffer out
  /// of the source store (handed to the retired-state subscribers first),
  /// and moves the record.  A warm set the init did not consume is
  /// retired.  On failure the source instance (and the source ME's
  /// retained copy) are left untouched for the caller to retry or
  /// escalate.
  Status complete_move(uint64_t id, const std::string& destination_address);

  /// Warm pre-copy destination: launches the enclave's destination
  /// instance on `destination_address` warm (migration_warm_up), bound to
  /// the attempt staged at that machine's ME, and keeps it for
  /// complete_move.  A set held for an earlier warm-up is retired first.
  Status warm_up(uint64_t id, const std::string& destination_address);
  /// Retires the enclave's warm set, if it holds one (abandoned attempt):
  /// one PSE retire, reclaimed by the platform's sweep; its sealed set
  /// leaves that machine's store.
  void retire_warm(uint64_t id);
  /// True when `machine_address`'s PSE can hold the enclave's counter set
  /// (its active counters and the epoch guard) beside every counter its
  /// identity already holds there, warm and retired ones included.
  bool pse_room(uint64_t id, const std::string& machine_address) const;

  /// Destroys the instance and unregisters the record (enclave shutdown).
  Status retire(uint64_t id);

  // ----- lookups -----
  const EnclaveRecord* find(uint64_t id) const;
  migration::MigratableEnclave* enclave(uint64_t id);

  std::vector<uint64_t> all_ids() const;
  std::vector<uint64_t> ids_on(const std::string& machine_address) const;
  std::vector<uint64_t> ids_in_region(const std::string& region) const;

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  size_t count_on(const std::string& machine_address) const;
  /// True when the machine hosts a registered enclave with this
  /// MRENCLAVE (anti-affinity placement query).
  bool hosts_image(const std::string& machine_address,
                   const sgx::Measurement& mr) const;

  // ----- incremental load feed (placement indexes) -----
  //
  // Every placement change appends (machine, new enclave count) to a
  // bounded changelog.  A Scheduler keeps a cursor and replays only the
  // deltas since its last pick, so its per-region load gauges stay in
  // sync without rescanning the fleet.  The log is compacted once it
  // grows past a few thousand entries; a cursor that falls behind the
  // compaction point gets `false` and must rebuild from count_on().

  /// Monotonic version: one tick per recorded placement change.
  uint64_t load_version() const {
    return changelog_base_ + load_changelog_.size();
  }

  /// Replays every load change after `cursor` into `fn(machine,
  /// new_count)` and advances `cursor` to load_version().  Returns false
  /// (cursor untouched) when the changelog was compacted past `cursor`.
  bool replay_load_changes(
      uint64_t& cursor,
      const std::function<void(const std::string&, uint32_t)>& fn) const;

  /// Bytes held by the registry's placement indexes (deterministic
  /// accounting for the control-plane memory gauge, not an allocator
  /// measurement).
  size_t index_bytes() const;

  /// Invoked after every registry-confirmed placement change
  /// (complete_move success), with the record already updated.
  using CompletionCallback = std::function<void(const EnclaveRecord&)>;
  void set_completion_callback(CompletionCallback cb) {
    completion_callback_ = std::move(cb);
  }

  /// Invoked with the sealed buffer a completed move takes out of the
  /// source machine's store (the frozen instance's last Table II), before
  /// the registry drops it.
  using RetiredStateCallback = std::function<void(
      uint64_t id, const std::string& machine, const SharedBytes& sealed)>;
  /// Returns the token unsubscribe_retired_state takes.
  uint64_t subscribe_retired_state(RetiredStateCallback cb);
  void unsubscribe_retired_state(uint64_t token);

  /// The registry does not own the world; the reference stays usable from
  /// const registry contexts (placement queries only read machine state).
  platform::World& world() const { return world_; }

 private:
  std::string storage_key(const std::string& name) const {
    return name + ".ml";
  }

  /// Adds/removes `record` (already placed on record.machine) to the
  /// per-machine, per-region, and per-image indexes and logs the load
  /// change.
  void index_insert(const EnclaveRecord& record);
  void index_erase(const EnclaveRecord& record);
  void record_load_change(const std::string& machine_address);

  struct WarmInstance;
  /// Retires `warm`'s set and takes its sealed set out of its machine's
  /// store, unless the enclave runs on that machine.
  void discard_warm(const EnclaveRecord& record, WarmInstance& warm);

  platform::World& world_;
  std::map<uint64_t, EnclaveRecord> records_;  // ordered: deterministic scans
  /// Warm destination instances by enclave id, with their machine.
  struct WarmInstance {
    std::string machine;
    std::unique_ptr<migration::MigratableEnclave> enclave;
  };
  std::map<uint64_t, WarmInstance> warm_;
  uint64_t next_id_ = 1;
  CompletionCallback completion_callback_;
  std::map<uint64_t, RetiredStateCallback> retired_subscribers_;
  uint64_t next_subscriber_ = 1;

  // Placement indexes.  records_ stays the source of truth; these shard
  // it by machine / region / image so the hot placement queries
  // (count_on, ids_on, hosts_image) are O(log M) instead of O(enclaves).
  // All keyed by strings or ids — orderings stay deterministic.
  std::set<std::string> names_;
  std::map<std::string, std::set<uint64_t>> ids_by_machine_;
  std::map<std::string, std::set<uint64_t>> ids_by_region_;
  std::map<std::string, std::map<sgx::Measurement, uint32_t>>
      images_by_machine_;
  std::vector<std::pair<std::string, uint32_t>> load_changelog_;
  uint64_t changelog_base_ = 0;
};

}  // namespace sgxmig::orchestrator
