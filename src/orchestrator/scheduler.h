// Destination selection for fleet migrations.
//
// A PlacementPolicy ranks candidate destination machines for one enclave
// about to leave its source; the Scheduler applies the hard constraints
// (never the source, never a plan-forbidden machine) and hands the
// survivors to the policy.  Policies see only the registry's per-machine
// count and anti-affinity lookup plus platform attributes
// (Machine::region, cpu_cores), so new policies need no orchestrator
// internals.
//
// Built-in policies:
//   * least-loaded       — fewest enclaves (registry count + in-flight
//                          reservations) first; ties broken by address.
//   * same-region-first  — destinations sharing the source's region
//                          first, least-loaded within each group.
//   * anti-affinity      — machines NOT already hosting an enclave of the
//                          same MRENCLAVE first (spread replicas of one
//                          app), least-loaded within each group.
//   * capacity-weighted  — load is divided by the machine's certified
//                          cpu_cores (the attribute the provider CA signs
//                          into its credential), so a 32-core machine
//                          absorbs twice the enclaves of a 16-core one
//                          before ranking equal.
//
// Policies COMPOSE: every policy exposes its judgment as a small
// preference bucket plus a load weight, and make_composite_policy stacks
// them lexicographically — e.g. {same-region-first, anti-affinity,
// capacity-weighted} prefers in-region machines, spreads replicas within
// the region, and breaks remaining ties by certified per-core headroom.
//
// All orderings are total and deterministic, so fleet runs reproduce
// exactly per seed.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "orchestrator/fleet_registry.h"

namespace sgxmig::orchestrator {

struct PlacementQuery {
  /// Machine the enclave is leaving (never selected).
  std::string source;
  /// Hard exclusions (e.g. every machine of an evacuating region).
  std::vector<std::string> excluded;
  /// Hard exclusion of whole regions — one region name instead of
  /// enumerating its machines, so a region evacuation at 1000 machines
  /// does not drag a 100-entry exclusion list through every pick.
  std::vector<std::string> excluded_regions;
  /// Soft exclusions: destinations that already failed for this
  /// migration.  Ranked last rather than dropped, so a fleet with no
  /// other options can still retry them once the interference clears.
  std::vector<std::string> avoid;
  /// In-flight migrations already headed to each machine (reservations
  /// the registry cannot see yet), added to the registry load.  The
  /// Scheduler fills it from its ledger (note_reservation); callers leave
  /// it empty.
  std::map<std::string, uint32_t> reserved;
  /// Identity of the enclave being placed (anti-affinity).
  const sgx::EnclaveImage* image = nullptr;
};

/// Which incrementally-maintained index (if any) can answer
/// pick_destination for a policy without ranking every machine.  A policy
/// advertising a mode MUST order identically to its brute-force rank();
/// the determinism tests in test_event_driver.cpp enforce this.
enum class PlacementIndexMode : uint8_t {
  kNone = 0,         // arbitrary rank(): full scan required
  kLeastLoaded = 1,  // order by (effective load, address)
  kHierarchical = 2, // region by aggregate occupancy/cores, then
                     // capacity-weighted machine within the region
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  virtual const char* name() const = 0;

  /// Index the Scheduler may use for pick_destination.  kNone (default)
  /// keeps the full-scan path.
  virtual PlacementIndexMode index_mode() const {
    return PlacementIndexMode::kNone;
  }

  /// Policy-specific preference bucket for one machine; lower is better.
  /// This is the composable judgment: CompositePolicy sorts by the
  /// stacked policies' buckets lexicographically.
  virtual int preference(const FleetRegistry& fleet,
                         const PlacementQuery& query,
                         const platform::Machine& machine) const {
    (void)fleet;
    (void)query;
    (void)machine;
    return 0;
  }

  /// Load term used after the preference buckets; lower is better.
  /// Defaults to the raw effective load (enclaves + reservations).
  virtual double load_weight(const FleetRegistry& fleet,
                             const PlacementQuery& query,
                             const platform::Machine& machine) const;

  /// Candidate destinations ranked best-first.  `candidates` has the hard
  /// constraints already applied and is non-empty.  The default total
  /// order is (soft-avoided, preference, load_weight, address); override
  /// only for orderings this shape cannot express.
  virtual std::vector<platform::Machine*> rank(
      const FleetRegistry& fleet, const PlacementQuery& query,
      std::vector<platform::Machine*> candidates) const;
};

std::unique_ptr<PlacementPolicy> make_least_loaded_policy();
std::unique_ptr<PlacementPolicy> make_same_region_first_policy();
std::unique_ptr<PlacementPolicy> make_anti_affinity_policy();
std::unique_ptr<PlacementPolicy> make_capacity_weighted_policy();
/// Hierarchical datacenter placement: pick the region with the lowest
/// aggregate occupancy per certified core — computed over ALL machines of
/// the region, so region health is a property of the region, not of the
/// filtered candidate set — then the capacity-weighted machine within it.
/// Ties break by region name, then machine address.  Index-accelerated
/// (PlacementIndexMode::kHierarchical).
std::unique_ptr<PlacementPolicy> make_hierarchical_policy();

/// Stacks policies lexicographically: candidates sort by stage 1's
/// preference bucket first, ties by stage 2's, and so on; the LAST
/// stage's load weight breaks remaining ties (so ending the stack with
/// capacity-weighted makes every earlier policy capacity-aware).
std::unique_ptr<PlacementPolicy> make_composite_policy(
    std::vector<std::unique_ptr<PlacementPolicy>> stages);

class Scheduler {
 public:
  /// `policy` defaults to least-loaded.
  Scheduler(FleetRegistry& fleet,
            std::unique_ptr<PlacementPolicy> policy = nullptr);

  /// Best destination for the query, or kNoEligibleDestination when no
  /// machine survives the hard constraints.  When the policy advertises
  /// an index mode, the pick walks the per-region load gauges —
  /// O(regions + skips) — instead of ranking every machine; the result is
  /// the front of rank_destinations, the full scan.
  /// Both paths count the reservation ledger (note_reservation).
  Result<std::string> pick_destination(const PlacementQuery& query) const;

  /// Full ranking (tests and rebalance planning).  Always brute-force.
  std::vector<std::string> rank_destinations(
      const PlacementQuery& query) const;

  const PlacementPolicy& policy() const { return *policy_; }

  // ----- in-flight reservation ledger (indexed picks) -----

  /// Adjusts the in-flight reservation count for `machine` by `delta`.
  void note_reservation(const std::string& machine, int32_t delta);
  void clear_reservations();

  /// True when pick_destination will take the indexed path.
  bool index_active() const {
    return policy_->index_mode() != PlacementIndexMode::kNone;
  }

  /// Deterministic byte accounting for the index (control-plane memory
  /// gauge).
  size_t index_bytes() const;

 private:
  struct IndexEntry {
    uint32_t load = 0;      // registry enclave count
    uint32_t reserved = 0;  // ledger reservations
    uint32_t cores = 1;
    std::string region;
  };
  struct RegionShard {
    /// (load + reserved, address) — least-loaded order.
    std::set<std::pair<uint32_t, std::string>> by_load;
    /// ((load + reserved + 1) / cores, address) — capacity-weighted
    /// order.  The double is computed by the same expression as the
    /// brute-force comparator, so the orders agree bit-for-bit.
    std::set<std::pair<double, std::string>> by_weight;
    uint64_t total_load = 0;  // load + reserved over member machines
    uint64_t total_cores = 0;
  };

  void sync_index() const;
  void rebuild_index() const;
  void shard_insert(const std::string& machine, const IndexEntry& entry) const;
  void shard_erase(const std::string& machine, const IndexEntry& entry) const;
  void index_apply_load(const std::string& machine, uint32_t new_load) const;
  /// Indexed pick; empty string when nothing survives the constraints.
  std::string indexed_pick(const PlacementQuery& query,
                           PlacementIndexMode mode) const;

  FleetRegistry& fleet_;
  std::unique_ptr<PlacementPolicy> policy_;
  /// Reservation ledger; survives index rebuilds.
  std::map<std::string, uint32_t> reservations_;

  // Index state is a cache over the registry (synced lazily from its
  // load changelog before every indexed pick), so const picks stay const.
  mutable std::map<std::string, IndexEntry> entries_;
  mutable std::map<std::string, RegionShard> shards_;
  mutable uint64_t load_cursor_ = 0;
  mutable bool index_built_ = false;
};

/// Effective load used by every built-in policy: enclaves the registry
/// places on the machine plus the query's in-flight reservations.
uint32_t effective_load(const FleetRegistry& fleet,
                        const PlacementQuery& query,
                        const platform::Machine& machine);

}  // namespace sgxmig::orchestrator
