#include "orchestrator/scheduler.h"

#include <algorithm>

namespace sgxmig::orchestrator {

namespace {

bool contains(const std::vector<std::string>& haystack,
              const std::string& needle) {
  return std::find(haystack.begin(), haystack.end(), needle) !=
         haystack.end();
}

/// Capacity-weighted machine key.  ONE definition shared by the
/// brute-force hierarchical rank and the index shards, so both orders
/// agree bit-for-bit.  cpu_cores is the attribute the provider CA signs
/// into the machine credential, so the weight trusts the operator, not
/// the machine's self-report; +1 biases toward big machines even from an
/// empty fleet.
double capacity_weight(uint32_t load_plus_reserved, uint32_t cores) {
  const double c = cores == 0 ? 1.0 : static_cast<double>(cores);
  return (static_cast<double>(load_plus_reserved) + 1.0) / c;
}

/// Region-level occupancy key for hierarchical placement: aggregate
/// effective load per certified core over ALL machines of the region.
double region_weight(uint64_t total_load_plus_reserved,
                     uint64_t total_cores) {
  const double c =
      total_cores == 0 ? 1.0 : static_cast<double>(total_cores);
  return (static_cast<double>(total_load_plus_reserved) + 1.0) / c;
}

class LeastLoadedPolicy final : public PlacementPolicy {
 public:
  const char* name() const override { return "least-loaded"; }
  PlacementIndexMode index_mode() const override {
    return PlacementIndexMode::kLeastLoaded;
  }
};

class AntiAffinityPolicy final : public PlacementPolicy {
 public:
  const char* name() const override { return "anti-affinity"; }
  int preference(const FleetRegistry& fleet, const PlacementQuery& query,
                 const platform::Machine& machine) const override {
    if (query.image == nullptr) return 0;
    return fleet.hosts_image(machine.address(), query.image->mr_enclave())
               ? 1
               : 0;
  }
};

class HierarchicalPolicy final : public PlacementPolicy {
 public:
  const char* name() const override { return "hierarchical"; }
  PlacementIndexMode index_mode() const override {
    return PlacementIndexMode::kHierarchical;
  }
  std::vector<platform::Machine*> rank(
      const FleetRegistry& fleet, const PlacementQuery& query,
      std::vector<platform::Machine*> candidates) const override {
    // Region weights span ALL machines of each region (not just the
    // candidates), matching the index's per-region aggregates.
    std::map<std::string, double> weights;
    auto weight_of = [&](const std::string& region) {
      auto it = weights.find(region);
      if (it != weights.end()) return it->second;
      uint64_t total_load = 0;
      uint64_t total_cores = 0;
      for (platform::Machine* m :
           fleet.world().machines_in_region(region)) {
        total_load += effective_load(fleet, query, *m);
        total_cores += m->cpu_cores();
      }
      const double w = region_weight(total_load, total_cores);
      weights.emplace(region, w);
      return w;
    };
    struct Keyed {
      int avoided;
      double region_weight;
      std::string region;
      double machine_weight;
      platform::Machine* machine;
    };
    std::vector<Keyed> keyed;
    keyed.reserve(candidates.size());
    for (platform::Machine* m : candidates) {
      keyed.push_back({contains(query.avoid, m->address()) ? 1 : 0,
                       weight_of(m->region()), m->region(),
                       capacity_weight(effective_load(fleet, query, *m),
                                       m->cpu_cores()),
                       m});
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const Keyed& a, const Keyed& b) {
                       if (a.avoided != b.avoided)
                         return a.avoided < b.avoided;
                       if (a.region_weight != b.region_weight)
                         return a.region_weight < b.region_weight;
                       if (a.region != b.region) return a.region < b.region;
                       if (a.machine_weight != b.machine_weight)
                         return a.machine_weight < b.machine_weight;
                       return a.machine->address() < b.machine->address();
                     });
    for (size_t i = 0; i < keyed.size(); ++i) candidates[i] = keyed[i].machine;
    return candidates;
  }
};

}  // namespace

std::vector<platform::Machine*> PlacementPolicy::rank(
    const FleetRegistry& fleet, const PlacementQuery& query,
    std::vector<platform::Machine*> candidates) const {
  // Sort keys are computed once per candidate, not per comparison:
  // effective_load scans the registry.
  struct Keyed {
    int avoided;
    int preference;
    uint32_t load;
    platform::Machine* machine;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(candidates.size());
  for (platform::Machine* m : candidates) {
    keyed.push_back({contains(query.avoid, m->address()) ? 1 : 0,
                     preference(fleet, query, *m),
                     effective_load(fleet, query, *m), m});
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const Keyed& a, const Keyed& b) {
                     if (a.avoided != b.avoided) return a.avoided < b.avoided;
                     if (a.preference != b.preference) {
                       return a.preference < b.preference;
                     }
                     if (a.load != b.load) return a.load < b.load;
                     return a.machine->address() < b.machine->address();
                   });
  for (size_t i = 0; i < keyed.size(); ++i) candidates[i] = keyed[i].machine;
  return candidates;
}

uint32_t effective_load(const FleetRegistry& fleet,
                        const PlacementQuery& query,
                        const platform::Machine& machine) {
  uint32_t load = static_cast<uint32_t>(fleet.count_on(machine.address()));
  const auto it = query.reserved.find(machine.address());
  if (it != query.reserved.end()) load += it->second;
  return load;
}

std::unique_ptr<PlacementPolicy> make_least_loaded_policy() {
  return std::make_unique<LeastLoadedPolicy>();
}
std::unique_ptr<PlacementPolicy> make_anti_affinity_policy() {
  return std::make_unique<AntiAffinityPolicy>();
}
std::unique_ptr<PlacementPolicy> make_hierarchical_policy() {
  return std::make_unique<HierarchicalPolicy>();
}

Scheduler::Scheduler(FleetRegistry& fleet,
                     std::unique_ptr<PlacementPolicy> policy)
    : fleet_(fleet),
      policy_(policy ? std::move(policy) : make_least_loaded_policy()) {}

std::vector<std::string> Scheduler::rank_destinations(
    const PlacementQuery& query) const {
  std::vector<platform::Machine*> candidates;
  for (platform::Machine* m : fleet_.world().machines()) {
    if (m->address() == query.source) continue;
    if (contains(query.excluded, m->address())) continue;
    if (contains(query.excluded_regions, m->region())) continue;
    candidates.push_back(m);
  }
  std::vector<std::string> out;
  if (candidates.empty()) return out;
  PlacementQuery with_ledger = query;
  with_ledger.reserved = reservations_;
  for (platform::Machine* m :
       policy_->rank(fleet_, with_ledger, std::move(candidates))) {
    out.push_back(m->address());
  }
  return out;
}

Result<std::string> Scheduler::pick_destination(
    const PlacementQuery& query) const {
  if (index_active()) {
    const std::string pick = indexed_pick(query, policy_->index_mode());
    if (pick.empty()) return Status::kNoEligibleDestination;
    return pick;
  }
  auto ranked = rank_destinations(query);
  if (ranked.empty()) return Status::kNoEligibleDestination;
  return ranked.front();
}

// ----- incrementally-maintained placement index -----

void Scheduler::note_reservation(const std::string& machine, int32_t delta) {
  uint32_t& count = reservations_[machine];
  const int64_t next = static_cast<int64_t>(count) + delta;
  count = next < 0 ? 0u : static_cast<uint32_t>(next);
  if (!index_built_) return;
  auto it = entries_.find(machine);
  if (it == entries_.end()) return;  // machine joined since last rebuild
  shard_erase(machine, it->second);
  it->second.reserved = count;
  shard_insert(machine, it->second);
}

void Scheduler::clear_reservations() {
  reservations_.clear();
  index_built_ = false;  // lazy rebuild on the next indexed pick
}

void Scheduler::shard_insert(const std::string& machine,
                             const IndexEntry& entry) const {
  RegionShard& shard = shards_[entry.region];
  const uint32_t load = entry.load + entry.reserved;
  shard.by_load.insert({load, machine});
  shard.by_weight.insert({capacity_weight(load, entry.cores), machine});
  shard.total_load += load;
  shard.total_cores += entry.cores;
}

void Scheduler::shard_erase(const std::string& machine,
                            const IndexEntry& entry) const {
  auto it = shards_.find(entry.region);
  if (it == shards_.end()) return;
  RegionShard& shard = it->second;
  const uint32_t load = entry.load + entry.reserved;
  shard.by_load.erase({load, machine});
  shard.by_weight.erase({capacity_weight(load, entry.cores), machine});
  shard.total_load -= load;
  shard.total_cores -= entry.cores;
}

void Scheduler::rebuild_index() const {
  entries_.clear();
  shards_.clear();
  for (platform::Machine* m : fleet_.world().machines()) {
    IndexEntry entry;
    entry.load = static_cast<uint32_t>(fleet_.count_on(m->address()));
    auto it = reservations_.find(m->address());
    entry.reserved = it == reservations_.end() ? 0 : it->second;
    entry.cores = m->cpu_cores();
    entry.region = m->region();
    shard_insert(m->address(), entry);
    entries_.emplace(m->address(), std::move(entry));
  }
  load_cursor_ = fleet_.load_version();
  index_built_ = true;
}

void Scheduler::index_apply_load(const std::string& machine,
                                 uint32_t new_load) const {
  auto it = entries_.find(machine);
  if (it == entries_.end()) {
    index_built_ = false;  // unknown machine: schedule a rebuild
    return;
  }
  shard_erase(machine, it->second);
  it->second.load = new_load;
  shard_insert(machine, it->second);
}

void Scheduler::sync_index() const {
  if (!index_built_ ||
      entries_.size() != fleet_.world().machine_count()) {
    rebuild_index();
    return;
  }
  uint64_t cursor = load_cursor_;
  const bool ok = fleet_.replay_load_changes(
      cursor, [this](const std::string& machine, uint32_t count) {
        index_apply_load(machine, count);
      });
  if (!ok || !index_built_) {
    rebuild_index();
    return;
  }
  load_cursor_ = cursor;
}

std::string Scheduler::indexed_pick(const PlacementQuery& query,
                                    PlacementIndexMode mode) const {
  sync_index();
  const std::set<std::string> excluded(query.excluded.begin(),
                                       query.excluded.end());
  const std::set<std::string> excluded_regions(query.excluded_regions.begin(),
                                               query.excluded_regions.end());
  const std::set<std::string> avoid(query.avoid.begin(), query.avoid.end());
  auto machine_blocked = [&](const std::string& address) {
    return address == query.source || excluded.count(address) != 0;
  };

  if (mode == PlacementIndexMode::kLeastLoaded) {
    // Pass 1 (non-avoided): the global best is the min over shards of
    // each shard's first admissible (load, address) pair — the exact
    // (effective load, address) order of the brute-force scan.
    const std::pair<uint32_t, std::string>* best = nullptr;
    for (const auto& [region, shard] : shards_) {
      if (excluded_regions.count(region) != 0) continue;
      for (const auto& entry : shard.by_load) {
        if (machine_blocked(entry.second) || avoid.count(entry.second) != 0) {
          continue;
        }
        if (best == nullptr || entry < *best) best = &entry;
        break;  // rest of this shard is worse
      }
    }
    if (best != nullptr) return best->second;
    // Pass 2: everything admissible is soft-avoided; rank the avoid list
    // itself by the same key.
    std::string pick;
    std::pair<uint32_t, std::string> pick_key;
    for (const std::string& address : query.avoid) {
      auto it = entries_.find(address);
      if (it == entries_.end() || machine_blocked(address) ||
          excluded_regions.count(it->second.region) != 0) {
        continue;
      }
      std::pair<uint32_t, std::string> key{
          it->second.load + it->second.reserved, address};
      if (pick.empty() || key < pick_key) {
        pick = address;
        pick_key = key;
      }
    }
    return pick;
  }

  // kHierarchical: regions ordered by aggregate occupancy per core, the
  // capacity-weighted machine within the first region that has an
  // admissible machine.
  std::vector<std::pair<double, std::string>> regions;
  regions.reserve(shards_.size());
  for (const auto& [region, shard] : shards_) {
    if (excluded_regions.count(region) != 0) continue;
    regions.push_back(
        {region_weight(shard.total_load, shard.total_cores), region});
  }
  std::sort(regions.begin(), regions.end());
  for (const auto& [weight, region] : regions) {
    const RegionShard& shard = shards_.at(region);
    for (const auto& entry : shard.by_weight) {
      if (machine_blocked(entry.second) || avoid.count(entry.second) != 0) {
        continue;
      }
      return entry.second;
    }
  }
  // Pass 2: soft-avoided fallback, ranked by (region weight, region,
  // machine weight, address) — the brute-force order for avoided
  // candidates.
  std::string pick;
  double pick_region_weight = 0;
  std::string pick_region;
  double pick_machine_weight = 0;
  for (const std::string& address : query.avoid) {
    auto it = entries_.find(address);
    if (it == entries_.end() || machine_blocked(address) ||
        excluded_regions.count(it->second.region) != 0) {
      continue;
    }
    const RegionShard& shard = shards_.at(it->second.region);
    const double rw = region_weight(shard.total_load, shard.total_cores);
    const double mw = capacity_weight(
        it->second.load + it->second.reserved, it->second.cores);
    const bool better =
        pick.empty() || rw < pick_region_weight ||
        (rw == pick_region_weight &&
         (it->second.region < pick_region ||
          (it->second.region == pick_region &&
           (mw < pick_machine_weight ||
            (mw == pick_machine_weight && address < pick)))));
    if (better) {
      pick = address;
      pick_region_weight = rw;
      pick_region = it->second.region;
      pick_machine_weight = mw;
    }
  }
  return pick;
}

size_t Scheduler::index_bytes() const {
  size_t bytes = reservations_.size() *
                 (sizeof(std::string) + sizeof(uint32_t) + 3 * sizeof(void*));
  for (const auto& [address, entry] : entries_) {
    bytes += address.size() + entry.region.size() + sizeof(IndexEntry) +
             3 * sizeof(void*);
  }
  for (const auto& [region, shard] : shards_) {
    bytes += region.size() + sizeof(RegionShard);
    bytes += shard.by_load.size() *
             (sizeof(std::pair<uint32_t, std::string>) + 3 * sizeof(void*));
    bytes += shard.by_weight.size() *
             (sizeof(std::pair<double, std::string>) + 3 * sizeof(void*));
    for (const auto& entry : shard.by_load) bytes += entry.second.size();
    for (const auto& entry : shard.by_weight) bytes += entry.second.size();
  }
  return bytes;
}

}  // namespace sgxmig::orchestrator
