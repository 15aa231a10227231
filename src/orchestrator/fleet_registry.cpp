#include "orchestrator/fleet_registry.h"

namespace sgxmig::orchestrator {

namespace {

void install_persist_callback(migration::MigratableEnclave& enclave,
                              platform::Machine& machine,
                              const std::string& key) {
  // The store shares the library's sealed buffer instead of copying it.
  enclave.set_persist_callback(
      [&machine, key](const SharedBytes& sealed_state) {
        machine.storage().put(key, sealed_state);
      });
}

/// Changelog entries kept before compaction.  Large enough that a
/// scheduler syncing once per placement decision never falls behind;
/// small enough that an idle subscriber cannot make the log grow with
/// the drain length.
constexpr size_t kChangelogCompactLimit = 4096;

}  // namespace

Result<uint64_t> FleetRegistry::launch(
    const std::string& machine_address, const std::string& name,
    std::shared_ptr<const sgx::EnclaveImage> image,
    const LaunchOptions& options) {
  platform::Machine* machine = world_.machine(machine_address);
  if (machine == nullptr || image == nullptr) {
    return Status::kInvalidParameter;
  }
  if (names_.count(name) != 0) return Status::kAlreadyExists;

  auto enclave = std::make_unique<migration::MigratableEnclave>(
      *machine, image, options.live_transfer);
  install_persist_callback(*enclave, *machine, storage_key(name));
  const Status init = enclave->ecall_migration_init(
      ByteView(), migration::InitState::kNew, machine_address);
  if (init != Status::kOk) return init;
  machine->storage().put(storage_key(name), enclave->sealed_state());

  EnclaveRecord record;
  record.id = next_id_++;
  record.name = name;
  record.image = std::move(image);
  record.machine = machine_address;
  record.options = options;
  record.enclave = std::move(enclave);
  const uint64_t id = record.id;
  auto [it, inserted] = records_.emplace(id, std::move(record));
  (void)inserted;
  index_insert(it->second);
  return id;
}

Status FleetRegistry::complete_move(uint64_t id,
                                    const std::string& destination_address) {
  auto it = records_.find(id);
  if (it == records_.end()) return Status::kInvalidParameter;
  EnclaveRecord& record = it->second;
  platform::Machine* destination = world_.machine(destination_address);
  if (destination == nullptr) return Status::kInvalidParameter;

  // Bring the destination instance up BEFORE retiring the frozen source
  // object: if fetching the incoming data fails (destination ME crashed
  // and lost its pending copy, network partition, ...), nothing is lost —
  // the source ME still retains the data (§V-D) and the caller decides
  // what to do next.  A warm instance here already holds the counters.
  std::unique_ptr<migration::MigratableEnclave> next;
  if (const auto warm = warm_.find(id); warm != warm_.end()) {
    if (warm->second.machine == destination_address) {
      next = std::move(warm->second.enclave);
    } else {
      warm->second.enclave->ecall_retire_warm_set();
    }
    warm_.erase(warm);
  }
  if (next == nullptr) {
    next = std::make_unique<migration::MigratableEnclave>(
        *destination, record.image, record.options.live_transfer);
    install_persist_callback(*next, *destination, storage_key(record.name));
  }
  const Status init = next->ecall_migration_init(
      ByteView(), migration::InitState::kMigrate, destination_address);
  // A refused or failed init leaves the warm set unconsumed: the retry
  // restores cold.
  if (init != Status::kOk && next->warm_nonce() != 0) {
    next->ecall_retire_warm_set();
  }
  bool salvaged = false;
  if (init == Status::kNoPendingMigration) {
    // Confirm-ack loss salvage (§V-D): a previous destination instance
    // may have fetched, applied (apply_incoming force-persists the
    // restored state into this machine's storage), and CONFIRMED — which
    // erased the ME's pending entry — and then been discarded because
    // every ConfirmAck reply was lost.  If that durable blob exists,
    // restore from it instead of failing the migration.  Safe against
    // stale blobs from an EARLIER visit to this machine: migrating away
    // set their freeze flag / bumped the epoch guard, so kRestore refuses
    // them and the original error stands.
    auto persisted = destination->storage().get(storage_key(record.name));
    if (persisted.ok()) {
      auto salvage = std::make_unique<migration::MigratableEnclave>(
          *destination, record.image, record.options.live_transfer);
      install_persist_callback(*salvage, *destination,
                               storage_key(record.name));
      if (salvage->ecall_migration_init(persisted.value(),
                                        migration::InitState::kRestore,
                                        destination_address) == Status::kOk) {
        next = std::move(salvage);
        salvaged = true;
      }
    }
  }
  if (init != Status::kOk && !salvaged) return init;
  destination->storage().put(storage_key(record.name), next->sealed_state());

  index_erase(record);  // still indexed under the source machine
  record.enclave = std::move(next);  // destroys the frozen source instance
  record.machine = destination_address;
  ++record.completed_migrations;
  index_insert(record);
  if (completion_callback_) completion_callback_(record);
  return Status::kOk;
}

Status FleetRegistry::warm_up(uint64_t id,
                              const std::string& destination_address) {
  const auto it = records_.find(id);
  platform::Machine* destination = world_.machine(destination_address);
  if (it == records_.end() || destination == nullptr) {
    return Status::kInvalidParameter;
  }
  retire_warm(id);
  const EnclaveRecord& record = it->second;
  auto warm = std::make_unique<migration::MigratableEnclave>(
      *destination, record.image, record.options.live_transfer);
  install_persist_callback(*warm, *destination, storage_key(record.name));
  const Status status = warm->ecall_migration_warm_up(destination_address);
  if (status != Status::kOk) return status;
  warm_[id] = WarmInstance{destination_address, std::move(warm)};
  return Status::kOk;
}

void FleetRegistry::retire_warm(uint64_t id) {
  const auto warm = warm_.find(id);
  if (warm == warm_.end()) return;
  warm->second.enclave->ecall_retire_warm_set();
  warm_.erase(warm);
}

bool FleetRegistry::pse_room(uint64_t id,
                             const std::string& machine_address) const {
  const EnclaveRecord* record = find(id);
  platform::Machine* machine = world_.machine(machine_address);
  if (record == nullptr || record->enclave == nullptr || machine == nullptr) {
    return false;
  }
  return machine->counter_service().count_for(record->image->mr_enclave()) +
             record->enclave->active_counters() + 1 <=
         sgx::MonotonicCounterService::kMaxCountersPerEnclave;
}

Status FleetRegistry::retire(uint64_t id) {
  auto it = records_.find(id);
  if (it == records_.end()) return Status::kInvalidParameter;
  retire_warm(id);
  index_erase(it->second);
  records_.erase(it);
  return Status::kOk;
}

const EnclaveRecord* FleetRegistry::find(uint64_t id) const {
  auto it = records_.find(id);
  return it == records_.end() ? nullptr : &it->second;
}

migration::MigratableEnclave* FleetRegistry::enclave(uint64_t id) {
  const EnclaveRecord* record = find(id);
  return record == nullptr ? nullptr : record->enclave.get();
}

std::vector<uint64_t> FleetRegistry::all_ids() const {
  std::vector<uint64_t> out;
  out.reserve(records_.size());
  for (const auto& [id, record] : records_) out.push_back(id);
  return out;
}

std::vector<uint64_t> FleetRegistry::ids_on(
    const std::string& machine_address) const {
  auto it = ids_by_machine_.find(machine_address);
  if (it == ids_by_machine_.end()) return {};
  return std::vector<uint64_t>(it->second.begin(), it->second.end());
}

std::vector<uint64_t> FleetRegistry::ids_in_region(
    const std::string& region) const {
  auto it = ids_by_region_.find(region);
  if (it == ids_by_region_.end()) return {};
  return std::vector<uint64_t>(it->second.begin(), it->second.end());
}

size_t FleetRegistry::count_on(const std::string& machine_address) const {
  auto it = ids_by_machine_.find(machine_address);
  return it == ids_by_machine_.end() ? 0 : it->second.size();
}

bool FleetRegistry::hosts_image(const std::string& machine_address,
                                const sgx::Measurement& mr) const {
  auto it = images_by_machine_.find(machine_address);
  if (it == images_by_machine_.end()) return false;
  auto image_it = it->second.find(mr);
  return image_it != it->second.end() && image_it->second > 0;
}

bool FleetRegistry::replay_load_changes(
    uint64_t& cursor,
    const std::function<void(const std::string&, uint32_t)>& fn) const {
  if (cursor < changelog_base_) return false;  // compacted past the cursor
  for (size_t i = cursor - changelog_base_; i < load_changelog_.size(); ++i) {
    fn(load_changelog_[i].first, load_changelog_[i].second);
  }
  cursor = load_version();
  return true;
}

size_t FleetRegistry::index_bytes() const {
  size_t bytes = names_.size() * sizeof(std::string);
  for (const auto& [machine, ids] : ids_by_machine_) {
    bytes += machine.size() + ids.size() * sizeof(uint64_t);
  }
  for (const auto& [region, ids] : ids_by_region_) {
    bytes += region.size() + ids.size() * sizeof(uint64_t);
  }
  for (const auto& [machine, images] : images_by_machine_) {
    bytes += machine.size() +
             images.size() * (sizeof(sgx::Measurement) + sizeof(uint32_t));
  }
  bytes += load_changelog_.capacity() *
           sizeof(std::pair<std::string, uint32_t>);
  return bytes;
}

void FleetRegistry::index_insert(const EnclaveRecord& record) {
  names_.insert(record.name);
  ids_by_machine_[record.machine].insert(record.id);
  if (const platform::Machine* m = world_.machine(record.machine)) {
    ids_by_region_[m->region()].insert(record.id);
  }
  if (record.image != nullptr) {
    ++images_by_machine_[record.machine][record.image->mr_enclave()];
  }
  record_load_change(record.machine);
}

void FleetRegistry::index_erase(const EnclaveRecord& record) {
  names_.erase(record.name);
  auto machine_it = ids_by_machine_.find(record.machine);
  if (machine_it != ids_by_machine_.end()) {
    machine_it->second.erase(record.id);
    if (machine_it->second.empty()) ids_by_machine_.erase(machine_it);
  }
  if (const platform::Machine* m = world_.machine(record.machine)) {
    auto region_it = ids_by_region_.find(m->region());
    if (region_it != ids_by_region_.end()) {
      region_it->second.erase(record.id);
      if (region_it->second.empty()) ids_by_region_.erase(region_it);
    }
  }
  if (record.image != nullptr) {
    auto images_it = images_by_machine_.find(record.machine);
    if (images_it != images_by_machine_.end()) {
      auto image_it = images_it->second.find(record.image->mr_enclave());
      if (image_it != images_it->second.end() && --image_it->second == 0) {
        images_it->second.erase(image_it);
      }
      if (images_it->second.empty()) images_by_machine_.erase(images_it);
    }
  }
  record_load_change(record.machine);
}

void FleetRegistry::record_load_change(const std::string& machine_address) {
  load_changelog_.emplace_back(
      machine_address, static_cast<uint32_t>(count_on(machine_address)));
  if (load_changelog_.size() > kChangelogCompactLimit) {
    changelog_base_ += load_changelog_.size();
    load_changelog_.clear();
  }
}

}  // namespace sgxmig::orchestrator
