#include "apps/kvstore.h"

#include "apps/state_version.h"
#include "support/serde.h"

namespace sgxmig::apps {

namespace {
constexpr char kStateLabel[] = "kvstore-state";
}  // namespace

Status KvStoreEnclave::ecall_setup() {
  auto scope = enter_ecall();
  if (setup_done_) return Status::kAlreadyExists;
  auto counter = library().create_migratable_counter();
  if (!counter.ok()) return counter.status();
  state_.version_counter = counter.value().counter_id;
  setup_done_ = true;
  return Status::kOk;
}

Status KvStoreEnclave::ecall_put(const std::string& key, ByteView value) {
  auto scope = enter_ecall();
  if (!setup_done_) return Status::kNotInitialized;
  if (library().frozen()) return Status::kMigrationFrozen;
  state_.entries[key] = to_bytes(value);
  return Status::kOk;
}

Result<Bytes> KvStoreEnclave::ecall_get(const std::string& key) {
  auto scope = enter_ecall();
  if (!setup_done_) return Status::kNotInitialized;
  if (library().frozen()) return Status::kMigrationFrozen;
  const auto it = state_.entries.find(key);
  if (it == state_.entries.end()) return Status::kStorageMissing;
  return it->second;
}

Status KvStoreEnclave::ecall_erase(const std::string& key) {
  auto scope = enter_ecall();
  if (!setup_done_) return Status::kNotInitialized;
  if (library().frozen()) return Status::kMigrationFrozen;
  return state_.entries.erase(key) != 0 ? Status::kOk : Status::kStorageMissing;
}

Result<uint64_t> KvStoreEnclave::ecall_size() {
  auto scope = enter_ecall();
  if (!setup_done_) return Status::kNotInitialized;
  return static_cast<uint64_t>(state_.entries.size());
}

Result<Bytes> KvStoreEnclave::ecall_persist() {
  auto scope = enter_ecall();
  if (!setup_done_) return Status::kNotInitialized;
  return seal_versioned(library(), kStateLabel, state_);
}

Status KvStoreEnclave::ecall_restore(ByteView blob) {
  auto scope = enter_ecall();
  if (setup_done_) return Status::kInvalidState;
  auto state = unseal_versioned<KvStoreState>(library(), kStateLabel, blob);
  if (!state.ok()) return state.status();
  state_ = std::move(state).value();
  setup_done_ = true;
  return Status::kOk;
}

}  // namespace sgxmig::apps
