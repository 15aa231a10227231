#include "sgx/pse.h"

#include <limits>

namespace sgxmig::sgx {

Result<CreatedCounter> MonotonicCounterService::create(
    const Measurement& owner, ByteView nonce_entropy) {
  // One lookup: a new owner's count goes in at 0 and nothing between here
  // and its increment below can fail, so the map keeps no zero count.
  const auto slots = owner_counts_.try_emplace(owner, 0).first;
  if (slots->second >= kMaxCountersPerEnclave) {
    return Status::kCounterQuotaExceeded;
  }
  Entry entry;
  entry.owner = owner;
  entry.value = 0;
  for (size_t i = 0; i < entry.nonce.size() && i < nonce_entropy.size(); ++i) {
    entry.nonce[i] = nonce_entropy[i];
  }
  CreatedCounter created;
  created.uuid.counter_id = next_id_++;
  created.uuid.nonce = entry.nonce;
  created.value = 0;
  // Ids only increase, so each new counter goes at the end.
  counters_.emplace_hint(counters_.end(), created.uuid.counter_id, entry);
  ++slots->second;
  return created;
}

const MonotonicCounterService::Entry* MonotonicCounterService::find(
    const Measurement& owner, const CounterUuid& uuid) const {
  const auto it = counters_.find(uuid.counter_id);
  if (it == counters_.end()) return nullptr;
  // The nonce check is what prevents another enclave from touching the
  // counter even if it learns the id; the owner check mirrors the PSE
  // binding of counters to the creating enclave.
  if (it->second.nonce != uuid.nonce || !(it->second.owner == owner)) {
    return nullptr;
  }
  // A retired counter is logically destroyed: indistinguishable from a
  // gone one to every caller, even before the reclaim sweep runs.
  if (it->second.retired) return nullptr;
  return &it->second;
}

Result<uint32_t> MonotonicCounterService::read(const Measurement& owner,
                                               const CounterUuid& uuid) const {
  const Entry* entry = find(owner, uuid);
  if (entry == nullptr) return Status::kCounterNotFound;
  return entry->value;
}

Result<uint32_t> MonotonicCounterService::increment(const Measurement& owner,
                                                    const CounterUuid& uuid) {
  const Entry* entry = find(owner, uuid);
  if (entry == nullptr) return Status::kCounterNotFound;
  auto& mutable_entry = counters_.at(uuid.counter_id);
  if (mutable_entry.value == std::numeric_limits<uint32_t>::max()) {
    return Status::kCounterOverflow;
  }
  return ++mutable_entry.value;
}

Status MonotonicCounterService::destroy(const Measurement& owner,
                                        const CounterUuid& uuid) {
  if (find(owner, uuid) == nullptr) return Status::kCounterNotFound;
  counters_.erase(uuid.counter_id);
  release_slot(owner);
  return Status::kOk;
}

size_t MonotonicCounterService::retire(const Measurement& owner,
                                      const std::vector<CounterUuid>& uuids) {
  size_t n = 0;
  for (const CounterUuid& uuid : uuids) {
    if (find(owner, uuid) == nullptr) continue;
    counters_.at(uuid.counter_id).retired = true;
    ++n;
  }
  return n;
}

size_t MonotonicCounterService::reclaim_retired() {
  size_t n = 0;
  for (auto it = counters_.begin(); it != counters_.end();) {
    if (it->second.retired) {
      release_slot(it->second.owner);
      it = counters_.erase(it);
      ++n;
    } else {
      ++it;
    }
  }
  return n;
}

size_t MonotonicCounterService::retired_count() const {
  size_t n = 0;
  for (const auto& [id, entry] : counters_) {
    if (entry.retired) ++n;
  }
  return n;
}

size_t MonotonicCounterService::count_for(const Measurement& owner) const {
  const auto it = owner_counts_.find(owner);
  return it == owner_counts_.end() ? 0 : it->second;
}

void MonotonicCounterService::release_slot(const Measurement& owner) {
  const auto it = owner_counts_.find(owner);
  if (--it->second == 0) owner_counts_.erase(it);
}

}  // namespace sgxmig::sgx
