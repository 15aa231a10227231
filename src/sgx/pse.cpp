#include "sgx/pse.h"

#include <limits>
#include <utility>

namespace sgxmig::sgx {

Result<CreatedCounter> MonotonicCounterService::create(
    const Measurement& owner, ByteView nonce_entropy) {
  // One lookup: a new owner's count goes in at 0 and nothing between here
  // and its increment below can fail, so the table keeps no zero count.
  Owner& slots = *owners_.try_emplace(owner, 0).first;
  if (slots.second >= kMaxCountersPerEnclave) {
    return Status::kCounterQuotaExceeded;
  }
  Slot& slot = table_.emplace_back();
  slot.owner_bits = reinterpret_cast<uintptr_t>(&slots);
  for (size_t i = 0; i < slot.nonce.size() && i < nonce_entropy.size(); ++i) {
    slot.nonce[i] = nonce_entropy[i];
  }
  ++slots.second;
  CreatedCounter created;
  created.uuid.counter_id = next_id_++;
  created.uuid.nonce = slot.nonce;
  created.value = 0;
  return created;
}

const MonotonicCounterService::Slot* MonotonicCounterService::find(
    const Measurement& owner, const CounterUuid& uuid) const {
  // Ids below the table were trimmed; none above it was allocated.
  const uint32_t first_id = next_id_ - static_cast<uint32_t>(table_.size());
  if (uuid.counter_id < first_id || uuid.counter_id >= next_id_) {
    return nullptr;
  }
  const Slot& slot = table_[uuid.counter_id - first_id];
  // A retired counter is logically destroyed: indistinguishable from a
  // gone one to every caller, even before the reclaim sweep runs.
  if (slot.dead() || slot.retired()) return nullptr;
  // The nonce check is what prevents another enclave from touching the
  // counter even if it learns the id; the owner check mirrors the PSE
  // binding of counters to the creating enclave.
  if (slot.nonce != uuid.nonce || slot.owner()->first != owner) return nullptr;
  return &slot;
}

MonotonicCounterService::Slot* MonotonicCounterService::find(
    const Measurement& owner, const CounterUuid& uuid) {
  return const_cast<Slot*>(std::as_const(*this).find(owner, uuid));
}

Result<uint32_t> MonotonicCounterService::read(const Measurement& owner,
                                               const CounterUuid& uuid) const {
  const Slot* slot = find(owner, uuid);
  if (slot == nullptr) return Status::kCounterNotFound;
  return slot->value;
}

Result<uint32_t> MonotonicCounterService::increment(const Measurement& owner,
                                                    const CounterUuid& uuid) {
  Slot* slot = find(owner, uuid);
  if (slot == nullptr) return Status::kCounterNotFound;
  if (slot->value == std::numeric_limits<uint32_t>::max()) {
    return Status::kCounterOverflow;
  }
  return ++slot->value;
}

Status MonotonicCounterService::destroy(const Measurement& owner,
                                        const CounterUuid& uuid) {
  Slot* slot = find(owner, uuid);
  if (slot == nullptr) return Status::kCounterNotFound;
  release(*slot);
  trim_dead_prefix();
  return Status::kOk;
}

size_t MonotonicCounterService::retire(const Measurement& owner,
                                      const std::vector<CounterUuid>& uuids) {
  size_t n = 0;
  for (const CounterUuid& uuid : uuids) {
    Slot* slot = find(owner, uuid);
    if (slot == nullptr) continue;
    slot->owner_bits |= 1;
    ++n;
  }
  retired_ += n;
  return n;
}

size_t MonotonicCounterService::reclaim_retired() {
  const size_t n = retired_;
  for (auto it = table_.begin(); retired_ != 0; ++it) {
    if (!it->retired()) continue;
    release(*it);
    --retired_;
  }
  trim_dead_prefix();
  return n;
}

size_t MonotonicCounterService::count_for(const Measurement& owner) const {
  const auto it = owners_.find(owner);
  return it == owners_.end() ? 0 : it->second;
}

size_t MonotonicCounterService::memory_bytes() const {
  // A map node is its value plus the tree's parent, child and colour words.
  constexpr size_t kOwnerNode = sizeof(Owner) + 4 * sizeof(void*);
  return table_.size() * sizeof(Slot) + owners_.size() * kOwnerNode;
}

void MonotonicCounterService::release(Slot& slot) {
  Owner* owner = slot.owner();
  slot.owner_bits = 0;
  if (--owner->second == 0) {
    const Measurement mr = owner->first;
    owners_.erase(mr);
  }
}

void MonotonicCounterService::trim_dead_prefix() {
  while (!table_.empty() && table_.front().dead()) table_.pop_front();
}

}  // namespace sgxmig::sgx
