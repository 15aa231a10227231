#include "migration/library_state.h"

#include <algorithm>

namespace sgxmig::migration {

namespace {
/// First slot whose index is not below `index` (slots are sorted).
std::vector<ActiveSlot>::iterator first_at_or_after(
    std::vector<ActiveSlot>& slots, uint32_t index) {
  return std::lower_bound(
      slots.begin(), slots.end(), index,
      [](const ActiveSlot& slot, uint32_t i) { return slot.index < i; });
}
}  // namespace

Result<LibraryState> restorable_state(sgx::UnsealedData& unsealed,
                                      const GuardReader& read_guard) {
  if (to_string(unsealed.aad) != kLibraryStateAad) return Status::kTampered;
  auto state = decode_record<LibraryState>(unsealed.plaintext);
  secure_wipe(unsealed.plaintext);  // the MSK, every UUID
  if (!state.ok()) return state.status();
  // Freeze flag check: if this enclave's state was migrated away, the
  // library refuses to operate (prevents the §III-B fork).
  if (state.value().frozen != 0) return Status::kMigrationFrozen;
  if (state.value().epoch_active == 0) return state;  // legacy lineage
  // Epoch guard check: a buffer whose guard is gone is a rollback across
  // a migration (the guard died with the counters before the data left;
  // a destroyed or retired guard reads as not found) — refuse exactly
  // like a frozen buffer.
  auto guard = read_guard(state.value().epoch_uuid);
  if (guard.status() == Status::kCounterNotFound ||
      (guard.ok() && guard.value() != state.value().epoch_value)) {
    return Status::kMigrationFrozen;
  }
  if (!guard.ok()) return guard.status();
  return state;
}

ResidentState ResidentState::from_wire(const LibraryState& state) {
  ResidentState out;
  out.frozen = state.frozen;
  out.msk = state.msk;
  out.epoch_active = state.epoch_active;
  out.epoch_uuid = state.epoch_uuid;
  out.epoch_value = state.epoch_value;
  // Sized exactly: a restored library holds its slots for its lifetime.
  out.slots.reserve(static_cast<size_t>(std::count(
      state.counters_active.begin(), state.counters_active.end(), true)));
  for (uint32_t i = 0; i < kMaxCounters; ++i) {
    if (!state.counters_active[i]) continue;
    out.slots.push_back(
        {i, state.counter_uuids[i], state.counter_offsets[i], std::nullopt});
  }
  return out;
}

LibraryState ResidentState::to_wire() const {
  LibraryState state;
  state.frozen = frozen;
  state.msk = msk;
  state.epoch_active = epoch_active;
  state.epoch_uuid = epoch_uuid;
  state.epoch_value = epoch_value;
  for (const ActiveSlot& slot : slots) {
    state.counters_active[slot.index] = true;
    state.counter_uuids[slot.index] = slot.uuid;
    state.counter_offsets[slot.index] = slot.offset;
  }
  return state;
}

size_t ResidentState::memory_bytes() const {
  return slots.capacity() * sizeof(ActiveSlot);
}

ActiveSlot* ResidentState::find(uint32_t index) {
  const auto it = first_at_or_after(slots, index);
  return it != slots.end() && it->index == index ? &*it : nullptr;
}

size_t ResidentState::free_slot() const {
  // Slots are sorted and distinct, so the first position whose index
  // exceeds its position is the lowest gap.
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].index != i) return i;
  }
  return slots.size();  // kMaxCounters when every slot is active
}

ActiveSlot& ResidentState::activate(uint32_t index) {
  return *slots.insert(first_at_or_after(slots, index),
                       ActiveSlot{index, {}, 0, std::nullopt});
}

void ResidentState::deactivate(uint32_t index) {
  const auto it = first_at_or_after(slots, index);
  if (it != slots.end() && it->index == index) slots.erase(it);
}

}  // namespace sgxmig::migration
