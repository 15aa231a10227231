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
