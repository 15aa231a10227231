#include "migration/library_state.h"

#include "support/serde.h"

namespace sgxmig::migration {

namespace {
// The only layout written or read; a legacy lineage is epoch_active == 0.
constexpr char kMagicV2[] = "SGXMIG-LIBSTATE-v2";
}  // namespace

Bytes LibraryState::serialize() const {
  BinaryWriter w;
  w.str(kMagicV2);
  w.u8(frozen);
  for (bool active : counters_active) w.u8(active ? 1 : 0);
  for (const auto& uuid : counter_uuids) sgx::serialize_uuid(w, uuid);
  for (uint32_t offset : counter_offsets) w.u32(offset);
  w.fixed(msk);
  w.u8(epoch_active);
  sgx::serialize_uuid(w, epoch_uuid);
  w.u32(epoch_value);
  return w.take();
}

Result<LibraryState> LibraryState::deserialize(ByteView bytes) {
  BinaryReader r(bytes);
  if (r.str(64) != kMagicV2) return Status::kTampered;
  LibraryState state;
  state.frozen = r.u8();
  for (auto& active : state.counters_active) active = r.u8() != 0;
  for (auto& uuid : state.counter_uuids) uuid = sgx::deserialize_uuid(r);
  for (auto& offset : state.counter_offsets) offset = r.u32();
  state.msk = r.fixed<16>();
  state.epoch_active = r.u8();
  state.epoch_uuid = sgx::deserialize_uuid(r);
  state.epoch_value = r.u32();
  if (!r.done()) return Status::kTampered;
  return state;
}

size_t LibraryState::active_count() const {
  size_t n = 0;
  for (bool active : counters_active) {
    if (active) ++n;
  }
  return n;
}

size_t LibraryState::free_slot() const {
  for (size_t i = 0; i < counters_active.size(); ++i) {
    if (!counters_active[i]) return i;
  }
  return kMaxCounters;
}

}  // namespace sgxmig::migration
