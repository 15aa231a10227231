// The Migration Library's persistent internals — paper Table II.
//
//   Name             Type               Description
//   frozen           uint8              Freeze flag for migration
//   counters active  bool[256]          Shows used counters
//   counter uuids    SGX counter[256]   UUIDs of the SGX counters
//   counter offsets  uint32[256]        Offsets of the counters
//   MSK              128-bit key        Used by migratable seal
//
// The library seals this buffer (with the host enclave's standard sealing
// key) and hands it to the untrusted application for storage; on every
// enclave start the application passes it back to migration_init().  If
// `frozen` is set — the enclave was migrated away — the library refuses to
// operate (§VI-B "Persistent data").
#pragma once

#include <array>

#include "migration/migration_data.h"
#include "sgx/pse.h"
#include "support/bytes.h"
#include "support/serde.h"
#include "support/status.h"

namespace sgxmig::migration {

struct LibraryState {
  uint8_t frozen = 0;
  std::array<bool, kMaxCounters> counters_active{};
  std::array<sgx::CounterUuid, kMaxCounters> counter_uuids{};
  std::array<uint32_t, kMaxCounters> counter_offsets{};
  sgx::Key128 msk{};

  // ----- epoch guard (live-transfer capability, paper-plus) -----
  //
  // One extra hardware counter, the fork sentinel, whose current value is
  // recorded in every sealed buffer.  Restore refuses a buffer whose guard
  // is gone or holds another value (kMigrationFrozen): migration_finalize
  // retires the guard with the instance's counters in ONE PSE op, which
  // invalidates every previously sealed Table II in constant time instead
  // of a destroy per counter inside the freeze window.  Created at init
  // only when the library is constructed live-transfer capable; legacy
  // enclaves (epoch_active == 0) keep the paper's exact semantics.
  uint8_t epoch_active = 0;
  sgx::CounterUuid epoch_uuid{};
  uint32_t epoch_value = 0;  // hardware value this buffer was sealed under

  /// The only layout written or read; a legacy lineage is epoch_active == 0.
  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.magic("SGXMIG-LIBSTATE-v2", 64);
    io.u8(m.frozen);
    for (auto& active : m.counters_active) io.u8(active);
    for (auto& uuid : m.counter_uuids) io.record(uuid);
    for (auto& offset : m.counter_offsets) io.u32(offset);
    io.fixed(m.msk);
    io.u8(m.epoch_active);
    io.record(m.epoch_uuid);
    io.u32(m.epoch_value);
  }
  Bytes serialize() const { return encode_record(*this); }
  static Result<LibraryState> deserialize(ByteView b) {
    return decode_record<LibraryState>(b);
  }

  size_t active_count() const;
  /// Lowest free slot, or kMaxCounters when full.
  size_t free_slot() const;
};

}  // namespace sgxmig::migration
