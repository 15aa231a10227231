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
//
// LibraryState is that buffer's wire record, dense over all 256 slots.
// In enclave memory the library keeps ResidentState instead: the same
// scalar fields and only the active slots.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <vector>

#include "migration/migration_data.h"
#include "sgx/pse.h"
#include "sgx/sealing.h"
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
    io.u8(m.frozen, uint8_t{0}, uint8_t{1});
    for (auto& active : m.counters_active) io.u8(active);
    for (auto& uuid : m.counter_uuids) io.record(uuid);
    for (auto& offset : m.counter_offsets) io.u32(offset);
    io.fixed(m.msk);
    io.u8(m.epoch_active, uint8_t{0}, uint8_t{1});
    io.record(m.epoch_uuid);
    io.u32(m.epoch_value);
  }
};

/// The additional MAC text of every sealed Table II.
inline constexpr char kLibraryStateAad[] = "SGXMIG-ML-STATE";

/// Reads an epoch guard's hardware value.
using GuardReader = std::function<Result<uint32_t>(const sgx::CounterUuid&)>;

/// The restore rule of §VI-B "Persistent data", over an unsealed buffer:
/// kTampered unless it is a Table II; kMigrationFrozen when it carries the
/// freeze flag, or when its epoch guard is gone or holds another value
/// than the one it was sealed under (the enclave migrated away since).
/// `read_guard` is asked only for an unfrozen, guarded buffer.  Wipes the
/// plaintext; on kOk returns the decoded record.
Result<LibraryState> restorable_state(sgx::UnsealedData& unsealed,
                                      const GuardReader& read_guard);

/// One active Table II slot as the library holds it in memory.
struct ActiveSlot {
  uint32_t index = 0;  // the slot's position in Table II (the counter id)
  sgx::CounterUuid uuid{};
  uint32_t offset = 0;
  // Cache of the hardware counter's value (filled by create/read/
  // increment).  Lets the increment overflow check run without an extra
  // Platform Services round trip; safe because this library instance is
  // the counter's only user (the UUID nonce is sealed in Table II).
  std::optional<uint32_t> hw_value;
};

/// Table II as the library keeps it in enclave memory: LibraryState's
/// scalar fields plus only the ACTIVE slots, in ascending index order, so
/// every walk over them visits slots in Table II order.  The library
/// zeroes a slot when it destroys the counter, so an inactive slot of the
/// wire record is all zeros and dropping it loses nothing:
/// from_wire(s).to_wire() serializes to the bytes of s.
struct ResidentState {
  uint8_t frozen = 0;
  sgx::Key128 msk{};
  uint8_t epoch_active = 0;
  sgx::CounterUuid epoch_uuid{};
  uint32_t epoch_value = 0;
  std::vector<ActiveSlot> slots;

  /// Keeps the active slots of `state`, with cold hardware-value caches.
  static ResidentState from_wire(const LibraryState& state);
  /// The dense wire record, built to be sealed.
  LibraryState to_wire() const;
  /// Heap bytes the slot vector holds.
  size_t memory_bytes() const;

  /// The active slot `index`, or nullptr.
  ActiveSlot* find(uint32_t index);
  /// Lowest free slot, or kMaxCounters when full.
  size_t free_slot() const;
  /// Activates slot `index` (must be free), keeping the index order.
  ActiveSlot& activate(uint32_t index);
  /// Deactivates slot `index` (no-op when free).
  void deactivate(uint32_t index);
};

/// A blob sealed under the MSK (§VI-B "Sealing"): no key request rides
/// along, because the MSK is the one key and migrates with the enclave.
struct MskSealedBlob {
  std::array<uint8_t, 12> iv{};
  std::array<uint8_t, 16> tag{};
  Bytes aad;
  Bytes ciphertext;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.magic("SGXMIG-MSK-SEALED-v1", 64);
    io.fixed(m.iv);
    io.fixed(m.tag);
    io.bytes(m.aad, BinaryReader::kDefaultMaxLen);
    io.bytes(m.ciphertext, BinaryReader::kDefaultMaxLen);
  }
};

}  // namespace sgxmig::migration
