// The migrated-data structure — paper Table I.
//
//   Name             Type          Description
//   counters active  bool[256]     Shows used counters
//   counter values   uint32[256]   Used as next offset
//   MSK              128-bit key   Used by migratable seal
//
// This is everything that leaves the source enclave during a migration: it
// travels Migration Library -> source ME -> destination ME -> destination
// Migration Library, always inside attestation-derived secure channels.
#pragma once

#include <array>
#include <cstdint>

#include "sgx/pse.h"
#include "sgx/types.h"
#include "support/bytes.h"
#include "support/serde.h"
#include "support/status.h"

namespace sgxmig::migration {

inline constexpr size_t kMaxCounters =
    sgx::MonotonicCounterService::kMaxCountersPerEnclave;

struct MigrationData {
  std::array<bool, kMaxCounters> counters_active{};
  std::array<uint32_t, kMaxCounters> counter_values{};  // next offsets
  sgx::Key128 msk{};

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.magic("SGXMIG-MIGDATA-v1", 64);
    for (auto& active : m.counters_active) io.u8(active);
    for (auto& value : m.counter_values) io.u32(value);
    io.fixed(m.msk);
  }
  Bytes serialize() const { return encode_record(*this); }
  static Result<MigrationData> deserialize(ByteView b) {
    return decode_record<MigrationData>(b);
  }

  size_t active_count() const;
  bool operator==(const MigrationData&) const = default;
};

}  // namespace sgxmig::migration
