// Platform Services monotonic counters.
//
// Models the Intel Platform Services Enclave + Management Engine counter
// store with the invariants the paper's security argument needs:
//   * counters are machine-local and survive enclave restarts and reboots
//     (they live in ME flash, here: in the Machine-owned service);
//   * a counter UUID = (counter id, nonce); the nonce gates access to the
//     creating enclave identity, and counter ids are never reused, so a
//     destroyed counter can never be resurrected with a lower value;
//   * each enclave identity may own at most 256 counters;
//   * values only move upward; increments saturate/fail at uint32 max.
//
// Latency: every operation charges the Management-Engine flash cost from
// the CostModel (plus the PSE IPC path cost set by the access path), which
// is what gives Fig. 3 its absolute scale.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "sgx/types.h"
#include "support/bytes.h"
#include "support/serde.h"
#include "support/status.h"

namespace sgxmig::sgx {

struct CounterUuid {
  uint32_t counter_id = 0;
  std::array<uint8_t, 12> nonce{};

  bool operator==(const CounterUuid&) const = default;

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u32(m.counter_id);
    io.fixed(m.nonce);
  }
};

struct CreatedCounter {
  CounterUuid uuid;
  uint32_t value = 0;
};

/// The machine-local counter service (PSE backend).
class MonotonicCounterService {
 public:
  static constexpr size_t kMaxCountersPerEnclave = 256;

  /// Creates a counter owned by `owner` (the creating enclave's
  /// MRENCLAVE).  `nonce_entropy` feeds the UUID nonce.
  Result<CreatedCounter> create(const Measurement& owner, ByteView nonce_entropy);

  Result<uint32_t> read(const Measurement& owner, const CounterUuid& uuid) const;
  Result<uint32_t> increment(const Measurement& owner, const CounterUuid& uuid);
  Status destroy(const Measurement& owner, const CounterUuid& uuid);

  /// Marks the counters `uuids` name dead in one firmware journal entry:
  /// immediately irreversible (reads, increments and destroys report
  /// kCounterNotFound from here on), but the flash slots stay allocated —
  /// and counted against the owner's quota — until the background
  /// reclaim sweep frees them.  Each uuid is checked like any other op:
  /// one `owner` does not own, or one already dead, is skipped, so the
  /// caller's other counters (and other instances' of the same enclave)
  /// stay live.  Returns how many it retired.
  size_t retire(const Measurement& owner,
                const std::vector<CounterUuid>& uuids);
  /// Background GC sweep: frees the flash slots of retired counters.
  /// Returns how many were reclaimed; the caller charges the per-slot
  /// flash cost (this never runs on an enclave's critical path).
  size_t reclaim_retired();
  /// Retired-but-not-yet-reclaimed slots (the deferred-GC backlog).
  size_t retired_count() const;

  /// Number of live counters owned by `owner` (retired slots included:
  /// they hold quota until reclaimed).
  size_t count_for(const Measurement& owner) const;

  /// Total counter ids ever allocated (ids are never reused).
  uint32_t ids_allocated() const { return next_id_; }

 private:
  struct Entry {
    Measurement owner{};
    std::array<uint8_t, 12> nonce{};
    uint32_t value = 0;
    bool retired = false;
  };

  const Entry* find(const Measurement& owner, const CounterUuid& uuid) const;
  void release_slot(const Measurement& owner);

  std::map<uint32_t, Entry> counters_;
  // Slots each owner holds in counters_ (retired ones included), so the
  // quota check is a lookup rather than a scan of the whole machine.
  std::map<Measurement, size_t> owner_counts_;
  uint32_t next_id_ = 1;
};

}  // namespace sgxmig::sgx
