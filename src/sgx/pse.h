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
#include <deque>
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

/// The machine-local counter service (PSE backend): a flat table indexed
/// by counter id, plus one table of the owners that hold slots in it.
class MonotonicCounterService {
 public:
  static constexpr size_t kMaxCountersPerEnclave = 256;

  MonotonicCounterService() = default;
  // Table slots point into owners_, so a copy would point into its source.
  MonotonicCounterService(const MonotonicCounterService&) = delete;
  MonotonicCounterService& operator=(const MonotonicCounterService&) = delete;

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
  /// Background GC sweep: frees the flash slots of retired counters, in
  /// id order.  Returns how many were reclaimed; the caller charges the
  /// per-slot flash cost (this never runs on an enclave's critical path).
  size_t reclaim_retired();
  /// Retired-but-not-yet-reclaimed slots (the deferred-GC backlog).
  size_t retired_count() const { return retired_; }

  /// Number of live counters owned by `owner` (retired slots included:
  /// they hold quota until reclaimed).
  size_t count_for(const Measurement& owner) const;

  /// Total counter ids ever allocated (ids are never reused).
  uint32_t ids_allocated() const { return next_id_; }
  /// Ids the table spans: from the oldest live or retired counter to the
  /// newest id.  Destroyed and reclaimed ids before the oldest one are
  /// trimmed; later ones stay as tombstones.
  size_t table_span() const { return table_.size(); }
  /// Heap bytes the table and the owner table hold (payload only; the
  /// allocator's own overhead is not counted).
  size_t memory_bytes() const;

 private:
  // Slots each owner holds in table_, retired ones included, so the quota
  // check is a lookup rather than a scan of the whole machine.  Map nodes
  // never move, so a slot names its owner by the node's address.
  using Owners = std::map<Measurement, uint32_t>;
  using Owner = Owners::value_type;

  /// One counter id, 24 B.  The owner pointer's low bit (an Owner is at
  /// least 4-aligned) is the retired flag; no owner is a tombstone: the id
  /// was destroyed or reclaimed.
  struct Slot {
    uintptr_t owner_bits = 0;
    std::array<uint8_t, 12> nonce{};
    uint32_t value = 0;

    Owner* owner() const {
      return reinterpret_cast<Owner*>(owner_bits & ~uintptr_t{1});
    }
    bool retired() const { return (owner_bits & 1) != 0; }
    bool dead() const { return owner_bits == 0; }
  };
  static_assert(sizeof(Slot) <= 24);
  static_assert(alignof(Owner) >= 2);

  /// The live slot `uuid` names if `owner` owns it, else nullptr: the
  /// nonce and owner checks, and a retired slot reads as gone.
  Slot* find(const Measurement& owner, const CounterUuid& uuid);
  const Slot* find(const Measurement& owner, const CounterUuid& uuid) const;
  /// Frees `slot`'s quota unit and makes it a tombstone.
  void release(Slot& slot);
  /// Drops the tombstones before the oldest live or retired slot.
  void trim_dead_prefix();

  // table_[i] is id next_id_ - table_.size() + i.  A deque grows by
  // fixed-size blocks, so the table carries no 2x growth slack.
  std::deque<Slot> table_;
  Owners owners_;
  size_t retired_ = 0;
  uint32_t next_id_ = 1;
};

}  // namespace sgxmig::sgx
