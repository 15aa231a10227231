// Untrusted persistent storage of a machine (the "disk").
//
// Sealed blobs live here between enclave restarts.  Per the threat model,
// the OS owns this storage: the adversary API lets tests snapshot the
// whole store and restore it later — the primitive behind every replay /
// roll-back attack in paper §III.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "support/bytes.h"
#include "support/cost_model.h"
#include "support/sim_clock.h"
#include "support/status.h"

namespace sgxmig::platform {

class UntrustedStore {
 public:
  UntrustedStore(VirtualClock& clock, const CostModel& costs);

  /// Write + fsync (charges disk_write).  The store keeps a share of
  /// `blob`, not a copy.
  void put(const std::string& name, SharedBytes blob);
  /// As above, storing one copy of `blob`.
  void put(const std::string& name, ByteView blob);

  /// Read (charges disk_read); kStorageMissing when absent.
  Result<Bytes> get(const std::string& name) const;

  bool exists(const std::string& name) const;
  /// Deletes `name` and hands back the blob it held (nullopt when
  /// absent).  Deleting charges no virtual time.
  std::optional<SharedBytes> take(const std::string& name);
  void remove(const std::string& name) { take(name); }
  size_t size() const { return blobs_.size(); }
  /// Heap bytes of the stored blobs and their entries (payload only; a
  /// blob shared with a snapshot or an enclave counts here once).
  size_t memory_bytes() const;

  // ----- versioned slots (torn-write detection) -----
  //
  // A crash in the middle of a blob write must not leave the only copy of
  // the Migration Library's Table II buffer (or the ME's queue)
  // unparseable.
  // put_versioned alternates between two physical slots ("<name>#0" /
  // "<name>#1"), each framed with a sequence number and checksum; a torn
  // or corrupted slot fails its checksum and get_versioned falls back to
  // the other (older but intact) slot.

  /// Write + fsync into the slot not holding the latest version.  Reads
  /// no slot when nothing but put_versioned touched `name`'s slots since
  /// its last call.
  void put_versioned(const std::string& name, ByteView blob);

  /// Payload of the newest intact slot; kStorageMissing when no slot
  /// exists, kTampered when slots exist but none verifies.
  Result<Bytes> get_versioned(const std::string& name) const;

  /// Sequence number of the newest intact slot (0 when none) — lets tests
  /// assert which generation recovery picked.
  uint64_t versioned_sequence(const std::string& name) const;

  // ----- adversary API (the OS can do all of this) -----
  //
  // Blobs are immutable and shared: a snapshot and a restored store hold
  // the same buffers as the store they came from, and corrupt() writes
  // into a fresh copy, so neither ever sees the other's later writes.
  using Snapshot = std::map<std::string, SharedBytes>;
  Snapshot snapshot() const { return blobs_; }
  void restore(const Snapshot& snapshot) {
    blobs_ = snapshot;
    ++generation_;
  }
  /// Flips one byte of a stored blob; returns false if absent/empty.
  bool corrupt(const std::string& name, size_t offset);

 private:
  struct Slot {
    int index = 0;  // physical slot, 0 or 1
    uint64_t sequence = 0;
    ByteView payload;  // into blobs_; valid until that slot is written
  };
  /// The intact slot with the highest sequence (slot 0 on a tie); nullopt
  /// when each slot is absent, torn, or corrupted.  Reads payloads in
  /// place, without copying them.
  std::optional<Slot> newest_slot(const std::string& name) const;
  /// Write + fsync with no change to the store's generation.
  void write(const std::string& name, SharedBytes blob);

  /// The slot and sequence put_versioned last wrote for a name, valid
  /// while `generation` is the store's: every change other than
  /// put_versioned's own writes that can touch a slot (put or take of a
  /// slot name, restore, corrupt) moves the store's generation on.
  struct LastVersion {
    int index = 0;
    uint64_t sequence = 0;
    uint64_t generation = 0;
  };

  VirtualClock& clock_;
  const CostModel& costs_;
  std::map<std::string, SharedBytes> blobs_;
  std::map<std::string, LastVersion> last_version_;
  uint64_t generation_ = 0;
};

}  // namespace sgxmig::platform
