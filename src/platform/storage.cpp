#include "platform/storage.h"

#include "support/serde.h"

namespace sgxmig::platform {

namespace {
// v2: slot_checksum hashes a 64-bit word per step (v1 hashed bytes).
constexpr char kSlotMagic[] = "SGXMIG-VSLOT-v2";

std::string slot_name(const std::string& name, int slot) {
  return name + "#" + std::to_string(slot);
}

// FNV-1a 64-bit over the sequence and the payload, one little-endian
// 64-bit word per step (the payload's last partial word byte by byte):
// each step is a bijection of the running hash, so any change to one word
// — every torn tail and single-byte corruption the adversary API injects —
// changes the result.  Integrity against a *malicious* OS still comes from
// the sealed blob inside — this checksum only distinguishes
// "torn/unreadable" from "intact" for crash recovery.
uint64_t slot_checksum(uint64_t sequence, ByteView payload) {
  constexpr uint64_t kPrime = 0x100000001b3ull;
  uint64_t h = (0xcbf29ce484222325ull ^ sequence) * kPrime;
  const uint8_t* p = payload.data();
  size_t left = payload.size();
  for (; left >= 8; p += 8, left -= 8) h = (h ^ load_le64(p)) * kPrime;
  for (; left > 0; ++p, --left) h = (h ^ *p) * kPrime;
  return h;
}

// True when `name` is one of put_versioned's physical slots ("<name>#0",
// "<name>#1").
bool is_slot_name(const std::string& name) {
  return name.size() >= 2 && name[name.size() - 2] == '#' &&
         (name.back() == '0' || name.back() == '1');
}

// One physical slot's framing, its payload a view into the stored blob.
struct SlotFrame {
  uint64_t sequence = 0;
  uint64_t checksum = 0;
  ByteView payload;
};

// Parses a slot's framing (magic, sequence, checksum, length-prefixed
// payload that ends the blob) without verifying or copying the payload;
// nullopt when the framing is torn.
std::optional<SlotFrame> parse_slot(const Bytes& blob) {
  BinaryReader r(blob);  // simlint: allow(hand-codec) zero-copy payload view
  if (r.str(64) != kSlotMagic) return std::nullopt;
  SlotFrame frame;
  frame.sequence = r.u64();
  frame.checksum = r.u64();
  const uint32_t length = r.u32();
  if (!r.ok() || length != r.remaining()) return std::nullopt;
  frame.payload = ByteView(blob).last(length);
  return frame;
}
}  // namespace

UntrustedStore::UntrustedStore(VirtualClock& clock, const CostModel& costs)
    : clock_(clock), costs_(costs) {}

void UntrustedStore::put(const std::string& name, SharedBytes blob) {
  write(name, std::move(blob));
  if (is_slot_name(name)) ++generation_;
}

void UntrustedStore::write(const std::string& name, SharedBytes blob) {
  clock_.advance(costs_.disk_write);
  blobs_[name] = std::move(blob);
}

void UntrustedStore::put(const std::string& name, ByteView blob) {
  put(name, SharedBytes(to_bytes(blob)));
}

Result<Bytes> UntrustedStore::get(const std::string& name) const {
  clock_.advance(costs_.disk_read);
  const auto it = blobs_.find(name);
  if (it == blobs_.end()) return Status::kStorageMissing;
  return it->second.bytes();
}

bool UntrustedStore::exists(const std::string& name) const {
  return blobs_.count(name) != 0;
}

size_t UntrustedStore::memory_bytes() const {
  size_t bytes = last_version_.size() *
                 sizeof(decltype(last_version_)::value_type);
  for (const auto& [name, blob] : blobs_) {
    bytes += sizeof(decltype(blobs_)::value_type) + blob.size();
  }
  return bytes;
}

std::optional<SharedBytes> UntrustedStore::take(const std::string& name) {
  const auto it = blobs_.find(name);
  if (it == blobs_.end()) return std::nullopt;
  SharedBytes blob = std::move(it->second);
  blobs_.erase(it);
  if (is_slot_name(name)) ++generation_;
  return blob;
}

std::optional<UntrustedStore::Slot> UntrustedStore::newest_slot(
    const std::string& name) const {
  std::optional<SlotFrame> frames[2];
  for (int i = 0; i < 2; ++i) {
    const auto it = blobs_.find(slot_name(name, i));
    if (it != blobs_.end()) frames[i] = parse_slot(it->second);
  }
  // Verify the slot claiming the higher sequence first (slot 0 on a tie):
  // if it is intact it is the newest whatever the other slot holds, so
  // the common case checksums one payload, not two.
  const auto claimed = [](const std::optional<SlotFrame>& frame) {
    return frame ? frame->sequence : 0;
  };
  const int first = claimed(frames[1]) > claimed(frames[0]) ? 1 : 0;
  for (const int i : {first, 1 - first}) {
    const auto& frame = frames[i];
    if (frame && slot_checksum(frame->sequence, frame->payload) ==
                     frame->checksum) {
      return Slot{i, frame->sequence, frame->payload};
    }
  }
  return std::nullopt;
}

void UntrustedStore::put_versioned(const std::string& name, ByteView blob) {
  LastVersion& last = last_version_[name];
  if (last.sequence == 0 || last.generation != generation_) {
    const auto newest = newest_slot(name);
    // No intact slot: the first write goes to slot 1 with sequence 1.
    last.index = newest ? newest->index : 0;
    last.sequence = newest ? newest->sequence : 0;
  }
  const uint64_t next = last.sequence + 1;
  // Overwrite the slot NOT holding the latest intact version, so the
  // previous generation survives a torn write of this one.
  const int target = 1 - last.index;
  BinaryWriter w;
  w.str(kSlotMagic);
  w.u64(next);
  w.u64(slot_checksum(next, blob));
  w.bytes(blob);
  write(slot_name(name, target), SharedBytes(w.take()));
  last = LastVersion{target, next, generation_};
}

Result<Bytes> UntrustedStore::get_versioned(const std::string& name) const {
  clock_.advance(costs_.disk_read);
  const bool any_slot = blobs_.count(slot_name(name, 0)) != 0 ||
                        blobs_.count(slot_name(name, 1)) != 0;
  if (!any_slot) return Status::kStorageMissing;
  const auto newest = newest_slot(name);
  if (!newest) return Status::kTampered;
  return to_bytes(newest->payload);
}

uint64_t UntrustedStore::versioned_sequence(const std::string& name) const {
  const auto newest = newest_slot(name);
  return newest ? newest->sequence : 0;
}

bool UntrustedStore::corrupt(const std::string& name, size_t offset) {
  auto it = blobs_.find(name);
  if (it == blobs_.end() || it->second.empty()) return false;
  // Copy-on-write: snapshots and other holders keep the original bytes.
  Bytes flipped = it->second;
  flipped[offset % flipped.size()] ^= 0x80;
  it->second = SharedBytes(std::move(flipped));
  ++generation_;
  return true;
}

}  // namespace sgxmig::platform
