#include "platform/storage.h"

#include "support/serde.h"

namespace sgxmig::platform {

namespace {
constexpr char kSlotMagic[] = "SGXMIG-VSLOT-v1";

std::string slot_name(const std::string& name, int slot) {
  return name + "#" + std::to_string(slot);
}

// FNV-1a 64-bit over the framed payload: detects torn writes and the
// single-byte corruptions the adversary API injects.  Integrity against a
// *malicious* OS still comes from the sealed blob inside — this checksum
// only distinguishes "torn/unreadable" from "intact" for crash recovery.
uint64_t slot_checksum(uint64_t sequence, ByteView payload) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](uint8_t byte) {
    h ^= byte;
    h *= 0x100000001b3ull;
  };
  for (int i = 0; i < 8; ++i) mix(static_cast<uint8_t>(sequence >> (8 * i)));
  for (uint8_t byte : payload) mix(byte);
  return h;
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

void UntrustedStore::remove(const std::string& name) { blobs_.erase(name); }

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
  const auto newest = newest_slot(name);
  const uint64_t next = newest ? newest->sequence + 1 : 1;
  // Overwrite the slot NOT holding the latest intact version, so the
  // previous generation survives a torn write of this one.
  const int target = newest ? 1 - newest->index : 1;
  BinaryWriter w;
  w.str(kSlotMagic);
  w.u64(next);
  w.u64(slot_checksum(next, blob));
  w.bytes(blob);
  put(slot_name(name, target), SharedBytes(w.take()));
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
  return true;
}

}  // namespace sgxmig::platform
