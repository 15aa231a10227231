// Minimal binary serialization for protocol messages and persisted blobs.
//
// Encoding rules: integers are little-endian; variable-length byte strings
// are length-prefixed with a u32.  `BinaryReader` uses a sticky failure
// flag: any out-of-bounds read marks the reader failed and all subsequent
// reads return zero values, so callers validate once via `ok()` after
// decoding a whole message.  This is the recommended pattern for parsing
// adversary-controlled input without exceptions.
//
// Wire records state their encoding once, as a field list (see
// `FieldWriter` below); one generic writer and one generic reader run it.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "support/bytes.h"
#include "support/status.h"

namespace sgxmig {

class BinaryWriter {
 public:
  void u8(uint8_t v);
  void u16(uint16_t v);
  void u32(uint32_t v);
  void u64(uint64_t v);
  void boolean(bool v);

  /// Length-prefixed byte string (u32 length).
  void bytes(ByteView v);
  /// Length-prefixed UTF-8 string.
  void str(std::string_view v);
  /// Raw bytes with no length prefix (fixed-width fields).
  void raw(ByteView v);

  template <size_t N>
  void fixed(const std::array<uint8_t, N>& a) {
    raw(ByteView(a.data(), a.size()));
  }

  const Bytes& data() const { return buffer_; }
  Bytes take() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }
  void reserve(size_t n) { buffer_.reserve(n); }
  /// Overwrites the u32 written at offset `at` (a back-patched length).
  void patch_u32(size_t at, uint32_t v);

 private:
  Bytes buffer_;
};

class BinaryReader {
 public:
  explicit BinaryReader(ByteView data) : data_(data) {}

  uint8_t u8();
  uint16_t u16();
  uint32_t u32();
  uint64_t u64();
  /// One byte that must be 0 or 1; any other value fails the reader, so
  /// every bool decodes from exactly one encoding.
  bool boolean();

  /// Length-prefixed byte string; enforces `max_len` to bound allocations
  /// driven by adversarial length fields.
  Bytes bytes(size_t max_len = kDefaultMaxLen);
  std::string str(size_t max_len = kDefaultMaxLen);
  /// Raw bytes with no length prefix.
  Bytes raw(size_t len);
  /// The next `len` bytes, in place (empty once the reader failed).
  ByteView view(size_t len);

  template <size_t N>
  std::array<uint8_t, N> fixed() {
    std::array<uint8_t, N> out{};
    if (!take(N)) return out;
    for (size_t i = 0; i < N; ++i) out[i] = data_[pos_ - N + i];
    return out;
  }

  /// True iff no read so far ran past the end of the buffer (or was
  /// refused by `fail`).
  bool ok() const { return !failed_; }
  /// Marks the reader failed: a decoded value broke a bound.
  void fail() { failed_ = true; }
  /// True iff the whole buffer was consumed and no read failed.
  bool done() const { return !failed_ && pos_ == data_.size(); }
  size_t remaining() const { return failed_ ? 0 : data_.size() - pos_; }

  static constexpr size_t kDefaultMaxLen = 1u << 30;

 private:
  bool take(size_t n);

  ByteView data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

// ----- field lists -----
//
// A wire record names its fields once, in wire order, each with the bound
// a reader enforces on it, as a static member template that runs over a
// const record when writing and a default-constructed one when reading:
//
//   template <class Io, class Self>
//   static void fields(Io& io, Self& m) {
//     io.u8(m.type, MeMsgType::kLaStart, MeMsgType::kSessionResume);
//     io.u64(m.id);
//     io.bytes(m.payload, 1u << 22);
//   }
//
// `u8`..`u64` name the wire width of an integer, bool, enum or duration
// field (an optional [lo, hi] range refuses other values, and a bool
// refuses any byte but 0 and 1); `str`/`bytes` carry a u32 length prefix
// and a maximum length; `list` a u32 count checked against its maximum
// before anything is allocated; `record` embeds a nested record's fields
// and `sized` embeds them behind a u32 length, written in place and read
// from a sub-view (no temporary copy of key material); `optional` is a
// presence bool and then the value.  `map` is a u32 count and then key
// and value per entry: the reader refuses a key repeated or out of
// ascending order, and a writer-side `keep` filter splits one map into
// sections that read back into the same map.  `ordered_map` writes a
// map in the order of its FIFO deque.  `implied` sets a value the
// encoding carries elsewhere (or not at all) when reading.  `require`
// refuses a decoded value (an index, a magic) that breaks a condition.
// Reading keeps BinaryReader's sticky failure and stops a count at the
// first failed read, so a forged count costs no more than the bytes
// around it.

/// The `max_count` of a map whose count only its bytes bound.
inline constexpr size_t kAnyCount = UINT32_MAX;

/// The `keep` filter of a map written whole.
struct KeepAll {
  template <class V>
  bool operator()(const V& /*value*/) const { return true; }
};

template <class T>
inline constexpr bool kIsDuration = false;
template <class Rep, class Period>
inline constexpr bool kIsDuration<std::chrono::duration<Rep, Period>> = true;

class FieldWriter {
 public:
  explicit FieldWriter(BinaryWriter& w) : w_(w) {}

  template <class T>
  void u8(const T& v) { w_.u8(static_cast<uint8_t>(v)); }
  template <class T>
  void u8(const T& v, T /*lo*/, T /*hi*/) { u8(v); }
  template <class T>
  void u16(const T& v) { w_.u16(static_cast<uint16_t>(v)); }
  template <class T>
  void u32(const T& v) { w_.u32(static_cast<uint32_t>(v)); }
  template <class T>
  void u64(const T& v) {
    if constexpr (kIsDuration<T>) {
      w_.u64(static_cast<uint64_t>(v.count()));
    } else {
      w_.u64(static_cast<uint64_t>(v));
    }
  }

  template <size_t N>
  void fixed(const std::array<uint8_t, N>& a) { w_.fixed(a); }
  void bytes(const Bytes& b, size_t /*max_len*/) { w_.bytes(b); }
  void str(const std::string& s, size_t /*max_len*/) { w_.str(s); }
  void magic(std::string_view m, size_t /*max_len*/) { w_.str(m); }

  template <class T, class Elem>
  void list(const std::vector<T>& v, size_t /*max_count*/, Elem elem) {
    w_.u32(static_cast<uint32_t>(v.size()));
    for (const T& e : v) elem(*this, e);
  }
  template <class T>
  void list(const std::vector<T>& v, size_t max_count) {
    list(v, max_count, [](FieldWriter& io, const T& e) { io.record(e); });
  }

  template <class T, class Elem>
  void optional(const std::optional<T>& o, Elem elem) {
    w_.boolean(o.has_value());
    if (o.has_value()) elem(*this, *o);
  }

  template <class K, class V, class Entry, class Keep = KeepAll>
  void map(const std::map<K, V>& m, size_t /*max_count*/, Entry entry,
           Keep keep = {}) {
    uint32_t count = 0;
    for (const auto& [key, value] : m) count += keep(value) ? 1 : 0;
    w_.u32(count);
    for (const auto& [key, value] : m) {
      if (keep(value)) entry(*this, key, value);
    }
  }
  template <class K, class V, class Entry>
  void ordered_map(const std::map<K, V>& m, const std::deque<K>& order,
                   size_t /*max_count*/, Entry entry) {
    w_.u32(static_cast<uint32_t>(order.size()));
    for (const K& key : order) entry(*this, key, m.at(key));
  }

  template <class R>
  void record(const R& r) { R::fields(*this, r); }
  template <class R>
  void sized(const R& r, size_t /*max_len*/);
  /// A value the field list always holds (a filtered section's optional).
  template <class R>
  void sized(const std::optional<R>& r, size_t max_len) {
    sized(r.value(), max_len);
  }

  template <class T, class U>
  void implied(const T& /*field*/, const U& /*value*/) {}
  void require(bool /*condition*/) {}

 private:
  BinaryWriter& w_;
};

class FieldReader {
 public:
  explicit FieldReader(BinaryReader& r) : r_(r) {}

  template <class T>
  void u8(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = r_.boolean();
    } else {
      v = static_cast<T>(r_.u8());
    }
  }
  template <class T>
  void u8(T& v, T lo, T hi) {
    const int raw = r_.u8();
    require(raw >= static_cast<int>(lo) && raw <= static_cast<int>(hi));
    v = static_cast<T>(raw);
  }
  template <class T>
  void u16(T& v) { v = static_cast<T>(r_.u16()); }
  template <class T>
  void u32(T& v) { v = static_cast<T>(r_.u32()); }
  template <class T>
  void u64(T& v) {
    if constexpr (kIsDuration<T>) {
      v = T(static_cast<typename T::rep>(r_.u64()));
    } else {
      v = static_cast<T>(r_.u64());
    }
  }

  template <size_t N>
  void fixed(std::array<uint8_t, N>& a) { a = r_.fixed<N>(); }
  void bytes(Bytes& b, size_t max_len) { b = r_.bytes(max_len); }
  void str(std::string& s, size_t max_len) { s = r_.str(max_len); }
  void magic(std::string_view m, size_t max_len) {
    require(r_.str(max_len) == m);
  }

  template <class T, class Elem>
  void list(std::vector<T>& v, size_t max_count, Elem elem) {
    const uint32_t count = r_.u32();
    require(count <= max_count);
    if (!r_.ok()) return;
    v.resize(count);
    for (T& e : v) elem(*this, e);
  }
  template <class T>
  void list(std::vector<T>& v, size_t max_count) {
    list(v, max_count, [](FieldReader& io, T& e) { io.record(e); });
  }

  template <class T, class Elem>
  void optional(std::optional<T>& o, Elem elem) {
    if (r_.boolean()) elem(*this, o.emplace());
  }

  template <class K, class V, class Entry, class Keep = KeepAll>
  void map(std::map<K, V>& m, size_t max_count, Entry entry,
           Keep /*keep*/ = {}) {
    const uint32_t count = r_.u32();
    require(count <= max_count);
    const K* previous = nullptr;  // this section's last key
    for (uint32_t i = 0; i < count && r_.ok(); ++i) {
      K key{};
      V value{};
      entry(*this, key, value);
      require(previous == nullptr || *previous < key);
      if (!r_.ok()) return;
      const auto [it, inserted] = m.emplace(std::move(key), std::move(value));
      require(inserted);
      previous = &it->first;
    }
  }
  template <class K, class V, class Entry>
  void ordered_map(std::map<K, V>& m, std::deque<K>& order, size_t max_count,
                   Entry entry) {
    const uint32_t count = r_.u32();
    require(count <= max_count);
    for (uint32_t i = 0; i < count && r_.ok(); ++i) {
      K key{};
      V value{};
      entry(*this, key, value);
      if (!r_.ok()) return;
      require(m.emplace(key, std::move(value)).second);
      order.push_back(std::move(key));
    }
  }

  template <class R>
  void record(R& r) { R::fields(*this, r); }
  template <class R>
  void sized(R& r, size_t max_len);
  template <class R>
  void sized(std::optional<R>& r, size_t max_len) {
    sized(r.emplace(), max_len);
  }

  template <class T, class U>
  void implied(T& field, const U& value) { field = value; }
  void require(bool condition) {
    if (!condition) r_.fail();
  }

 private:
  BinaryReader& r_;
};

/// Appends `record`'s fields to `w` (no length prefix).
template <class T>
void write_record(BinaryWriter& w, const T& record) {
  FieldWriter io(w);
  T::fields(io, record);
}

template <class T>
Bytes encode_record(const T& record) {
  BinaryWriter w;
  write_record(w, record);
  return w.take();
}

/// Decodes a whole buffer as one record: every failure, and any byte left
/// over, is kTampered.
template <class T>
Result<T> decode_record(ByteView bytes) {
  BinaryReader r(bytes);
  FieldReader io(r);
  T record;
  T::fields(io, record);
  if (!r.done()) return Status::kTampered;
  return record;
}

template <class R>
void FieldWriter::sized(const R& r, size_t /*max_len*/) {
  const size_t at = w_.size();
  w_.u32(0);
  R::fields(*this, r);
  w_.patch_u32(at, static_cast<uint32_t>(w_.size() - at - 4));
}

template <class R>
void FieldReader::sized(R& r, size_t max_len) {
  const uint32_t len = r_.u32();
  require(len <= max_len);
  BinaryReader inner_reader(r_.view(len));
  if (!r_.ok()) return;
  FieldReader inner(inner_reader);
  R::fields(inner, r);
  require(inner_reader.done());
}

}  // namespace sgxmig
