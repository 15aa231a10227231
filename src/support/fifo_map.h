// FifoMap — a map that remembers the order its keys arrived in, for the
// Migration Enclave's bounded exactly-once histories.  Lookups and
// key-order scans go through the map; the FIFO holds iterators into it,
// oldest first, so trimming the oldest entries and encoding in arrival
// order (serde's `ordered_map`) need no lookup per entry.  put and trim
// are the only mutators, so the FIFO names each key exactly once.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <utility>

namespace sgxmig {

template <class K, class V>
class FifoMap {
 public:
  using const_iterator = typename std::map<K, V>::const_iterator;

  FifoMap() = default;
  // Moving a std::map keeps its nodes, so the FIFO's iterators stay valid;
  // a copy's would point into the source, so there is none.
  FifoMap(FifoMap&&) = default;
  FifoMap& operator=(FifoMap&&) = default;

  /// Sets `key` to `value`: a new key joins the back of the FIFO, a key
  /// already present keeps its place.
  void put(const K& key, V value) {
    const auto [it, inserted] = map_.insert_or_assign(key, std::move(value));
    if (inserted) order_.push_back(it);
  }
  /// Drops the oldest entries until at most `limit` remain.
  void trim(size_t limit) {
    for (; order_.size() > limit; order_.pop_front()) {
      map_.erase(order_.front());
    }
  }

  size_t size() const { return map_.size(); }
  size_t count(const K& key) const { return map_.count(key); }
  const_iterator find(const K& key) const { return map_.find(key); }
  /// Key order.
  const_iterator begin() const { return map_.begin(); }
  const_iterator end() const { return map_.end(); }
  /// Arrival order, oldest first.
  const std::deque<const_iterator>& fifo() const { return order_; }

 private:
  std::map<K, V> map_;
  std::deque<const_iterator> order_;
};

}  // namespace sgxmig
