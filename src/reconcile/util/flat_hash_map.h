#ifndef RECONCILE_UTIL_FLAT_HASH_MAP_H_
#define RECONCILE_UTIL_FLAT_HASH_MAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "reconcile/util/logging.h"
#include "reconcile/util/rng.h"

namespace reconcile {

/// Open-addressing hash map from `uint64_t` keys to `uint32_t` counters:
/// the mark counts of the percolation baseline (`baseline/percolation.cc`).
///
/// Percolation matches a pair the instant its count reaches the threshold,
/// so it needs each count as it is incremented; batched counting (a sort
/// then a count, as the matcher does with `BuildCountRun`) would change the
/// matching. `std::unordered_map` gives the same matching about 3x slower:
/// `reconcile_cli --algorithm=percolation --model=pa --nodes=50000
/// --seed-fraction=0.05` took 2.6-3.0 s with this map and 7.7-8.3 s with
/// it (4-vCPU x86-64 host, two runs each).
///
///  * linear probing over a power-of-two table, keys and counters in
///    parallel arrays, max load 7/8,
///  * one reserved key (`kEmptyKey` = 2^64-1) marks empty slots — pair keys
///    pack two 32-bit node ids, and node id 0xFFFFFFFF is the invalid node,
///    so real keys never collide with the sentinel,
///  * no deletion; `AddCount` fuses find-or-insert with the increment.
class FlatCountMap {
 public:
  static constexpr uint64_t kEmptyKey = ~0ULL;

  FlatCountMap() { Rehash(kInitialCapacity); }

  FlatCountMap(const FlatCountMap&) = delete;
  FlatCountMap& operator=(const FlatCountMap&) = delete;
  FlatCountMap(FlatCountMap&&) = default;
  FlatCountMap& operator=(FlatCountMap&&) = default;

  /// Adds `delta` to the counter for `key`, inserting it at zero first if
  /// absent. Returns the new counter value.
  uint32_t AddCount(uint64_t key, uint32_t delta) {
    RECONCILE_CHECK_NE(key, kEmptyKey);
    if ((size_ + 1) * kMaxLoadDen > capacity() * kMaxLoadNum) {
      Rehash(capacity() * 2);
    }
    size_t slot = FindSlot(key);
    if (keys_[slot] == kEmptyKey) {
      keys_[slot] = key;
      values_[slot] = 0;
      ++size_;
    }
    values_[slot] += delta;
    return values_[slot];
  }

  /// Returns the counter for `key`, or 0 if absent.
  uint32_t Count(uint64_t key) const {
    size_t slot = FindSlot(key);
    return keys_[slot] == kEmptyKey ? 0 : values_[slot];
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return keys_.size(); }

 private:
  static constexpr size_t kInitialCapacity = 64;
  // Max load factor 7/8.
  static constexpr size_t kMaxLoadNum = 7;
  static constexpr size_t kMaxLoadDen = 8;

  size_t FindSlot(uint64_t key) const {
    size_t mask = keys_.size() - 1;
    size_t slot = HashMix64(key) & mask;
    while (keys_[slot] != kEmptyKey && keys_[slot] != key) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  void Rehash(size_t new_capacity) {
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<uint32_t> old_values = std::move(values_);
    keys_.assign(new_capacity, kEmptyKey);
    values_.assign(new_capacity, 0);
    size_ = 0;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmptyKey) continue;
      size_t slot = FindSlot(old_keys[i]);
      keys_[slot] = old_keys[i];
      values_[slot] = old_values[i];
      ++size_;
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<uint32_t> values_;
  size_t size_ = 0;
};

}  // namespace reconcile

#endif  // RECONCILE_UTIL_FLAT_HASH_MAP_H_
