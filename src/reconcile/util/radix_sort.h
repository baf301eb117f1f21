#ifndef RECONCILE_UTIL_RADIX_SORT_H_
#define RECONCILE_UTIL_RADIX_SORT_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <utility>
#include <vector>

#include "reconcile/util/logging.h"

namespace reconcile {

/// Sort-based counting substrate for the matcher's score state.
///
/// The witness-scoring phase is a high-cardinality count aggregation over
/// packed 64-bit `(u, v)` keys. Instead of a random-access hash probe per
/// emission, producers append raw keys to flat buffers and the structures
/// here turn them into sorted runs, keeping every pass over the data
/// sequential or cache-resident:
///  * `KeyBuffer` — a growable raw-key array whose unused capacity can be
///    released without copying the keys,
///  * `BuildCountRun` — sorts and run-length-encodes the keys of any number
///    of chunks into one run without concatenating them first,
///  * `SortedCountRun` — the aggregated result: a flat, strictly-increasing
///    `(key, count)` array that scans linearly,
///  * `MergeCountRuns` — linear two-way merge folding a sorted delta into a
///    persistent run.

/// Growable array of raw keys on `malloc`/`realloc`. `ShrinkToFit` gives
/// the growth slack back with a shrinking `realloc`, which trims the block
/// in place instead of copying the keys, so buffers held for several
/// rounds cost their size, not their capacity.
class KeyBuffer {
 public:
  KeyBuffer() = default;
  KeyBuffer(const KeyBuffer&) = delete;
  KeyBuffer& operator=(const KeyBuffer&) = delete;
  KeyBuffer(KeyBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  KeyBuffer& operator=(KeyBuffer&& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(capacity_, other.capacity_);
    return *this;
  }
  ~KeyBuffer() { std::free(data_); }

  /// Bulk append: makes room for `max_keys` more keys, then `fill(out)`
  /// writes some prefix of `out[0, max_keys)` and returns its length.
  /// Those keys join the buffer; returns how many did.
  template <typename Fill>
  size_t Append(size_t max_keys, Fill&& fill) {
    if (max_keys > capacity_ - size_) [[unlikely]]
      Reallocate(std::max({size_t{64}, 2 * capacity_, size_ + max_keys}));
    const size_t written = fill(data_ + size_);
    size_ += written;
    return written;
  }
  void ShrinkToFit() {
    if (capacity_ > size_) Reallocate(size_);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::span<const uint64_t> keys() const { return {data_, size_}; }

 private:
  void Reallocate(size_t capacity) {
    if (capacity == 0) {
      std::free(data_);
      data_ = nullptr;
      capacity_ = 0;
      return;
    }
    void* grown = std::realloc(data_, capacity * sizeof(uint64_t));
    RECONCILE_CHECK(grown != nullptr) << "out of memory for " << capacity
                                      << " keys";
    data_ = static_cast<uint64_t*>(grown);
    capacity_ = capacity;
  }

  uint64_t* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

/// Flat, sorted `(key, count)` aggregate. Keys are strictly increasing; `counts[i]` is the
/// multiplicity of `keys[i]`. Scans are pure linear array walks.
struct SortedCountRun {
  std::vector<uint64_t> keys;
  std::vector<uint32_t> counts;

  size_t size() const { return keys.size(); }
  bool empty() const { return keys.empty(); }

  void Clear() {
    keys.clear();
    counts.clear();
  }

  /// Invokes `fn(key, count)` for every entry, in ascending key order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < keys.size(); ++i) fn(keys[i], counts[i]);
  }

  /// Returns the count for `key`, or 0 if absent. O(log size).
  uint32_t Count(uint64_t key) const {
    auto it = std::lower_bound(keys.begin(), keys.end(), key);
    if (it == keys.end() || *it != key) return 0;
    return counts[static_cast<size_t>(it - keys.begin())];
  }

  /// Keeps only entries with `pred(key, count)`, preserving order. Linear,
  /// in place — this is the matcher's `CompactScores` sweep.
  template <typename Pred>
  void Filter(Pred&& pred) {
    size_t out = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (pred(keys[i], counts[i])) {
        keys[out] = keys[i];
        counts[out] = counts[i];
        ++out;
      }
    }
    keys.resize(out);
    counts.resize(out);
  }
};

/// Keys in one cache-resident block of `BuildCountRun`: a larger input is
/// first scattered on its top eight varying bits, so that every later pass
/// sorts a block that, with its scratch, stays in a core's L2.
inline constexpr size_t kCountRunBlockKeys = size_t{1} << 15;
/// Blocks of at most this many keys are sorted by comparison.
inline constexpr size_t kCountRunSmallSort = 64;

namespace internal {

// Sorts `keys[0, n)` ascending, where the keys agree on every bit outside
// `mask`: one LSD pass per byte that has a `mask` bit and is not constant
// across the block, ping-ponging with `scratch` (room for `n` keys).
// Returns whichever of the two buffers holds the result.
inline uint64_t* SortBlock(uint64_t* keys, uint64_t* scratch, size_t n,
                           uint64_t mask) {
  if (n <= kCountRunSmallSort) {
    std::sort(keys, keys + n);
    return keys;
  }
  std::array<int, 8> digits;
  size_t num_digits = 0;
  for (int d = 0; d < 8; ++d) {
    if ((mask >> (8 * d)) & 0xff) digits[num_digits++] = 8 * d;
  }
  std::array<std::array<size_t, 256>, 8> hist;
  for (size_t k = 0; k < num_digits; ++k) hist[k].fill(0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < num_digits; ++k) {
      ++hist[k][(keys[i] >> digits[k]) & 0xff];
    }
  }
  uint64_t* src = keys;
  uint64_t* dst = scratch;
  for (size_t k = 0; k < num_digits; ++k) {
    std::array<size_t, 256>& offsets = hist[k];
    const int shift = digits[k];
    // A digit constant across the block leaves the order as it is.
    if (offsets[(src[0] >> shift) & 0xff] == n) continue;
    size_t sum = 0;
    for (size_t& slot : offsets) sum += std::exchange(slot, sum);
    for (size_t i = 0; i < n; ++i) {
      dst[offsets[(src[i] >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  return src;
}

}  // namespace internal

/// Sorts the keys of every chunk together and run-length-encodes them into
/// one `SortedCountRun`: equal keys, within a chunk or across chunks,
/// collapse into one entry whose count is their multiplicity. Empty chunks
/// are fine. The chunks are read in place, never concatenated: an input of
/// at most `kCountRunBlockKeys` keys is gathered and sorted as one block;
/// a larger one is scattered once on its top eight varying bits (an MSD
/// digit, so the buckets come out in key order) and each bucket is sorted
/// on its own. Either way the digit passes skip the bytes on which all keys
/// agree, and the run is encoded in place in the gathered buffer, which
/// becomes the run's key array.
inline SortedCountRun BuildCountRun(
    std::span<const std::span<const uint64_t>> chunks) {
  SortedCountRun run;
  size_t n = 0;
  uint64_t first = 0;
  for (std::span<const uint64_t> chunk : chunks) {
    if (n == 0 && !chunk.empty()) first = chunk[0];
    n += chunk.size();
  }
  if (n == 0) return run;
  // The bits on which some key differs from the first.
  uint64_t mask = 0;
  for (std::span<const uint64_t> chunk : chunks) {
    for (uint64_t key : chunk) mask |= key ^ first;
  }

  run.keys.resize(n);
  run.counts.reserve(n);
  uint64_t* const out = run.keys.data();
  size_t distinct = 0;
  // Appends a sorted block. The block may sit in `out` itself, at or after
  // the write position: a block never holds fewer keys than distinct ones.
  auto encode = [&run, out, &distinct](const uint64_t* sorted, size_t size) {
    for (size_t i = 0; i < size; ++i) {
      if (distinct > 0 && out[distinct - 1] == sorted[i]) {
        ++run.counts.back();
      } else {
        out[distinct++] = sorted[i];
        run.counts.push_back(1);
      }
    }
  };

  std::vector<uint64_t> scratch;
  if (n <= kCountRunBlockKeys) {
    size_t at = 0;
    for (std::span<const uint64_t> chunk : chunks) {
      std::copy(chunk.begin(), chunk.end(), out + at);
      at += chunk.size();
    }
    scratch.resize(n);
    encode(internal::SortBlock(out, scratch.data(), n, mask), n);
  } else {
    const int top = mask == 0 ? 0 : 63 - std::countl_zero(mask);
    const int shift = std::max(0, top - 7);
    std::array<size_t, 257> starts{};
    for (std::span<const uint64_t> chunk : chunks) {
      for (uint64_t key : chunk) ++starts[((key >> shift) & 0xff) + 1];
    }
    size_t largest = 0;
    for (size_t b = 0; b < 256; ++b) {
      largest = std::max(largest, starts[b + 1]);
      starts[b + 1] += starts[b];
    }
    std::array<size_t, 256> next;
    std::copy(starts.begin(), starts.end() - 1, next.begin());
    for (std::span<const uint64_t> chunk : chunks) {
      for (uint64_t key : chunk) out[next[(key >> shift) & 0xff]++] = key;
    }
    scratch.resize(largest);
    // Within a bucket the keys agree on every bit from `shift` up.
    const uint64_t low_mask = mask & ((uint64_t{1} << shift) - 1);
    for (size_t b = 0; b < 256; ++b) {
      const size_t size = starts[b + 1] - starts[b];
      if (size == 0) continue;
      encode(internal::SortBlock(out + starts[b], scratch.data(), size,
                                 low_mask),
             size);
    }
  }
  run.keys.resize(distinct);
  return run;
}

namespace internal {

// Two-way merge core shared by the MergeCountRuns overloads; both inputs
// are known non-empty here. `on_delta_key(key, old_count, new_count)` sees
// every key of `delta` in ascending order, with its count in `target`
// before (0 if absent) and after the fold; the plain overloads pass a
// no-op, which compiles away.
template <typename OnDeltaKey>
inline void MergeCountRunsImpl(SortedCountRun& target,
                               const SortedCountRun& delta,
                               OnDeltaKey&& on_delta_key) {
  SortedCountRun merged;
  merged.keys.reserve(target.size() + delta.size());
  merged.counts.reserve(target.size() + delta.size());
  size_t i = 0, j = 0;
  while (i < target.size() && j < delta.size()) {
    const uint64_t a = target.keys[i];
    const uint64_t b = delta.keys[j];
    if (a < b) {
      merged.keys.push_back(a);
      merged.counts.push_back(target.counts[i++]);
    } else if (b < a) {
      on_delta_key(b, 0u, delta.counts[j]);
      merged.keys.push_back(b);
      merged.counts.push_back(delta.counts[j++]);
    } else {
      const uint32_t total = target.counts[i] + delta.counts[j++];
      on_delta_key(a, target.counts[i++], total);
      merged.keys.push_back(a);
      merged.counts.push_back(total);
    }
  }
  for (size_t t = j; t < delta.size(); ++t) {
    on_delta_key(delta.keys[t], 0u, delta.counts[t]);
  }
  merged.keys.insert(merged.keys.end(), target.keys.begin() + static_cast<ptrdiff_t>(i),
                     target.keys.end());
  merged.counts.insert(merged.counts.end(),
                       target.counts.begin() + static_cast<ptrdiff_t>(i),
                       target.counts.end());
  merged.keys.insert(merged.keys.end(), delta.keys.begin() + static_cast<ptrdiff_t>(j),
                     delta.keys.end());
  merged.counts.insert(merged.counts.end(),
                       delta.counts.begin() + static_cast<ptrdiff_t>(j),
                       delta.counts.end());
  target = std::move(merged);
}

inline constexpr auto kIgnoreDeltaKeys = [](uint64_t, uint32_t, uint32_t) {};

}  // namespace internal

/// Folds `delta` into `target`: a linear two-way merge summing the counts of
/// keys present in both. Both inputs must be valid runs; the result is one.
inline void MergeCountRuns(SortedCountRun& target,
                           const SortedCountRun& delta) {
  if (delta.empty()) return;
  if (target.empty()) {
    target = delta;
    return;
  }
  internal::MergeCountRunsImpl(target, delta, internal::kIgnoreDeltaKeys);
}

/// Consuming overload: an empty target adopts `delta`'s buffers outright —
/// the common case on the first emission round, when every persistent run
/// is still empty and the delta is the largest of the whole match.
inline void MergeCountRuns(SortedCountRun& target, SortedCountRun&& delta) {
  if (delta.empty()) return;
  if (target.empty()) {
    target = std::move(delta);
    return;
  }
  internal::MergeCountRunsImpl(target, delta, internal::kIgnoreDeltaKeys);
}

/// Observed fold: as `MergeCountRuns`, and also calls
/// `on_delta_key(key, old_count, new_count)` for every key of `delta`, in
/// ascending order, from inside the merge walk itself — `old_count` is the
/// key's count in `target` before the fold (0 if absent). The tier store
/// learns which keys a fold lifts past its threshold this way, without a
/// second pass. `target` must be non-empty: the store only folds into a
/// tier, and tiers are never empty.
template <typename OnDeltaKey>
void MergeCountRuns(SortedCountRun& target, const SortedCountRun& delta,
                    OnDeltaKey&& on_delta_key) {
  RECONCILE_CHECK(!target.empty()) << "observed fold into an empty run";
  if (delta.empty()) return;
  internal::MergeCountRunsImpl(target, delta, on_delta_key);
}

}  // namespace reconcile

#endif  // RECONCILE_UTIL_RADIX_SORT_H_
