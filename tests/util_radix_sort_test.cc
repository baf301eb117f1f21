#include "reconcile/util/radix_sort.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/util/rng.h"
#include "support/count_run.h"

namespace reconcile {
namespace {

std::vector<uint64_t> RandomKeys(size_t n, uint64_t seed, uint64_t mask) {
  Rng rng(seed);
  std::vector<uint64_t> keys(n);
  for (uint64_t& key : keys) key = rng.Next() & mask;
  return keys;
}

// Builds the run from `chunks` and checks it against a `std::map`
// aggregate of every key in every chunk.
void ExpectBuildsLikeAMap(const std::vector<std::vector<uint64_t>>& chunks) {
  std::map<uint64_t, uint32_t> expected;
  std::vector<std::span<const uint64_t>> spans;
  for (const std::vector<uint64_t>& chunk : chunks) {
    for (uint64_t key : chunk) ++expected[key];
    spans.emplace_back(chunk);
  }
  const SortedCountRun run = BuildCountRun(spans);
  ASSERT_EQ(run.keys.size(), run.counts.size());
  ASSERT_EQ(run.size(), expected.size());
  size_t i = 0;
  for (const auto& [key, count] : expected) {
    ASSERT_EQ(run.keys[i], key) << "entry " << i;
    ASSERT_EQ(run.counts[i], count) << "entry " << i;
    ++i;
  }
}

// `n` keys split into chunks of the given sizes, cycling, with an empty
// chunk between every two.
std::vector<std::vector<uint64_t>> Split(const std::vector<uint64_t>& keys,
                                         std::vector<size_t> sizes) {
  std::vector<std::vector<uint64_t>> chunks;
  size_t at = 0;
  for (size_t c = 0; at < keys.size(); ++c) {
    const size_t size = std::min(sizes[c % sizes.size()], keys.size() - at);
    chunks.emplace_back(keys.begin() + static_cast<ptrdiff_t>(at),
                        keys.begin() + static_cast<ptrdiff_t>(at + size));
    chunks.emplace_back();
    at += size;
  }
  return chunks;
}

TEST(BuildCountRunTest, EmptyInputs) {
  EXPECT_TRUE(MakeRun({}).empty());
  ExpectBuildsLikeAMap({});
  ExpectBuildsLikeAMap({{}, {}, {}});
}

TEST(BuildCountRunTest, SingleKeyAndAllEqualKeys) {
  ExpectBuildsLikeAMap({{42}});
  ExpectBuildsLikeAMap({std::vector<uint64_t>(10, 7), {}, {7, 7}});
  ExpectBuildsLikeAMap(
      {std::vector<uint64_t>(kCountRunBlockKeys + 5, 0xdeadbeefULL)});
}

TEST(BuildCountRunTest, AggregatesLikeAMap) {
  ExpectBuildsLikeAMap({RandomKeys(40000, 6, 0x3ffULL)});
  ExpectBuildsLikeAMap({{5, 3, 9, 1, 1, 0, 7}});
}

// Chunks are read in place: duplicates that meet only across chunks, and
// empty chunks anywhere, still aggregate into one entry per key.
TEST(BuildCountRunTest, MultiChunkWithEmptyChunksAndCrossChunkDuplicates) {
  const std::vector<uint64_t> shared = RandomKeys(3000, 12, 0xffffffULL);
  std::vector<std::vector<uint64_t>> chunks = {{}, shared, {}, {}, shared};
  chunks.push_back(RandomKeys(500, 13, 0xffffffULL));
  chunks.emplace_back();
  ExpectBuildsLikeAMap(chunks);
  // Large enough to take the scatter path, in uneven chunks.
  const std::vector<uint64_t> big =
      RandomKeys(3 * kCountRunBlockKeys, 14, 0xfffffffffULL);
  std::vector<std::vector<uint64_t>> split = Split(big, {1, 7000, 333, 40000});
  split.push_back(std::vector<uint64_t>(big.begin(), big.begin() + 9000));
  ExpectBuildsLikeAMap(split);
}

// The sizes where the builder changes strategy: comparison sort up to the
// small-sort cutoff, one gathered block up to the block size, one scatter
// on the top varying bits beyond it.
TEST(BuildCountRunTest, SizesAroundTheCutoffs) {
  for (size_t n : {kCountRunSmallSort - 1, kCountRunSmallSort,
                   kCountRunSmallSort + 1, kCountRunBlockKeys - 1,
                   kCountRunBlockKeys, kCountRunBlockKeys + 1}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<uint64_t> keys = RandomKeys(n, 15 + n, 0xfffffULL);
    ExpectBuildsLikeAMap({keys});
    ExpectBuildsLikeAMap(Split(keys, {n / 3 + 1, 17}));
  }
}

// Keys that differ in one byte only (the rest constant, so every other
// digit pass is skipped), in the lowest, a middle or the top byte; and
// keys that differ in all eight.
TEST(BuildCountRunTest, KeysVaryingInOneByteOrInAllEight) {
  for (int byte : {0, 3, 7}) {
    SCOPED_TRACE("byte " + std::to_string(byte));
    const uint64_t base = 0x0123456789abcdefULL & ~(0xffULL << (8 * byte));
    for (size_t n : {size_t{1000}, 2 * kCountRunBlockKeys}) {
      std::vector<uint64_t> keys = RandomKeys(n, 20 + n, 0xffULL);
      for (uint64_t& key : keys) key = base | (key << (8 * byte));
      ExpectBuildsLikeAMap(Split(keys, {n / 2 + 3}));
    }
  }
  for (size_t n : {size_t{5000}, 4 * kCountRunBlockKeys}) {
    std::vector<uint64_t> keys = RandomKeys(n, 30 + n, ~0ULL);
    // Repeat a tenth of the keys so full-width input has duplicates too.
    keys.insert(keys.end(), keys.begin(),
                keys.begin() + static_cast<ptrdiff_t>(n / 10));
    ExpectBuildsLikeAMap(Split(keys, {n / 4 + 1, 3}));
  }
}

// Skewed input: nearly every key in one bucket of the scatter digit, so
// that bucket is far larger than a block.
TEST(BuildCountRunTest, SkewedScatterBuckets) {
  std::vector<uint64_t> keys = RandomKeys(3 * kCountRunBlockKeys, 40, 0xffffULL);
  keys.push_back(uint64_t{1} << 40);
  keys.push_back((uint64_t{1} << 40) + 1);
  ExpectBuildsLikeAMap({keys});
}

TEST(BuildCountRunTest, AlreadySortedAndReversed) {
  std::vector<uint64_t> keys(3 * kCountRunBlockKeys);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = (i / 2) * 3;
  ExpectBuildsLikeAMap({keys});
  std::reverse(keys.begin(), keys.end());
  ExpectBuildsLikeAMap({keys});
}

// Appends `keys` in one bulk call that writes all of them.
void AppendAll(KeyBuffer& buffer, const std::vector<uint64_t>& keys) {
  const size_t written =
      buffer.Append(keys.size(), [&keys](uint64_t* out) {
        std::copy(keys.begin(), keys.end(), out);
        return keys.size();
      });
  EXPECT_EQ(written, keys.size());
}

std::vector<uint64_t> Multiples(uint64_t count, uint64_t step) {
  std::vector<uint64_t> keys(count);
  for (uint64_t i = 0; i < count; ++i) keys[i] = i * step;
  return keys;
}

TEST(KeyBufferTest, ShrinkToFitKeepsTheKeys) {
  KeyBuffer buffer;
  EXPECT_TRUE(buffer.empty());
  buffer.ShrinkToFit();
  AppendAll(buffer, Multiples(1000, 7));
  buffer.ShrinkToFit();
  ASSERT_EQ(buffer.size(), 1000u);
  for (uint64_t key = 0; key < 1000; ++key) {
    EXPECT_EQ(buffer.keys()[key], key * 7);
  }
  AppendAll(buffer, {1});  // grows again after a shrink
  KeyBuffer moved = std::move(buffer);
  EXPECT_EQ(moved.size(), 1001u);
  EXPECT_EQ(moved.keys().back(), 1u);
}

TEST(KeyBufferTest, AppendZeroSlotsLeavesTheBufferAlone) {
  KeyBuffer buffer;
  EXPECT_EQ(buffer.Append(0, [](uint64_t*) { return size_t{0}; }), 0u);
  EXPECT_TRUE(buffer.empty());
  EXPECT_TRUE(buffer.keys().empty());
  AppendAll(buffer, {5, 6});
  EXPECT_EQ(buffer.Append(0, [](uint64_t*) { return size_t{0}; }), 0u);
  EXPECT_EQ(std::vector<uint64_t>(buffer.keys().begin(), buffer.keys().end()),
            (std::vector<uint64_t>{5, 6}));
}

// The filler may write fewer keys than it reserved; only those join.
TEST(KeyBufferTest, AppendKeepsOnlyTheWrittenPrefix) {
  KeyBuffer buffer;
  const size_t written = buffer.Append(10, [](uint64_t* out) {
    for (uint64_t i = 0; i < 4; ++i) out[i] = 100 + i;
    return size_t{4};
  });
  EXPECT_EQ(written, 4u);
  AppendAll(buffer, {7});
  EXPECT_EQ(std::vector<uint64_t>(buffer.keys().begin(), buffer.keys().end()),
            (std::vector<uint64_t>{100, 101, 102, 103, 7}));
}

// An append larger than twice the capacity must reserve all of it, not
// just the usual doubling.
TEST(KeyBufferTest, AppendGrowsPastTwiceTheCapacity) {
  KeyBuffer buffer;
  AppendAll(buffer, Multiples(3, 1));  // capacity 64
  const std::vector<uint64_t> big = Multiples(10000, 3);
  AppendAll(buffer, big);
  ASSERT_EQ(buffer.size(), 10003u);
  for (size_t i = 0; i < big.size(); ++i) {
    ASSERT_EQ(buffer.keys()[3 + i], big[i]) << i;
  }
  AppendAll(buffer, Multiples(100000, 5));  // from a large capacity too
  ASSERT_EQ(buffer.size(), 110003u);
  EXPECT_EQ(buffer.keys().back(), 99999u * 5);
}

TEST(KeyBufferTest, ShrinkAndMoveAfterABulkAppend) {
  KeyBuffer buffer;
  AppendAll(buffer, Multiples(300, 11));
  buffer.ShrinkToFit();
  KeyBuffer moved;
  AppendAll(moved, {1, 2, 3});
  moved = std::move(buffer);
  ASSERT_EQ(moved.size(), 300u);
  EXPECT_EQ(moved.keys()[299], 299u * 11);
  AppendAll(moved, Multiples(700, 2));  // grows from the shrunk block
  ASSERT_EQ(moved.size(), 1000u);
  EXPECT_EQ(moved.keys()[299], 299u * 11);
  EXPECT_EQ(moved.keys().back(), 699u * 2);
}

TEST(SortedCountRunTest, CountLookup) {
  SortedCountRun run = MakeRun({5, 5, 9, 2, 5});
  EXPECT_EQ(run.Count(5), 3u);
  EXPECT_EQ(run.Count(2), 1u);
  EXPECT_EQ(run.Count(9), 1u);
  EXPECT_EQ(run.Count(7), 0u);
  EXPECT_EQ(run.Count(0), 0u);
  EXPECT_EQ(run.Count(100), 0u);
}

TEST(SortedCountRunTest, ForEachVisitsInAscendingOrder) {
  SortedCountRun run = MakeRun(RandomKeys(1000, 7, 0xffULL));
  uint64_t last = 0;
  bool first = true;
  size_t visited = 0;
  run.ForEach([&](uint64_t key, uint32_t count) {
    if (!first) {
      EXPECT_GT(key, last);
    }
    EXPECT_GT(count, 0u);
    last = key;
    first = false;
    ++visited;
  });
  EXPECT_EQ(visited, run.size());
}

TEST(SortedCountRunTest, FilterKeepsOrderAndDropsEntries) {
  SortedCountRun run = MakeRun(RandomKeys(5000, 8, 0x1ffULL));
  const size_t before = run.size();
  run.Filter([](uint64_t key, uint32_t) { return key % 2 == 0; });
  EXPECT_LT(run.size(), before);
  for (size_t i = 0; i < run.size(); ++i) {
    EXPECT_EQ(run.keys[i] % 2, 0u);
    if (i > 0) {
      EXPECT_LT(run.keys[i - 1], run.keys[i]);
    }
  }
  EXPECT_EQ(run.keys.size(), run.counts.size());
}

TEST(MergeCountRunsTest, MatchesMapReference) {
  std::vector<uint64_t> a_raw = RandomKeys(10000, 9, 0xfffULL);
  std::vector<uint64_t> b_raw = RandomKeys(3000, 10, 0xfffULL);
  std::map<uint64_t, uint32_t> expected;
  for (uint64_t key : a_raw) ++expected[key];
  for (uint64_t key : b_raw) ++expected[key];

  SortedCountRun a = MakeRun(a_raw);
  SortedCountRun b = MakeRun(b_raw);
  MergeCountRuns(a, b);
  ASSERT_EQ(a.size(), expected.size());
  size_t i = 0;
  for (const auto& [key, count] : expected) {
    EXPECT_EQ(a.keys[i], key);
    EXPECT_EQ(a.counts[i], count);
    ++i;
  }
}

TEST(MergeCountRunsTest, EmptyCases) {
  SortedCountRun empty;
  SortedCountRun run = MakeRun({1, 2, 2});

  SortedCountRun target = run;
  MergeCountRuns(target, empty);  // no-op
  EXPECT_EQ(target.keys, run.keys);
  EXPECT_EQ(target.counts, run.counts);

  SortedCountRun fresh;
  MergeCountRuns(fresh, run);  // copy-through
  EXPECT_EQ(fresh.keys, run.keys);
  EXPECT_EQ(fresh.counts, run.counts);
}

TEST(MergeCountRunsTest, DisjointAndOverlappingTails) {
  SortedCountRun low = MakeRun({1, 2, 3});
  SortedCountRun high = MakeRun({10, 11});
  MergeCountRuns(low, high);
  EXPECT_EQ(low.keys, (std::vector<uint64_t>{1, 2, 3, 10, 11}));

  SortedCountRun a = MakeRun({1, 5, 9});
  SortedCountRun b = MakeRun({5, 9, 12});
  MergeCountRuns(a, b);
  EXPECT_EQ(a.keys, (std::vector<uint64_t>{1, 5, 9, 12}));
  EXPECT_EQ(a.counts, (std::vector<uint32_t>{1, 2, 2, 1}));
}

// The observed fold reports every delta key once, ascending, with its count
// in the target before and after, and merges exactly like the plain fold.
TEST(MergeCountRunsTest, ObserverSeesEveryDeltaKeyWithOldAndNewCounts) {
  struct Seen {
    uint64_t key;
    uint32_t old_count;
    uint32_t new_count;
    bool operator==(const Seen&) const = default;
  };
  const SortedCountRun delta = MakeRun({2, 5, 5, 9, 20, 21});
  SortedCountRun target = MakeRun({1, 5, 9, 9, 12});
  SortedCountRun plain = target;
  MergeCountRuns(plain, delta);
  std::vector<Seen> seen;
  MergeCountRuns(target, delta,
                 [&seen](uint64_t key, uint32_t old_count, uint32_t new_count) {
                   seen.push_back({key, old_count, new_count});
                 });
  EXPECT_EQ(target.keys, plain.keys);
  EXPECT_EQ(target.counts, plain.counts);
  const std::vector<Seen> expected = {
      {2, 0, 1}, {5, 1, 3}, {9, 2, 3}, {20, 0, 1}, {21, 0, 1}};
  EXPECT_EQ(seen, expected);
}

}  // namespace
}  // namespace reconcile
