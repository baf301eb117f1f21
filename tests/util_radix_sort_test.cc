#include "reconcile/util/radix_sort.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/util/rng.h"

namespace reconcile {
namespace {

std::vector<uint64_t> RandomKeys(size_t n, uint64_t seed, uint64_t mask) {
  Rng rng(seed);
  std::vector<uint64_t> keys(n);
  for (uint64_t& key : keys) key = rng.Next() & mask;
  return keys;
}

void ExpectSortsLike(std::vector<uint64_t> keys) {
  std::vector<uint64_t> expected = keys;
  std::sort(expected.begin(), expected.end());
  std::vector<uint64_t> scratch;
  RadixSortU64(keys, scratch);
  EXPECT_EQ(keys, expected);
}

TEST(RadixSortTest, EmptyAndSingleton) {
  ExpectSortsLike({});
  ExpectSortsLike({42});
}

TEST(RadixSortTest, SmallArraysUseCutoffPath) {
  ExpectSortsLike({5, 3, 9, 1, 1, 0, 7});
  ExpectSortsLike(RandomKeys(kRadixSortCutoff - 1, 11, ~0ULL));
}

TEST(RadixSortTest, FullWidthRandomKeys) {
  ExpectSortsLike(RandomKeys(50000, 1, ~0ULL));
}

TEST(RadixSortTest, NarrowKeysSkipTrivialPasses) {
  // All high bytes zero: only the low passes should run, result still sorted.
  ExpectSortsLike(RandomKeys(20000, 2, 0xffffULL));
  ExpectSortsLike(RandomKeys(20000, 3, 0xffULL));
}

TEST(RadixSortTest, HighBitsOnly) {
  ExpectSortsLike(RandomKeys(20000, 4, 0xffff000000000000ULL));
}

TEST(RadixSortTest, DuplicateHeavyInput) {
  ExpectSortsLike(RandomKeys(30000, 5, 0x1fULL));  // 32 distinct values
}

TEST(RadixSortTest, AlreadySortedAndReversed) {
  std::vector<uint64_t> keys(10000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i * 3;
  ExpectSortsLike(keys);
  std::reverse(keys.begin(), keys.end());
  ExpectSortsLike(keys);
}

TEST(RadixSortTest, ScratchReuseAcrossCalls) {
  std::vector<uint64_t> scratch;
  for (uint64_t round = 0; round < 4; ++round) {
    std::vector<uint64_t> keys = RandomKeys(5000 + 1000 * round, round, ~0ULL);
    std::vector<uint64_t> expected = keys;
    std::sort(expected.begin(), expected.end());
    RadixSortU64(keys, scratch);
    EXPECT_EQ(keys, expected);
  }
}

TEST(SortedCountRunTest, SortAndCountAggregatesLikeAMap) {
  std::vector<uint64_t> raw = RandomKeys(40000, 6, 0x3ffULL);
  std::map<uint64_t, uint32_t> expected;
  for (uint64_t key : raw) ++expected[key];

  std::vector<uint64_t> scratch;
  SortedCountRun run = SortAndCount(std::move(raw), scratch);
  ASSERT_EQ(run.size(), expected.size());
  size_t i = 0;
  for (const auto& [key, count] : expected) {
    EXPECT_EQ(run.keys[i], key);
    EXPECT_EQ(run.counts[i], count);
    ++i;
  }
  // Keys strictly increasing.
  for (size_t k = 1; k < run.size(); ++k) {
    EXPECT_LT(run.keys[k - 1], run.keys[k]);
  }
}

TEST(SortedCountRunTest, SortAndCountEmpty) {
  std::vector<uint64_t> scratch;
  SortedCountRun run = SortAndCount({}, scratch);
  EXPECT_TRUE(run.empty());
  EXPECT_EQ(run.size(), 0u);
}

TEST(SortedCountRunTest, CountLookup) {
  std::vector<uint64_t> scratch;
  SortedCountRun run = SortAndCount({5, 5, 9, 2, 5}, scratch);
  EXPECT_EQ(run.Count(5), 3u);
  EXPECT_EQ(run.Count(2), 1u);
  EXPECT_EQ(run.Count(9), 1u);
  EXPECT_EQ(run.Count(7), 0u);
  EXPECT_EQ(run.Count(0), 0u);
  EXPECT_EQ(run.Count(100), 0u);
}

TEST(SortedCountRunTest, ForEachVisitsInAscendingOrder) {
  std::vector<uint64_t> scratch;
  SortedCountRun run = SortAndCount(RandomKeys(1000, 7, 0xffULL), scratch);
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
  std::vector<uint64_t> scratch;
  SortedCountRun run = SortAndCount(RandomKeys(5000, 8, 0x1ffULL), scratch);
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
  std::vector<uint64_t> scratch;
  std::vector<uint64_t> a_raw = RandomKeys(10000, 9, 0xfffULL);
  std::vector<uint64_t> b_raw = RandomKeys(3000, 10, 0xfffULL);
  std::map<uint64_t, uint32_t> expected;
  for (uint64_t key : a_raw) ++expected[key];
  for (uint64_t key : b_raw) ++expected[key];

  SortedCountRun a = SortAndCount(std::move(a_raw), scratch);
  SortedCountRun b = SortAndCount(std::move(b_raw), scratch);
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
  std::vector<uint64_t> scratch;
  SortedCountRun empty;
  SortedCountRun run = SortAndCount({1, 2, 2}, scratch);

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
  std::vector<uint64_t> scratch;
  SortedCountRun low = SortAndCount({1, 2, 3}, scratch);
  SortedCountRun high = SortAndCount({10, 11}, scratch);
  MergeCountRuns(low, high);
  EXPECT_EQ(low.keys, (std::vector<uint64_t>{1, 2, 3, 10, 11}));

  SortedCountRun a = SortAndCount({1, 5, 9}, scratch);
  SortedCountRun b = SortAndCount({5, 9, 12}, scratch);
  MergeCountRuns(a, b);
  EXPECT_EQ(a.keys, (std::vector<uint64_t>{1, 5, 9, 12}));
  EXPECT_EQ(a.counts, (std::vector<uint32_t>{1, 2, 2, 1}));
}

// The observed fold reports every delta key once, ascending, with its count
// in the target before and after, and merges exactly like the plain fold.
TEST(MergeCountRunsTest, ObserverSeesEveryDeltaKeyWithOldAndNewCounts) {
  std::vector<uint64_t> scratch;
  struct Seen {
    uint64_t key;
    uint32_t old_count;
    uint32_t new_count;
    bool operator==(const Seen&) const = default;
  };
  const SortedCountRun delta = SortAndCount({2, 5, 5, 9, 20, 21}, scratch);
  SortedCountRun target = SortAndCount({1, 5, 9, 9, 12}, scratch);
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
