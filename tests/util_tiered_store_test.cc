// TieredCountRuns: the LSM tier stack must present exactly the aggregate of
// the fully merged run — same keys, same totals, ascending order — under
// its fixed fold policy, which keeps at most two tiers and folds a delta
// into a predecessor at most four times its size.
#include "reconcile/util/tiered_store.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/util/rng.h"

namespace reconcile {
namespace {

SortedCountRun MakeRun(std::vector<uint64_t> raw) {
  std::vector<uint64_t> scratch;
  return SortAndCount(std::move(raw), scratch);
}

// A run of `size` distinct keys starting at `first`.
SortedCountRun MakeDistinctRun(uint64_t first, size_t size) {
  std::vector<uint64_t> raw;
  for (size_t i = 0; i < size; ++i) raw.push_back(first + i);
  return MakeRun(std::move(raw));
}

// Random delta stream with overlapping keys across deltas.
std::vector<std::vector<uint64_t>> MakeDeltaStream(uint64_t seed,
                                                   size_t num_deltas,
                                                   size_t delta_size,
                                                   uint64_t key_space) {
  Rng rng(seed);
  std::vector<std::vector<uint64_t>> deltas(num_deltas);
  for (auto& delta : deltas) {
    for (size_t i = 0; i < delta_size; ++i) {
      delta.push_back(rng.UniformInt(key_space));
    }
  }
  return deltas;
}

std::map<uint64_t, uint32_t> Materialize(const TieredCountRuns& store) {
  std::map<uint64_t, uint32_t> out;
  uint64_t last_key = 0;
  bool first = true;
  store.ForEach([&out, &last_key, &first](uint64_t key, uint32_t count) {
    if (!first) {
      EXPECT_GT(key, last_key) << "ForEach must ascend";
    }
    first = false;
    last_key = key;
    EXPECT_TRUE(out.emplace(key, count).second) << "duplicate key surfaced";
  });
  return out;
}

TEST(TieredStoreTest, AggregateMatchesReferenceForDeltaShapes) {
  // Equal-sized deltas fold every time; shrinking deltas (the late
  // low-yield rounds) stay a separate second tier until the cap forces a
  // fold. Either way the fold is the single-run aggregate.
  for (size_t shrink : {1, 2, 8}) {
    SCOPED_TRACE("shrink=" + std::to_string(shrink));
    std::map<uint64_t, uint32_t> reference;
    TieredCountRuns store;
    size_t size = 4000;
    for (uint64_t seed = 77; seed < 86; ++seed) {
      const auto delta = MakeDeltaStream(seed, 1, size, 3000)[0];
      for (uint64_t key : delta) ++reference[key];
      store.Append(MakeRun(delta));
      EXPECT_LE(store.num_tiers(), TieredCountRuns::kMaxTiers);
      EXPECT_EQ(Materialize(store), reference);
      size = std::max<size_t>(1, size / shrink);
    }
  }
}

TEST(TieredStoreTest, EqualSizedDeltasFold) {
  TieredCountRuns store;
  for (int i = 0; i < 6; ++i) {
    store.Append(MakeDistinctRun(0, 64));
    EXPECT_EQ(store.num_tiers(), 1u);
  }
  const std::map<uint64_t, uint32_t> folded = Materialize(store);
  ASSERT_EQ(folded.size(), 64u);
  EXPECT_EQ(folded.at(0), 6u);
}

TEST(TieredStoreTest, RatioAndCapDecideFolds) {
  TieredCountRuns store;
  store.Append(MakeDistinctRun(0, 4000));
  // 4000 > 4 * 100: the small delta stays a second tier.
  store.Append(MakeDistinctRun(10000, 100));
  ASSERT_EQ(store.num_tiers(), 2u);
  // A third tier exceeds the cap and folds into the delta tier; the
  // merged 200 entries are still small next to the big run.
  store.Append(MakeDistinctRun(20000, 100));
  ASSERT_EQ(store.num_tiers(), 2u);
  EXPECT_EQ(store.tier_size(0), 4000u);
  EXPECT_EQ(store.tier_size(1), 200u);
  // 1200 merged entries are within 4x of the big run: everything folds.
  store.Append(MakeDistinctRun(30000, 1000));
  ASSERT_EQ(store.num_tiers(), 1u);
  EXPECT_EQ(store.tier_size(0), 5200u);
}

TEST(TieredStoreTest, PredecessorExactlyFourTimesLargerFolds) {
  TieredCountRuns folds;
  folds.Append(MakeDistinctRun(0, 400));
  folds.Append(MakeDistinctRun(1000, 100));
  EXPECT_EQ(folds.num_tiers(), 1u);

  TieredCountRuns stays;
  stays.Append(MakeDistinctRun(0, 401));
  stays.Append(MakeDistinctRun(1000, 100));
  EXPECT_EQ(stays.num_tiers(), 2u);
}

TEST(TieredStoreTest, FilterAppliesAcrossTiersAndDropsEmpties) {
  TieredCountRuns store;
  store.Append(MakeRun({10, 12, 12, 14, 16, 18, 20, 22, 24, 26}));
  store.Append(MakeRun({11, 12}));
  ASSERT_EQ(store.num_tiers(), 2u);
  store.Filter([](uint64_t key, uint32_t) { return key % 2 == 0; });
  const std::map<uint64_t, uint32_t> kept = Materialize(store);
  EXPECT_EQ(kept.count(11), 0u);
  EXPECT_EQ(kept.at(10), 1u);
  EXPECT_EQ(kept.at(12), 3u);
  EXPECT_EQ(kept.size(), 9u);
  EXPECT_EQ(store.num_tiers(), 2u);
  // The delta tier now holds only key 12; emptying it drops the tier.
  store.Filter([](uint64_t key, uint32_t) { return key != 12; });
  EXPECT_EQ(store.num_tiers(), 1u);
  store.Filter([](uint64_t, uint32_t) { return false; });
  EXPECT_TRUE(store.empty());
}

TEST(TieredStoreTest, AppendUnfoldedKeepsTierBoundaries) {
  // The snapshot loader rebuilds a written stack exactly: two equal-sized
  // tiers stay two, where Append would have folded them.
  TieredCountRuns store;
  store.AppendUnfolded(MakeDistinctRun(0, 64));
  store.AppendUnfolded(MakeDistinctRun(32, 64));
  ASSERT_EQ(store.num_tiers(), 2u);
  const std::map<uint64_t, uint32_t> folded = Materialize(store);
  EXPECT_EQ(folded.size(), 96u);
  EXPECT_EQ(folded.at(0), 1u);
  EXPECT_EQ(folded.at(40), 2u);
  // The next Append folds per the policy again.
  store.Append(MakeDistinctRun(200, 16));
  EXPECT_EQ(store.num_tiers(), 1u);
  EXPECT_EQ(store.total_entries(), 112u);
}

TEST(TieredStoreTest, EmptyDeltasAreDropped) {
  TieredCountRuns store;
  store.Append(SortedCountRun{});
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.num_tiers(), 0u);
  store.Append(MakeRun({7}));
  store.Append(SortedCountRun{});
  EXPECT_EQ(store.num_tiers(), 1u);
  EXPECT_EQ(store.total_entries(), 1u);
}

}  // namespace
}  // namespace reconcile
