// TieredCountRuns: the LSM tier stack must hold exactly the aggregate of
// the fully merged run — same keys, same totals — under its fixed fold
// policy, which keeps at most two tiers and folds a delta
// into a predecessor at most four times its size. Its threshold frontier
// must hold exactly the keys whose total reaches the store's threshold,
// with those totals, after every operation on every path.
#include "reconcile/util/tiered_store.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/util/rng.h"
#include "support/count_run.h"
#include "support/spill.h"
#include "support/tier_totals.h"

namespace reconcile {
namespace {

// A run of `size` distinct keys starting at `first`.
SortedCountRun MakeDistinctRun(uint64_t first, size_t size) {
  std::vector<uint64_t> raw;
  for (size_t i = 0; i < size; ++i) raw.push_back(first + i);
  return MakeRun(raw);
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

// The fold-policy cases run at the paper's default threshold; below 2 the
// store keeps a single run (see FrontierIsTheWholeStoreAtThresholdOneOrZero).
constexpr uint32_t kThreshold = 2;

std::map<uint64_t, uint32_t> Materialize(const TieredCountRuns& store) {
  const std::vector<std::pair<uint64_t, uint32_t>> totals = TierTotals(store);
  return {totals.begin(), totals.end()};
}

TEST(TieredStoreTest, AggregateMatchesReferenceForDeltaShapes) {
  // Equal-sized deltas fold every time; shrinking deltas (the late
  // low-yield rounds) stay a separate second tier until the cap forces a
  // fold. Either way the fold is the single-run aggregate.
  for (size_t shrink : {1, 2, 8}) {
    SCOPED_TRACE("shrink=" + std::to_string(shrink));
    std::map<uint64_t, uint32_t> reference;
    TieredCountRuns store(kThreshold);
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
  TieredCountRuns store(kThreshold);
  for (int i = 0; i < 6; ++i) {
    store.Append(MakeDistinctRun(0, 64));
    EXPECT_EQ(store.num_tiers(), 1u);
  }
  const std::map<uint64_t, uint32_t> folded = Materialize(store);
  ASSERT_EQ(folded.size(), 64u);
  EXPECT_EQ(folded.at(0), 6u);
}

TEST(TieredStoreTest, RatioAndCapDecideFolds) {
  TieredCountRuns store(kThreshold);
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
  TieredCountRuns folds(kThreshold);
  folds.Append(MakeDistinctRun(0, 400));
  folds.Append(MakeDistinctRun(1000, 100));
  EXPECT_EQ(folds.num_tiers(), 1u);

  TieredCountRuns stays(kThreshold);
  stays.Append(MakeDistinctRun(0, 401));
  stays.Append(MakeDistinctRun(1000, 100));
  EXPECT_EQ(stays.num_tiers(), 2u);
}

TEST(TieredStoreTest, FilterAppliesAcrossTiersAndDropsEmpties) {
  TieredCountRuns store(kThreshold);
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
  TieredCountRuns store(kThreshold);
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
  TieredCountRuns store(kThreshold);
  store.Append(SortedCountRun{});
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.num_tiers(), 0u);
  store.Append(MakeRun({7}));
  store.Append(SortedCountRun{});
  EXPECT_EQ(store.num_tiers(), 1u);
  EXPECT_EQ(store.total_entries(), 1u);
}

// --- Threshold frontier ---------------------------------------------------

using Entries = std::vector<std::pair<uint64_t, uint32_t>>;

// The definition: every key whose total across tiers is >= max(T, 1).
Entries ReferenceFrontier(const TieredCountRuns& store) {
  Entries out;
  for (const auto& [key, total] : TierTotals(store)) {
    if (total >= store.min_score()) out.emplace_back(key, total);
  }
  return out;
}

Entries FrontierOf(const TieredCountRuns& store) {
  Entries out;
  store.frontier().ForEach(
      [&out](uint64_t key, uint32_t total) { out.emplace_back(key, total); });
  return out;
}

// The path an Append takes, read off the stack before the call.
enum Path { kFirst, kFoldIntoLone, kGallop, kForcedFold, kNumPaths };

Path PathOf(const TieredCountRuns& store, size_t delta_size) {
  if (store.empty()) return kFirst;
  if (store.num_tiers() == 2) return kForcedFold;
  return store.tier_size(0) <= TieredCountRuns::kSizeRatio * delta_size
             ? kFoldIntoLone
             : kGallop;
}

class TieredStoreFrontierTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/tiered_store_frontier";
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

// Random delta streams drive every Append path, interleaved with liveness
// filters and spills of either tier; after every step the frontier must
// equal the tier totals filtered to >= T.
TEST_F(TieredStoreFrontierTest, RandomStreamsKeepTheFrontierExact) {
  SpillStore spill(dir_);
  for (uint32_t threshold : {1u, 2u, 3u}) {
    size_t paths[kNumPaths] = {};
    size_t filters = 0, spills = 0;
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE("T=" + std::to_string(threshold) +
                   " seed=" + std::to_string(seed));
      Rng rng(seed * 1000 + threshold);
      TieredCountRuns store(threshold);
      for (int step = 0; step < 40; ++step) {
        // Mostly small deltas against a big run, sometimes a big one: that
        // mix reaches both the gallop path and both kinds of fold.
        const size_t size = rng.UniformInt(4) == 0
                                ? 500 + rng.UniformInt(2000)
                                : 1 + rng.UniformInt(200);
        std::vector<uint64_t> raw;
        for (size_t i = 0; i < size; ++i) raw.push_back(rng.UniformInt(4000));
        SortedCountRun delta = MakeRun(raw);
        ++paths[PathOf(store, delta.size())];
        store.Append(std::move(delta));
        ASSERT_EQ(FrontierOf(store), ReferenceFrontier(store)) << step;

        const uint64_t action = rng.UniformInt(8);
        if (action == 0) {
          const uint64_t modulus = 2 + rng.UniformInt(5);
          store.Filter([modulus](uint64_t key, uint32_t) {
            return key % modulus != 0;
          });
          ++filters;
          ASSERT_EQ(FrontierOf(store), ReferenceFrontier(store)) << step;
        } else if (action <= 2 && !store.empty()) {
          // Later appends gallop into, or fold, a spilled tier.
          const size_t tier = rng.UniformInt(store.num_tiers());
          std::string error;
          ASSERT_TRUE(MoveTierToDisk(store, tier, spill, &error)) << error;
          ++spills;
          ASSERT_EQ(FrontierOf(store), ReferenceFrontier(store)) << step;
        }
      }
    }
    for (int path = 0; path < kNumPaths; ++path) {
      EXPECT_GT(paths[path], 0u) << "T=" << threshold << " path " << path;
    }
    EXPECT_GT(filters, 0u);
    EXPECT_GT(spills, 0u);
  }
}

// Below T = 2 the frontier is every key. The store then keeps no copy: its
// frontier reads the tiers themselves, which keep the fold policy of every
// other threshold, so the resident bytes are the tiers' alone and spilling
// them frees all of it.
TEST_F(TieredStoreFrontierTest, FrontierIsTheWholeStoreAtThresholdOneOrZero) {
  SpillStore spill(dir_);
  for (uint32_t threshold : {0u, 1u}) {
    SCOPED_TRACE("T=" + std::to_string(threshold));
    TieredCountRuns store(threshold);
    store.Append(MakeDistinctRun(100, 64));
    store.Append(MakeRun({5, 3, 3, 9, 120}));
    ASSERT_EQ(store.num_tiers(), 2u);
    std::vector<const uint64_t*> tier_keys;
    store.ForEachTier(
        [&tier_keys](RunView tier) { tier_keys.push_back(tier.keys); });
    EXPECT_EQ(store.frontier().first.keys, tier_keys[0]);
    EXPECT_EQ(store.frontier().second.keys, tier_keys[1]);
    Entries expected = {{3, 2}, {5, 1}, {9, 1}};
    for (uint64_t key = 100; key < 164; ++key) {
      expected.emplace_back(key, key == 120 ? 2 : 1);
    }
    EXPECT_EQ(FrontierOf(store), expected);
    EXPECT_EQ(FrontierOf(store), ReferenceFrontier(store));
    EXPECT_EQ(store.resident_bytes(),
              TieredCountRuns::BytesForEntries(store.total_entries()));

    std::string error;
    ASSERT_TRUE(MoveTierToDisk(store, 0, spill, &error)) << error;
    ASSERT_TRUE(MoveTierToDisk(store, 1, spill, &error)) << error;
    EXPECT_EQ(store.resident_bytes(), 0u);
    EXPECT_EQ(FrontierOf(store), expected);
  }
}

TEST(TieredStoreTest, FrontierHoldsTotalsAcrossTiers) {
  // Key 7 reaches T = 3 only by adding the big run's count to the delta
  // tier's, which the gallop path must look up.
  TieredCountRuns store(3);
  std::vector<uint64_t> big = {7, 7};
  for (uint64_t key = 100; key < 200; ++key) big.push_back(key);
  store.Append(MakeRun(big));
  EXPECT_TRUE(FrontierOf(store).empty());
  store.Append(MakeRun({7, 150, 150}));
  ASSERT_EQ(store.num_tiers(), 2u);
  const Entries expected = {{7, 3}, {150, 3}};
  EXPECT_EQ(FrontierOf(store), expected);
  // Forced fold: key 8 is new, 150 is updated in place.
  store.Append(MakeRun({8, 8, 8, 150}));
  ASSERT_EQ(store.num_tiers(), 2u);
  const Entries updated = {{7, 3}, {8, 3}, {150, 4}};
  EXPECT_EQ(FrontierOf(store), updated);
  EXPECT_EQ(store.resident_bytes(),
            TieredCountRuns::BytesForEntries(store.total_entries() + 3));
}

// The snapshot loader's path: a stack rebuilt tier by tier with
// AppendUnfolded rebuilds the same frontier, and keeps it exact as the
// stream continues.
TEST(TieredStoreTest, AppendUnfoldedRebuildsTheFrontier) {
  for (uint32_t threshold : {1u, 2u, 3u}) {
    SCOPED_TRACE("T=" + std::to_string(threshold));
    const auto deltas = MakeDeltaStream(31 + threshold, 12, 300, 2000);
    TieredCountRuns original(threshold);
    for (size_t i = 0; i < deltas.size(); ++i) {
      std::vector<uint64_t> raw = deltas[i];
      raw.resize(i % 3 == 0 ? raw.size() : raw.size() / 8);
      original.Append(MakeRun(raw));
      TieredCountRuns rebuilt(threshold);
      original.ForEachTier([&rebuilt](RunView tier) {
        SortedCountRun copy;
        copy.keys.assign(tier.keys, tier.keys + tier.size);
        copy.counts.assign(tier.counts, tier.counts + tier.size);
        rebuilt.AppendUnfolded(std::move(copy));
      });
      ASSERT_EQ(rebuilt.num_tiers(), original.num_tiers());
      ASSERT_EQ(FrontierOf(rebuilt), FrontierOf(original)) << i;
      ASSERT_EQ(FrontierOf(rebuilt), ReferenceFrontier(rebuilt)) << i;
      rebuilt.Append(MakeRun(deltas[(i + 5) % deltas.size()]));
      original.Append(MakeRun(deltas[(i + 5) % deltas.size()]));
      ASSERT_EQ(FrontierOf(rebuilt), ReferenceFrontier(rebuilt)) << i;
      ASSERT_EQ(FrontierOf(rebuilt), FrontierOf(original)) << i;
    }
  }
}

TEST(TieredStoreTest, GallopCountFindsEveryKeyInOrder) {
  const SortedCountRun run = MakeRun({2, 4, 4, 6, 8, 8, 8, 100, 1000});
  const RunView view{run.keys.data(), run.counts.data(), run.size()};
  size_t cursor = 0;
  const std::vector<std::pair<uint64_t, uint32_t>> queries = {
      {1, 0}, {2, 1}, {3, 0}, {4, 2}, {8, 3}, {99, 0}, {100, 1}, {1000, 1},
      {5000, 0}};
  for (const auto& [key, count] : queries) {
    EXPECT_EQ(GallopCount(view, &cursor, key), count) << key;
  }
  EXPECT_EQ(cursor, run.size());
  size_t empty_cursor = 0;
  EXPECT_EQ(GallopCount(RunView{}, &empty_cursor, 7), 0u);
}

}  // namespace
}  // namespace reconcile
