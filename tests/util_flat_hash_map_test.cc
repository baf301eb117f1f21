#include "reconcile/util/flat_hash_map.h"

#include <map>

#include <gtest/gtest.h>

#include "reconcile/graph/types.h"
#include "reconcile/util/rng.h"

namespace reconcile {
namespace {

TEST(FlatCountMapTest, StartsEmpty) {
  FlatCountMap map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Count(123), 0u);
}

TEST(FlatCountMapTest, AddCountInsertsAndIncrements) {
  FlatCountMap map;
  EXPECT_EQ(map.AddCount(7, 1), 1u);
  EXPECT_EQ(map.AddCount(7, 1), 2u);
  EXPECT_EQ(map.AddCount(7, 5), 7u);
  EXPECT_EQ(map.Count(7), 7u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatCountMapTest, ZeroKeyIsValid) {
  FlatCountMap map;
  map.AddCount(0, 3);
  EXPECT_EQ(map.Count(0), 3u);
}

TEST(FlatCountMapTest, GrowsBeyondInitialCapacity) {
  FlatCountMap map;
  constexpr uint64_t kKeys = 10000;
  for (uint64_t k = 0; k < kKeys; ++k) map.AddCount(k, 1);
  EXPECT_EQ(map.size(), kKeys);
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(map.Count(k), 1u) << "key " << k;
  }
  EXPECT_EQ(map.Count(kKeys + 1), 0u);
}

TEST(FlatCountMapTest, MatchesReferenceMapUnderRandomWorkload) {
  FlatCountMap map;
  std::map<uint64_t, uint32_t> reference;
  Rng rng(99);
  for (int i = 0; i < 50000; ++i) {
    uint64_t key = rng.UniformInt(2000);  // heavy collisions
    uint32_t delta = static_cast<uint32_t>(1 + rng.UniformInt(3));
    map.AddCount(key, delta);
    reference[key] += delta;
  }
  EXPECT_EQ(map.size(), reference.size());
  for (const auto& [key, count] : reference) {
    ASSERT_EQ(map.Count(key), count) << "key " << key;
  }
}

TEST(FlatCountMapTest, PackedPairKeysRoundTrip) {
  FlatCountMap map;
  // Keys built from node pairs, including extremes below the sentinel.
  map.AddCount(PackPair(0, 0), 1);
  map.AddCount(PackPair(0xFFFFFFFE, 0xFFFFFFFE), 2);
  EXPECT_EQ(map.Count(PackPair(0, 0)), 1u);
  EXPECT_EQ(map.Count(PackPair(0xFFFFFFFE, 0xFFFFFFFE)), 2u);
}

TEST(FlatCountMapDeathTest, SentinelKeyRejected) {
  FlatCountMap map;
  EXPECT_DEATH(map.AddCount(FlatCountMap::kEmptyKey, 1), "Check failed");
}

}  // namespace
}  // namespace reconcile
