// Reference aggregate of a `TieredCountRuns` for tests: every distinct key
// with its count summed across tiers, ascending. It reads the raw tiers
// (resident or spilled alike, through their views) into a `std::map`, so
// it does not share code with the store's fold or frontier maintenance.
#ifndef RECONCILE_TESTS_SUPPORT_TIER_TOTALS_H_
#define RECONCILE_TESTS_SUPPORT_TIER_TOTALS_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/util/tiered_store.h"

namespace reconcile {

inline std::vector<std::pair<uint64_t, uint32_t>> TierTotals(
    const TieredCountRuns& store) {
  std::map<uint64_t, uint32_t> totals;
  store.ForEachTier([&totals](RunView tier) {
    for (size_t i = 0; i < tier.size; ++i) {
      if (i > 0) {
        EXPECT_LT(tier.keys[i - 1], tier.keys[i]) << "tier keys must ascend";
      }
      totals[tier.keys[i]] += tier.counts[i];
    }
  });
  return {totals.begin(), totals.end()};
}

}  // namespace reconcile

#endif  // RECONCILE_TESTS_SUPPORT_TIER_TOTALS_H_
