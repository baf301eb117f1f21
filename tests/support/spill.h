// Spills for tests, through the production path: `SpillStore::Plan`, then
// `Write`, then `Commit`, and `AdoptSpill` for a tier, one spill at a time
// (the memory budget's pass runs the writes of a prefix concurrently).
#ifndef RECONCILE_TESTS_SUPPORT_SPILL_H_
#define RECONCILE_TESTS_SUPPORT_SPILL_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>

#include "reconcile/util/spill_store.h"
#include "reconcile/util/tiered_store.h"

namespace reconcile {

// Writes `run` to a fresh file of `store` and maps it back; null with
// `*error` set on any failure, injected or real, leaving no file behind.
inline std::unique_ptr<SpilledRun> SpillRun(SpillStore& store,
                                            const SortedCountRun& run,
                                            std::string* error) {
  std::unique_ptr<SpilledRun> spilled =
      SpillStore::Write(store.Plan(), run, error);
  store.Commit(spilled.get());
  return spilled;
}

// Moves tier `index` of `tiers` to disk. On failure the tier stays
// resident and `*error` says why. An already-spilled or empty tier is a
// successful no-op.
inline bool MoveTierToDisk(TieredCountRuns& tiers, size_t index,
                           SpillStore& store, std::string* error) {
  if (tiers.tier_spilled(index) || tiers.tier_size(index) == 0) return true;
  std::unique_ptr<SpilledRun> spilled =
      SpillRun(store, tiers.resident_tier(index), error);
  if (spilled == nullptr) return false;
  tiers.AdoptSpill(index, std::move(spilled));
  return true;
}

}  // namespace reconcile

#endif  // RECONCILE_TESTS_SUPPORT_SPILL_H_
