// Builds a `SortedCountRun` from one vector of raw keys, for tests that
// need runs as inputs. Production code builds runs only from a cell's
// producer chunks, so this one-chunk call lives here, not in `src/`.
#ifndef RECONCILE_TESTS_SUPPORT_COUNT_RUN_H_
#define RECONCILE_TESTS_SUPPORT_COUNT_RUN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "reconcile/util/radix_sort.h"

namespace reconcile {

inline SortedCountRun MakeRun(const std::vector<uint64_t>& raw) {
  const std::span<const uint64_t> chunk(raw);
  return BuildCountRun(std::span<const std::span<const uint64_t>>(&chunk, 1));
}

}  // namespace reconcile

#endif  // RECONCILE_TESTS_SUPPORT_COUNT_RUN_H_
