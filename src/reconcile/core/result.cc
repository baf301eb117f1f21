#include "reconcile/core/result.h"

namespace reconcile {

MatchResult::PhaseTimeTotals MatchResult::SumPhaseSeconds() const {
  PhaseTimeTotals totals;
  for (const PhaseStats& phase : phases) {
    totals.emit_seconds += phase.emit_seconds;
    totals.merge_seconds += phase.merge_seconds;
    totals.scan_seconds += phase.scan_seconds;
    totals.select_seconds += phase.select_seconds;
    totals.spill_seconds += phase.spill_seconds;
  }
  return totals;
}

size_t MatchResult::NumLinks() const {
  size_t count = 0;
  for (NodeId v : map_1to2) {
    if (v != kInvalidNode) ++count;
  }
  return count;
}

size_t MatchResult::NumNewLinks() const { return NumLinks() - seeds.size(); }

std::vector<char> MatchResult::SeedMask1() const {
  std::vector<char> is_seed(map_1to2.size(), 0);
  for (const auto& [u, v] : seeds) {
    (void)v;
    if (u < is_seed.size()) is_seed[u] = 1;
  }
  return is_seed;
}

}  // namespace reconcile
