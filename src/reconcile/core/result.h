#ifndef RECONCILE_CORE_RESULT_H_
#define RECONCILE_CORE_RESULT_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "reconcile/graph/types.h"

namespace reconcile {

/// Statistics for one scoring round (one degree bucket within one outer
/// iteration) of a matcher.
struct PhaseStats {
  int iteration = 0;        ///< Outer iteration (1-based).
  int bucket_exponent = 0;  ///< Round matched nodes with degree >= 2^this.
  size_t links_in = 0;      ///< Links available as witnesses this round.
  /// Witness keys appended to the score state. The core matcher skips a
  /// pair whose two endpoints are both matched already (it can never be
  /// accepted or block), so such pairs are not counted.
  size_t emissions = 0;
  /// Frontier pairs: the distinct bucket-eligible scored pairs whose score
  /// reaches the threshold — the only pairs selection scans. (Baselines
  /// that fill `PhaseStats` document their own meaning.)
  size_t candidate_pairs = 0;
  /// Witness keys parked after the round: emitted into cells at levels
  /// below the round's bucket exponent, which no round has read since.
  /// They fold in the first round that reads their cell.
  size_t parked_keys = 0;
  size_t new_links = 0;     ///< Links accepted this round.
  double seconds = 0.0;     ///< Whole-round wall clock.
  // Per-round time split (seconds): witness emission (enumerating candidate
  // pairs and parking their keys — the map side), merge (folding the parked
  // keys of the cells this round reads, and of any the memory budget folds
  // early, into the persistent score state: building each cell's sorted
  // count run and appending it to the cell's LSM tier stack), the
  // best-table observe scan, the accept-and-commit pass, and the memory
  // budget's spill pass (planning, the concurrent tier writes and their
  // commits; 0 when nothing spilled). The five do not sum exactly to
  // `seconds` (unit bookkeeping sits between them).
  double emit_seconds = 0.0;
  double merge_seconds = 0.0;
  double scan_seconds = 0.0;
  double select_seconds = 0.0;
  double spill_seconds = 0.0;
  int num_threads = 0;      ///< Worker threads the round ran with.
  // Out-of-core score store (under a memory budget): tiers
  // moved to disk by this round's budget-enforcement pass, and the
  // resident/spilled byte split after it ran. Zero everywhere when
  // unbudgeted.
  size_t tiers_spilled = 0;
  size_t resident_score_bytes = 0;
  size_t spilled_score_bytes = 0;
};

/// Output of a matcher run: a (partial) one-to-one correspondence between
/// the two node sets, including the input seed links.
struct MatchResult {
  /// For each g1 node, the matched g2 node or kInvalidNode.
  std::vector<NodeId> map_1to2;
  /// For each g2 node, the matched g1 node or kInvalidNode.
  std::vector<NodeId> map_2to1;
  /// The seed links the run started from (subset of the maps).
  std::vector<std::pair<NodeId, NodeId>> seeds;
  /// Per-round telemetry, in execution order.
  std::vector<PhaseStats> phases;
  double total_seconds = 0.0;

  /// Whole-run totals of the per-round time split (seconds).
  struct PhaseTimeTotals {
    double emit_seconds = 0.0;
    double merge_seconds = 0.0;
    double scan_seconds = 0.0;
    double select_seconds = 0.0;
    double spill_seconds = 0.0;
  };
  PhaseTimeTotals SumPhaseSeconds() const;

  /// Total number of links in the mapping (seeds + discovered).
  size_t NumLinks() const;
  /// Links discovered beyond the seeds.
  size_t NumNewLinks() const;
  /// Per g1 node (indexed like `map_1to2`): 1 if the node is the g1
  /// endpoint of a seed link, else 0. One pass over the seeds.
  std::vector<char> SeedMask1() const;
};

}  // namespace reconcile

#endif  // RECONCILE_CORE_RESULT_H_
