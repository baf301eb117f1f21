#ifndef RECONCILE_CORE_SELECTION_H_
#define RECONCILE_CORE_SELECTION_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "reconcile/core/best_table.h"
#include "reconcile/core/result.h"
#include "reconcile/graph/types.h"
#include "reconcile/util/thread_pool.h"
#include "reconcile/util/tiered_store.h"

namespace reconcile {

/// Everything one selection round needs from its caller: the worker pool,
/// the acceptance threshold, and the matching state the accepted links commit
/// into. `MatcherState` builds one of these per round.
struct SelectionContext {
  ThreadPool* pool = nullptr;
  uint32_t min_score = 0;
  std::vector<NodeId>* map_1to2 = nullptr;
  std::vector<NodeId>* map_2to1 = nullptr;
  std::vector<std::pair<NodeId, NodeId>>* links = nullptr;
};

/// The mutual-unique-best selection engine of `MatcherState`.
///
/// Three passes, each one task per unit on the work-stealing loop: the
/// observe pass feeds CAS-max atomic best tables, the accept pass applies
/// the acceptance predicate against the sealed tables, and the commit pass
/// scatters the accepted lists into the link log. A candidate pair lives in
/// exactly one unit, and the fold is order-independent, so matchings are
/// bit-identical for any thread/shard counts.
///
/// The commit runs in parallel too: unique best on both sides means the
/// accepted set is a matching — no two units accept the same g1 or g2 node
/// — so after an exclusive prefix sum sizes each unit's slot range in the
/// link log, every unit can write its links and map entries concurrently,
/// race-free. The log lists the units' accepted links in unit order.
class SelectionEngine {
 public:
  SelectionEngine(size_t n1, size_t n2);

  /// Applies the mutual-unique-best rule over `units` (disjoint per-(level,
  /// shard) tier stacks whose union is the live, bucket-eligible scored-pair
  /// multiset; a stack's `ForEach` k-way-merges its tiers, so a key split
  /// across tiers surfaces once with its total count),
  /// commits accepted links into `ctx`'s maps and link log, and returns
  /// the number accepted. Fills `stats`' candidate/scan/select fields.
  size_t SelectAndCommit(const std::vector<const TieredCountRuns*>& units,
                         const SelectionContext& ctx, PhaseStats* stats);

 private:
  AtomicBestTable atomic_best1_;
  AtomicBestTable atomic_best2_;
};

}  // namespace reconcile

#endif  // RECONCILE_CORE_SELECTION_H_
