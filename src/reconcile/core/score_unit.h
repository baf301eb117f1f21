#ifndef RECONCILE_CORE_SCORE_UNIT_H_
#define RECONCILE_CORE_SCORE_UNIT_H_

#include <cstddef>
#include <cstdint>

#include "reconcile/util/stamped_runs.h"
#include "reconcile/util/tiered_store.h"

namespace reconcile {

// One disjoint slice of the scored-pair multiset handed to selection: an
// LSM tier stack (the batch matcher — its `ForEach` k-way-merges the tiers,
// so a key split across tiers still surfaces exactly once with its total
// count), or a stamped signed-run cell folded up to a round stamp and
// materialized as a cold/hot `FoldedRun` pair (the serve-mode incremental
// matcher). A candidate pair lives in exactly one unit in either
// representation, and the selection fold is representation-agnostic — it
// only needs `ForEach(key, score)` — so both callers flow through the same
// selection engine and stay bit-identical by construction.
class ScoreUnit {
 public:
  explicit ScoreUnit(const TieredCountRuns* store) : store_(store) {}
  /// Two-level accumulated fold (serve replay): `cold` and `hot` are folds
  /// of disjoint stamp windows of one cell, together covering every stamp
  /// the round may see; the scan is their 2-way merge.
  ScoreUnit(const FoldedRun* cold, const FoldedRun* hot)
      : cold_(cold), hot_(hot) {}

  bool empty() const {
    if (store_ != nullptr) return store_->empty();
    return cold_->empty() && hot_->empty();
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (store_ != nullptr) {
      store_->ForEach(fn);
    } else {
      // 2-way merge of two sorted positive-count runs over disjoint stamp
      // windows; shared keys sum. Degenerates to a plain linear scan when
      // either side is empty.
      const FoldedRun& a = *cold_;
      const FoldedRun& b = *hot_;
      size_t i = 0, j = 0;
      while (i < a.keys.size() && j < b.keys.size()) {
        const uint64_t ka = a.keys[i], kb = b.keys[j];
        if (ka < kb) {
          if (a.counts[i] > 0) fn(ka, static_cast<uint32_t>(a.counts[i]));
          ++i;
        } else if (kb < ka) {
          if (b.counts[j] > 0) fn(kb, static_cast<uint32_t>(b.counts[j]));
          ++j;
        } else {
          const int64_t total = a.counts[i] + b.counts[j];
          if (total > 0) fn(ka, static_cast<uint32_t>(total));
          ++i;
          ++j;
        }
      }
      for (; i < a.keys.size(); ++i) {
        if (a.counts[i] > 0) fn(a.keys[i], static_cast<uint32_t>(a.counts[i]));
      }
      for (; j < b.keys.size(); ++j) {
        if (b.counts[j] > 0) fn(b.keys[j], static_cast<uint32_t>(b.counts[j]));
      }
    }
  }

 private:
  const TieredCountRuns* store_ = nullptr;
  const FoldedRun* cold_ = nullptr;
  const FoldedRun* hot_ = nullptr;
};

}  // namespace reconcile

#endif  // RECONCILE_CORE_SCORE_UNIT_H_
