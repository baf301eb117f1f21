#ifndef RECONCILE_UTIL_TIERED_STORE_H_
#define RECONCILE_UTIL_TIERED_STORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "reconcile/util/logging.h"
#include "reconcile/util/radix_sort.h"
#include "reconcile/util/spill_store.h"

namespace reconcile {

/// Borrowed view of one sorted `(key, count)` run — the common shape of a
/// resident `SortedCountRun` and an mmap'd `SpilledRun`. Every consumer of
/// tier contents (selection merge, snapshot writer, compaction) reads
/// through this, which is what makes spilling unobservable: the bytes are
/// the same either way.
struct RunView {
  const uint64_t* keys = nullptr;
  const uint32_t* counts = nullptr;
  size_t size = 0;
};

/// LSM-style tiered aggregate of `(key, count)` pairs: at most two sorted-run
/// tiers — the big persistent run and one delta batch — that together
/// represent one logical count multiset. A round delta lands as a new tier
/// and folds into its predecessor only when the predecessor is at most
/// `kSizeRatio` times its size (or the stack would exceed `kMaxTiers`), so
/// late low-yield rounds stop paying a full-run merge each round. The
/// policy is a constant: it only moves merge work around in time, and the
/// aggregate — and every matching computed from it — is the same for any
/// policy (DESIGN.md §2.2).
///
/// A key may appear in both tiers; `ForEach` folds them back together on
/// the fly (a two-way merge summing duplicate keys), so consumers see
/// exactly the single-run aggregate.
///
/// Each tier lives either resident (a `SortedCountRun`) or spilled (an
/// mmap'd `SpilledRun`, see `util/spill_store.h`); the memory-budget
/// enforcement layer moves cold big tiers to disk via `SpillTier` and the
/// store transparently materializes a spilled tier back whenever an
/// operation must mutate it (compaction merge, `Filter`). Reads never
/// distinguish the two forms.
class TieredCountRuns {
 public:
  /// Resident footprint of a run of `entries` entries (flat key + count
  /// payload; the store's accounting unit — vector headers and malloc slop
  /// are noise at spill-worthy sizes).
  static size_t BytesForEntries(size_t entries) {
    return entries * (sizeof(uint64_t) + sizeof(uint32_t));
  }

  /// Most tiers the stack holds: the big run plus one delta batch.
  static constexpr size_t kMaxTiers = 2;
  /// A new tier folds into its predecessor while the predecessor is at most
  /// this many times its size, so tier sizes stay geometrically separated.
  static constexpr size_t kSizeRatio = 4;

  /// Appends a round delta as a new tier, then folds per the policy above.
  /// Empty deltas are dropped. A fold whose target is spilled materializes
  /// it first (mutating a mapping is impossible); the budget layer may
  /// re-spill the merged result afterwards.
  void Append(SortedCountRun&& delta) {
    if (delta.empty()) return;
    tiers_.emplace_back();
    tiers_.back().resident = std::move(delta);
    while (tiers_.size() > 1 &&
           (tiers_.size() > kMaxTiers ||
            tiers_[tiers_.size() - 2].size() <=
                kSizeRatio * tiers_.back().size())) {
      MergeTopIntoPredecessor();
    }
  }

  /// Pushes `run` as the newest tier without folding — the snapshot
  /// loader's hook, since tier boundaries decide when later folds run and a
  /// resumed process must replay them identically. The stack must hold
  /// fewer than `kMaxTiers` tiers.
  void AppendUnfolded(SortedCountRun&& run) {
    RECONCILE_CHECK_LT(tiers_.size(), kMaxTiers);
    tiers_.emplace_back();
    tiers_.back().resident = std::move(run);
  }

  /// Invokes `fn(key, total_count)` once per distinct key, in ascending key
  /// order, with counts summed across tiers — identical to the `ForEach` of
  /// the fully merged run, whether tiers are resident or spilled.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    // A branch-lean two-way merge keeps the selection scan close to
    // single-run cost; a missing tier is an empty view. Spilled tiers
    // stream through the same loop — mmap makes the pointer walk identical.
    const RunView a = tiers_.size() > 0 ? tiers_[0].View() : RunView{};
    const RunView b = tiers_.size() > 1 ? tiers_[1].View() : RunView{};
    size_t i = 0, j = 0;
    while (i < a.size && j < b.size) {
      const uint64_t ka = a.keys[i];
      const uint64_t kb = b.keys[j];
      if (ka < kb) {
        fn(ka, a.counts[i++]);
      } else if (kb < ka) {
        fn(kb, b.counts[j++]);
      } else {
        fn(ka, a.counts[i++] + b.counts[j++]);
      }
    }
    for (; i < a.size; ++i) fn(a.keys[i], a.counts[i]);
    for (; j < b.size; ++j) fn(b.keys[j], b.counts[j]);
  }

  /// Keeps only entries with `pred(key, tier_count)`. The predicate sees the
  /// per-tier count, so it must decide on the key alone (the matcher's
  /// liveness sweep does); tiers emptied by the sweep are dropped. Spilled
  /// tiers are materialized back to resident first — a filter rewrites the
  /// run, and the budget layer re-decides placement on its next pass.
  template <typename Pred>
  void Filter(Pred&& pred) {
    for (Tier& tier : tiers_) {
      tier.Materialize();
      tier.resident.Filter(pred);
    }
    tiers_.erase(std::remove_if(
                     tiers_.begin(), tiers_.end(),
                     [](const Tier& tier) { return tier.size() == 0; }),
                 tiers_.end());
  }

  /// Moves tier `index` to disk via `store`. Returns true on success; on
  /// failure (including an injected fault) the tier stays resident and
  /// `*error` describes why. Spilling an already-spilled or empty tier is a
  /// successful no-op.
  bool SpillTier(size_t index, SpillStore& store, std::string* error) {
    Tier& tier = tiers_[index];
    if (tier.spilled != nullptr || tier.size() == 0) return true;
    std::unique_ptr<SpilledRun> spilled = store.Spill(tier.resident, error);
    if (spilled == nullptr) return false;
    tier.spilled = std::move(spilled);
    tier.resident = SortedCountRun{};
    return true;
  }

  /// Invokes `fn(RunView)` once per tier, oldest first — the snapshot
  /// writer's serialization hook (spilled tiers stream from their mapping,
  /// so a partially-spilled store checkpoints byte-identically to an
  /// all-resident one).
  template <typename Fn>
  void ForEachTier(Fn&& fn) const {
    for (const Tier& tier : tiers_) fn(tier.View());
  }

  bool empty() const { return tiers_.empty(); }
  size_t num_tiers() const { return tiers_.size(); }
  size_t tier_size(size_t index) const { return tiers_[index].size(); }
  bool tier_spilled(size_t index) const {
    return tiers_[index].spilled != nullptr;
  }

  /// Total resident entries across tiers (an upper bound on distinct keys —
  /// a key split across tiers is counted once per tier).
  size_t total_entries() const {
    size_t total = 0;
    for (const Tier& tier : tiers_) total += tier.size();
    return total;
  }

  /// Bytes of tier payload currently held in RAM (spilled tiers cost 0 —
  /// their pages are file-backed and evictable).
  size_t resident_bytes() const {
    size_t total = 0;
    for (const Tier& tier : tiers_) {
      if (tier.spilled == nullptr) total += BytesForEntries(tier.size());
    }
    return total;
  }

  size_t num_spilled_tiers() const {
    size_t total = 0;
    for (const Tier& tier : tiers_) {
      if (tier.spilled != nullptr) ++total;
    }
    return total;
  }

 private:
  struct Tier {
    SortedCountRun resident;              // authoritative when not spilled
    std::unique_ptr<SpilledRun> spilled;  // non-null => resident is empty

    size_t size() const {
      return spilled != nullptr ? spilled->size() : resident.size();
    }

    RunView View() const {
      if (spilled != nullptr) {
        return RunView{spilled->keys(), spilled->counts(), spilled->size()};
      }
      return RunView{resident.keys.data(), resident.counts.data(),
                     resident.size()};
    }

    // Copies a spilled tier back into resident vectors and drops the file.
    void Materialize() {
      if (spilled == nullptr) return;
      resident.keys.assign(spilled->keys(), spilled->keys() + spilled->size());
      resident.counts.assign(spilled->counts(),
                             spilled->counts() + spilled->size());
      spilled.reset();
    }
  };

  // Pops the newest tier and folds it into its predecessor (which is
  // materialized first if spilled — merges rewrite the target).
  void MergeTopIntoPredecessor() {
    Tier top = std::move(tiers_.back());
    tiers_.pop_back();
    top.Materialize();
    tiers_.back().Materialize();
    MergeCountRuns(tiers_.back().resident, std::move(top.resident));
  }

  std::vector<Tier> tiers_;
};

}  // namespace reconcile

#endif  // RECONCILE_UTIL_TIERED_STORE_H_
