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
/// tier contents (frontier lookups, snapshot writer, compaction) reads
/// through this, which is what makes spilling unobservable: the bytes are
/// the same either way. Selection reads the frontier through it too.
struct RunView {
  const uint64_t* keys = nullptr;
  const uint32_t* counts = nullptr;
  size_t size = 0;
};

/// Count of `key` in `run`, found by galloping forward from `*cursor`,
/// which is left at the first entry not below `key`. Successive calls must
/// ask for ascending keys; a walk of `d` sorted keys through a run of `n`
/// costs O(d log(n / d)) instead of a full merge.
inline uint32_t GallopCount(const RunView& run, size_t* cursor, uint64_t key) {
  size_t lo = *cursor;
  size_t hi = lo;
  for (size_t step = 1; hi < run.size && run.keys[hi] < key; step *= 2) {
    lo = hi + 1;
    hi += step;
  }
  hi = std::min(hi, run.size);
  lo = static_cast<size_t>(std::lower_bound(run.keys + lo, run.keys + hi, key) -
                           run.keys);
  *cursor = lo;
  return lo < run.size && run.keys[lo] == key ? run.counts[lo] : 0;
}

/// The threshold frontier of one tier stack, as selection reads it: the
/// keys of up to two sorted runs, a key found in both surfacing once with
/// the sum of its counts. A store that keeps its frontier as a run of its
/// own hands over that run alone; a store whose frontier is every stored
/// key hands over its tiers (`TieredCountRuns::frontier`).
struct FrontierView {
  RunView first;
  RunView second;

  bool empty() const { return first.size == 0 && second.size == 0; }

  /// Invokes `fn(key, total)` for every key, ascending.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    // A branch-lean two-way merge keeps a two-run walk close to single-run
    // cost, and a lone run costs one loop. Spilled runs stream through the
    // same loop — mmap makes the pointer walk identical.
    const RunView& a = first;
    const RunView& b = second;
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
/// A key may appear in both tiers; its total is the sum of its counts.
///
/// The store serves its *threshold frontier*: exactly the keys whose total
/// across tiers is at least the store's `min_score`, with those totals.
/// From a `min_score` of 2 up, it keeps the frontier beside the tiers as
/// one resident sorted `(key, total)` run. Totals only grow under `Append`,
/// so each delta can only lift keys into the frontier or raise the totals
/// already there; `Append` finds both from the delta's keys alone (inside
/// the fold's own merge walk when the delta folds into the lone big run, by
/// galloping into the older tiers otherwise) and upserts them. Every stored
/// key has a total of at least 1, so at a `min_score` of 0 or 1 the
/// frontier is the whole store: the store then keeps no copy and serves its
/// tiers as the frontier (DESIGN.md §2.2).
///
/// Each tier lives either resident (a `SortedCountRun`) or spilled (an
/// mmap'd `SpilledRun`, see `util/spill_store.h`); the memory-budget
/// enforcement layer moves cold big tiers to disk via `SpillTier` and the
/// store transparently materializes a spilled tier back whenever an
/// operation must mutate it (compaction merge, `Filter`). Reads never
/// distinguish the two forms. A frontier kept beside the tiers is never
/// spilled.
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

  /// A store whose frontier holds the keys with total >= `min_score`.
  explicit TieredCountRuns(uint32_t min_score)
      : min_score_(std::max<uint32_t>(min_score, 1)) {}

  /// Appends a round delta as a new tier, then folds per the policy above,
  /// and brings a kept frontier up to date. Empty deltas are dropped. A
  /// fold whose target is spilled materializes it first (mutating a mapping
  /// is impossible); the budget layer may re-spill the merged result
  /// afterwards.
  void Append(SortedCountRun&& delta) {
    if (delta.empty()) return;
    if (tiers_.empty() ||
        (tiers_.size() == 1 && tiers_[0].size() > kSizeRatio * delta.size())) {
      AppendUnfolded(std::move(delta));
      return;
    }
    FrontierUpdates updates;
    if (tiers_.size() == 1) {
      // Fold into the lone big run: its count is each key's old total.
      tiers_[0].Materialize();
      if (KeepsFrontier()) {
        MergeCountRuns(tiers_[0].resident, delta,
                       [this, &updates](uint64_t key, uint32_t old_total,
                                        uint32_t new_total) {
                         Record(key, old_total, new_total, &updates);
                       });
      } else {
        MergeCountRuns(tiers_[0].resident, std::move(delta));
      }
    } else {
      // The stack is full, so the delta folds into the delta tier. A delta
      // key's new total is then its big-run count plus its delta-tier
      // count, and its old total is that minus its count in `delta`.
      tiers_[1].Materialize();
      MergeCountRuns(tiers_[1].resident, delta);
      if (KeepsFrontier()) {
        const RunView big = tiers_[0].View();
        const RunView small = tiers_[1].View();
        size_t big_cursor = 0, small_cursor = 0;
        for (size_t i = 0; i < delta.size(); ++i) {
          const uint64_t key = delta.keys[i];
          const uint32_t total = GallopCount(big, &big_cursor, key) +
                                 GallopCount(small, &small_cursor, key);
          Record(key, total - delta.counts[i], total, &updates);
        }
      }
      if (tiers_[0].size() <= kSizeRatio * tiers_[1].size()) {
        tiers_[0].Materialize();
        MergeCountRuns(tiers_[0].resident, std::move(tiers_[1].resident));
        tiers_.pop_back();
      }
    }
    UpsertFrontier(updates);
  }

  /// Pushes `run` as the newest tier without folding and brings a kept
  /// frontier up to date by galloping each of its keys into the older tier.
  /// This is `Append`'s no-fold path and the snapshot loader's hook: tier
  /// boundaries decide when later folds run, so a resumed process must
  /// replay them identically, and the frontier — never serialized — is
  /// rebuilt from the tiers as they are pushed. The stack must hold fewer
  /// than `kMaxTiers` tiers. Empty runs are dropped, as in `Append`.
  void AppendUnfolded(SortedCountRun&& run) {
    RECONCILE_CHECK_LT(tiers_.size(), kMaxTiers);
    if (run.empty()) return;
    FrontierUpdates updates;
    if (KeepsFrontier()) {
      const RunView older = tiers_.empty() ? RunView{} : tiers_[0].View();
      size_t cursor = 0;
      for (size_t i = 0; i < run.size(); ++i) {
        const uint32_t base = GallopCount(older, &cursor, run.keys[i]);
        Record(run.keys[i], base, base + run.counts[i], &updates);
      }
    }
    tiers_.emplace_back();
    tiers_.back().resident = std::move(run);
    UpsertFrontier(updates);
  }

  /// Keeps only entries with `pred(key, count)`, in every tier and in the
  /// frontier. The predicate sees a per-tier count (or a frontier total),
  /// so it must decide on the key alone (the matcher's liveness sweep does);
  /// that keeps every surviving key's total, so the filtered frontier is
  /// still exact. Tiers emptied by the sweep are dropped. Spilled tiers are
  /// materialized back to resident first — a filter rewrites the run, and
  /// the budget layer re-decides placement on its next pass.
  template <typename Pred>
  void Filter(Pred&& pred) {
    for (Tier& tier : tiers_) {
      tier.Materialize();
      tier.resident.Filter(pred);
    }
    frontier_.Filter(pred);
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

  /// The threshold frontier: every key whose total is >= `min_score()`,
  /// ascending, with that total. Below a `min_score` of 2 that is every
  /// key, and the view reads the tiers themselves, spilled or not.
  FrontierView frontier() const {
    if (!KeepsFrontier()) {
      return FrontierView{tiers_.size() > 0 ? tiers_[0].View() : RunView{},
                          tiers_.size() > 1 ? tiers_[1].View() : RunView{}};
    }
    return FrontierView{RunView{frontier_.keys.data(), frontier_.counts.data(),
                                frontier_.size()},
                        RunView{}};
  }
  uint32_t min_score() const { return min_score_; }

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

  /// Bytes of tier and frontier payload currently held in RAM (spilled
  /// tiers cost 0 — their pages are file-backed and evictable; a frontier
  /// kept beside the tiers is always resident).
  size_t resident_bytes() const {
    size_t total = frontier_bytes();
    for (const Tier& tier : tiers_) {
      if (tier.spilled == nullptr) total += BytesForEntries(tier.size());
    }
    return total;
  }

  /// Bytes of the frontier kept beside the tiers (0 at T <= 1, where the
  /// frontier is the tiers themselves).
  size_t frontier_bytes() const { return BytesForEntries(frontier_.size()); }

  size_t num_spilled_tiers() const {
    size_t total = 0;
    for (const Tier& tier : tiers_) {
      if (tier.spilled != nullptr) ++total;
    }
    return total;
  }

 private:
  // Frontier changes from one delta, ascending: the new total of every
  // delta key that reaches the threshold, and how many of those keys are
  // not in the frontier yet.
  struct FrontierUpdates {
    SortedCountRun entries;
    size_t inserts = 0;
  };

  // Every stored key has a total of at least 1, so at threshold 1 the
  // frontier is the whole store and no copy is kept.
  bool KeepsFrontier() const { return min_score_ > 1; }

  void Record(uint64_t key, uint32_t old_total, uint32_t new_total,
              FrontierUpdates* updates) const {
    if (new_total < min_score_) return;
    updates->entries.keys.push_back(key);
    updates->entries.counts.push_back(new_total);
    if (old_total < min_score_) ++updates->inserts;
  }

  // Merges `updates` into the frontier in place, from the back: the run
  // grows by the insert count, each update overwrites its key's entry or
  // takes a fresh slot, and entries below the smallest update never move.
  void UpsertFrontier(const FrontierUpdates& updates) {
    const SortedCountRun& in = updates.entries;
    if (in.empty()) return;
    size_t read = frontier_.size();
    size_t write = read + updates.inserts;
    frontier_.keys.resize(write);
    frontier_.counts.resize(write);
    for (size_t j = in.size(); j-- > 0;) {
      const uint64_t key = in.keys[j];
      while (read > 0 && frontier_.keys[read - 1] > key) {
        --read;
        --write;
        frontier_.keys[write] = frontier_.keys[read];
        frontier_.counts[write] = frontier_.counts[read];
      }
      if (read > 0 && frontier_.keys[read - 1] == key) --read;
      // An update that is neither a present key nor a counted insert would
      // write below the unread entries.
      RECONCILE_CHECK_GT(write, read);
      --write;
      frontier_.keys[write] = key;
      frontier_.counts[write] = in.counts[j];
    }
    RECONCILE_CHECK_EQ(read, write);
  }

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

  uint32_t min_score_;
  std::vector<Tier> tiers_;
  SortedCountRun frontier_;
};

}  // namespace reconcile

#endif  // RECONCILE_UTIL_TIERED_STORE_H_
