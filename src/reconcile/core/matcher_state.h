#ifndef RECONCILE_CORE_MATCHER_STATE_H_
#define RECONCILE_CORE_MATCHER_STATE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "reconcile/core/matcher.h"
#include "reconcile/core/result.h"
#include "reconcile/core/selection.h"
#include "reconcile/graph/graph.h"
#include "reconcile/graph/types.h"
#include "reconcile/util/parallel_for.h"
#include "reconcile/util/radix_sort.h"
#include "reconcile/util/thread_pool.h"
#include "reconcile/util/tiered_store.h"

namespace reconcile {

/// The matcher's complete cross-round state as a first-class, *resumable*
/// object — everything `UserMatching` carries from one scoring round to the
/// next: the committed links and the partial node maps they imply, the
/// persistent per-(level, shard) score state (`TieredCountRuns` LSM tier
/// stacks), and the flattened round cursor (outer iteration, current degree
/// bucket, stability accounting).
///
/// The driver advances it one round at a time:
///
///   MatcherState state(g1, g2, config);
///   state.SeedLinks(seeds);
///   while (!state.Done()) state.RunRound();
///   MatchResult result = state.TakeResult(seconds);
///
/// which is exactly the seam crash safety needs: between any two `RunRound`
/// calls the object can be serialized (`SaveSnapshot`) and a fresh process
/// can rebuild it (`LoadSnapshot`) and continue — the resumed run commits
/// the same links and produces a matching bit-identical to an uninterrupted
/// run (enforced by `core_checkpoint_test` in-process and by the
/// `integration_kill_resume_test` subprocess harness across thread
/// counts).
///
/// A cell's witness keys are folded into its tier stack in the first round
/// that reads the cell: while the round's bucket exponent is above the
/// cell's level, emitted keys stay *parked* as raw producer chunks
/// (DESIGN.md §2.2, "Deferred folding").
///
/// Snapshot format: a `SnapshotWriter` file (versioned header, per-section
/// CRC32 — see `util/checkpoint.h`) with META (state version, graph and
/// config fingerprints, round cursor), LINKS (the committed link log; seeds
/// are its prefix, and the node maps are rebuilt from it on load) and one
/// SCORES section (each cell's tier stack as written, at most
/// `TieredCountRuns::kMaxTiers` tiers, then its parked keys as one sorted
/// `(key, count)` run). Execution knobs that cannot affect
/// the matching (threads, memory budget) are deliberately *not*
/// fingerprinted — a snapshot taken under one may resume under another;
/// semantic knobs (threshold, iterations, bucketing, the resolved shard
/// count) are, and a mismatch is a clean rejection. DESIGN.md §2.4 documents the layout and
/// the resume invariant.
class MatcherState {
 public:
  MatcherState(const Graph& g1, const Graph& g2, const MatcherConfig& config);
  ~MatcherState();

  MatcherState(const MatcherState&) = delete;
  MatcherState& operator=(const MatcherState&) = delete;

  /// Installs the trusted seed links. Must be called exactly once, before
  /// the first `RunRound` (and before `LoadSnapshot`, which validates the
  /// snapshot against these seeds). Seeds must be in-range and one-to-one.
  void SeedLinks(std::span<const std::pair<NodeId, NodeId>> seeds);

  /// True once the round schedule is exhausted (iteration cap reached, or a
  /// full iteration discovered no new link under `stop_when_stable`).
  bool Done() const { return done_; }

  /// Runs the next scoring round (one degree bucket of one outer iteration)
  /// and advances the cursor — including the between-iteration score
  /// compaction when the round closed an iteration. Returns the number of
  /// links accepted. Must not be called once `Done()`.
  size_t RunRound();

  /// Rounds completed so far (resumes continue this count).
  int completed_rounds() const { return completed_rounds_; }
  /// Current outer iteration (1-based) and degree-bucket exponent.
  int iteration() const { return iteration_; }
  int current_bucket() const { return current_bucket_; }
  size_t num_links() const { return links_.size(); }
  size_t num_seeds() const { return num_seeds_; }

  /// Raw witness keys parked in cells no round has read since they were
  /// emitted. Zero whenever an iteration ends.
  uint64_t parked_keys() const;

  /// Serializes the full cross-round state to `path` atomically (temp file
  /// + fsync + rename). Returns false with a diagnostic on failure; the
  /// previous file at `path`, if any, is left intact. Parked keys are
  /// written, and kept from then on, as each cell's sorted `(key, count)`
  /// aggregate, so later snapshots do not sort them again; they stay
  /// parked — a snapshot folds nothing into the tiers.
  bool SaveSnapshot(const std::string& path, std::string* error);

  /// Restores the state saved by `SaveSnapshot`. Validates the snapshot
  /// end to end first — format version, per-section checksums, state
  /// version, graph/config fingerprints, seed prefix, link-log consistency
  /// — and only then commits; on any failure the state is untouched and
  /// `*error` says why. Never crashes on truncated or corrupt input.
  bool LoadSnapshot(const std::string& path, std::string* error);

  /// Finalizes into a `MatchResult` (moves the maps out; the state is spent).
  MatchResult TakeResult(double total_seconds);

 private:
  // --- Round pipeline (see matcher_state.cc) -----------------------------
  size_t Round(int iteration, int bucket_exponent);
  void AdvanceCursor();
  void CompactScores();
  size_t SelectAndCommit(const std::vector<FrontierView>& units,
                         PhaseStats* stats);
  void EmitPendingLinks(int bucket_exponent, PhaseStats* stats);
  size_t EmitGrain(size_t num_items) const;
  // Folds the parked keys of every cell in `cells` (flat `level *
  // num_shards_ + shard` indices) into its tier stack, in parallel.
  void FoldCells(const std::vector<size_t>& cells);
  // Memory-budget enforcement: after a round's folds, fold the largest
  // parked cells while parked and frontier bytes alone exceed
  // `config_.memory_budget_bytes`, then spill the biggest cold tiers until
  // resident payload fits. Fills the round's spill telemetry.
  void EnforceMemoryBudget(PhaseStats* stats);

  // A cell's parked keys: the producer chunks emitted since its last fold,
  // plus the aggregate a snapshot wrote or restored.
  struct ParkedCell {
    std::vector<KeyBuffer> chunks;
    SortedCountRun aggregated;
    uint64_t keys = 0;  // raw keys in `chunks` plus the counts in `aggregated`

    // Everything parked as one sorted run (the cell is left as it is).
    SortedCountRun Aggregate() const;
  };

  // One empty tier stack per (level, shard) cell.
  std::vector<std::vector<TieredCountRuns>> MakeScoreCells() const;
  // Rebuilds map_1to2_/map_2to1_ from a link log; false (with diagnostic)
  // on out-of-range or duplicate endpoints.
  bool RebuildMaps(const std::vector<std::pair<NodeId, NodeId>>& links,
                   std::vector<NodeId>* map_1to2,
                   std::vector<NodeId>* map_2to1, std::string* error) const;

  const Graph& g1_;
  const Graph& g2_;
  MatcherConfig config_;
  ThreadPool pool_;
  int num_shards_;
  std::vector<NodeId> map_1to2_;
  std::vector<NodeId> map_2to1_;
  std::vector<std::pair<NodeId, NodeId>> links_;
  std::vector<PhaseStats> phases_;
  // The shared mutual-unique-best engine (`core/selection.h`).
  SelectionEngine selection_;
  std::vector<uint8_t> level1_;
  std::vector<uint8_t> level2_;
  // Persistent score state: an LSM tier stack per (level, shard), each with
  // its threshold frontier at `config_.min_score`.
  std::vector<std::vector<TieredCountRuns>> runs_;  // [level][shard]
  // Keys awaiting the first round that reads their cell.
  std::vector<std::vector<ParkedCell>> parked_;  // [level][shard]
  // Score shard per g1 node (range partition, see `RadixShardTable` in
  // matcher_state.cc).
  std::vector<uint32_t> radix_shard1_;
  // Out-of-core backing store for the tier stacks (null when unbudgeted).
  // Owns every spill file; destroying the state — clean exit or graceful
  // stop — removes the scratch.
  std::unique_ptr<SpillStore> spill_store_;
  size_t emitted_links_ = 0;

  // Cheap structural fingerprints (nodes, edges, degree sequence) binding a
  // snapshot to the graph pair it was taken against.
  uint64_t graph_fp1_ = 0;
  uint64_t graph_fp2_ = 0;

  // --- Flattened round cursor --------------------------------------------
  // The schedule `UserMatching` used to hold in loop variables: per outer
  // iteration, buckets top_exponent_ .. bottom_exponent_ (or the single
  // min-bucket round when bucketing is off).
  int top_exponent_ = 0;
  int bottom_exponent_ = 0;
  int iteration_ = 1;
  int current_bucket_ = 0;
  size_t new_links_this_iteration_ = 0;
  int completed_rounds_ = 0;
  bool done_ = false;
  size_t num_seeds_ = 0;
  bool seeded_ = false;
};

}  // namespace reconcile

#endif  // RECONCILE_CORE_MATCHER_STATE_H_
