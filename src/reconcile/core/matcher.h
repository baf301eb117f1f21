#ifndef RECONCILE_CORE_MATCHER_H_
#define RECONCILE_CORE_MATCHER_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "reconcile/core/result.h"
#include "reconcile/graph/graph.h"
#include "reconcile/graph/types.h"

namespace reconcile {

/// Tuning knobs for the User-Matching algorithm (paper §3.2).
struct MatcherConfig {
  /// Number of outer iterations `k`. The paper notes k = 1 or 2 suffices.
  int num_iterations = 2;
  /// Minimum matching score `T`: a candidate pair needs at least this many
  /// similarity witnesses. The theory uses 3 (Erdős–Rényi) and 9
  /// (preferential attachment); the experiments mostly use 2–5.
  uint32_t min_score = 2;
  /// Degree bucketing (the `j = log D … 1` sweep). Disabling reproduces the
  /// paper's ablation: one scoring round per iteration over all nodes.
  bool use_degree_bucketing = true;
  /// Lowest bucket exponent `j` in the sweep; nodes with degree below
  /// `2^min_bucket_exponent` are never match candidates. The paper sweeps to
  /// j = 1; the default 0 also allows degree-1 nodes into the last round.
  int min_bucket_exponent = 0;
  /// Worker threads (0 = hardware concurrency).
  int num_threads = 0;
  /// Score shards per degree level (0 = max(4, threads)). Results are
  /// shard-count invariant; this only affects parallel granularity.
  int num_shards = 0;
  /// Stop outer iterations early once a full sweep finds no new link.
  bool stop_when_stable = true;
  /// Chunk size the work-stealing loop (`util/parallel_for.h`) claims per
  /// lock acquisition in the emission loop (0 = auto). Smaller grains
  /// rebalance skewed (hub-heavy) rounds at finer resolution for a little
  /// more claim traffic. Results are grain-invariant.
  size_t scheduler_grain = 0;
  /// LSM-style tiered score store: cap on resident sorted-run tiers per (level, shard). Round deltas
  /// accumulate as small tiers and fold into the big persistent run only
  /// when `lsm_size_ratio` or this cap trips, so late low-yield rounds stop
  /// rewriting the full run every round. `1` restores the pre-LSM
  /// merge-every-round behavior. The default 2 (big run + one delta batch)
  /// halves merge traffic while the selection scan stays on the two-way
  /// fast path; higher caps defer merges further but pay a k-way scan
  /// fold. Matchings are identical for all settings.
  int lsm_max_tiers = 2;
  /// Size-ratio compaction trigger (see `TierPolicy::size_ratio`).
  double lsm_size_ratio = 4.0;
  /// Crash safety: when non-empty, the matcher snapshots its full
  /// cross-round state (`MatcherState`) into this directory after every
  /// `checkpoint_every_rounds`-th completed round (and always after the
  /// final one), atomically — temp file + fsync + rename, so a kill at any
  /// instant leaves either the previous or the new snapshot, never a torn
  /// one. Files are named `state-round-NNNNNN.ckpt`.
  std::string checkpoint_dir;
  /// Checkpoint cadence in completed rounds (values < 1 behave as 1).
  int checkpoint_every_rounds = 1;
  /// Checkpoint retention: after each successful snapshot write, prune all
  /// but the newest K snapshots in `checkpoint_dir` (<= 0 keeps everything,
  /// the pre-retention behavior). A prune failure is non-fatal — a one-line
  /// stderr note and the run continues; the just-written snapshot is never
  /// pruned.
  int checkpoint_keep = 0;
  /// Memory budget for the persistent score state in bytes (0 = unbudgeted,
  /// the all-resident behavior). When the resident tier payload exceeds
  /// this after a round's emission, the enforcement pass spills the biggest
  /// cold tiers to mmap'd files under `score_dir` until resident payload
  /// fits (largest-first, deterministic tie-breaks); selection streams
  /// spilled tiers through the same fold, so matchings are bit-identical to
  /// the unbudgeted run. Requires `score_dir`. Spill failures — ENOSPC,
  /// torn writes, failed mmaps — degrade gracefully: the tier stays
  /// resident (stderr note) and after repeated failures spilling is
  /// disabled for the run; never a crash, never a wrong matching.
  uint64_t memory_budget_bytes = 0;
  /// Directory for spill scratch files (`spill-<pid>-<seq>.spill`). Created
  /// on first spill; files are removed as tiers unspill and on clean exit
  /// (including graceful SIGINT/SIGTERM stops). Only meaningful with
  /// `memory_budget_bytes` > 0.
  std::string score_dir;
  /// Resume from the newest valid snapshot in `checkpoint_dir` before
  /// running any round. Corrupt, truncated or mismatched snapshots are
  /// skipped with a warning (falling back to the next-older file; a fresh
  /// start if none survives) — never a crash. The resumed run commits the
  /// same links as an uninterrupted one: matchings are bit-identical.
  bool resume = false;
  /// Deterministic fault injection for crash-safety tests (see
  /// `util/fault.h` for the spec grammar, e.g. `crash:after_round=3` or
  /// `io:checkpoint_write_fail`). Empty = no faults armed here (the
  /// `RECONCILE_FAULT` env var still applies process-wide).
  std::string fault_spec;
};

/// Runs User-Matching: expands the seed links into a one-to-one partial
/// mapping between the nodes of `g1` and `g2`.
///
/// Per round (degree bucket `2^j`, outer iteration `i`):
///  1. every current link (a1, a2) acts as a similarity witness for each
///     candidate pair (u, v) ∈ N1(a1) × N2(a2) whose degrees clear `2^j`;
///  2. a candidate pair with both endpoints unmatched is accepted iff its
///     score is at least `config.min_score` and is the unique maximum among
///     all scored pairs containing `u` and among all containing `v` (mutual
///     best; ties are rejected to protect precision). Matched nodes stay in
///     the scored pool as blockers.
///
/// Seeds must be in-range and one-to-one; duplicates are rejected via
/// RECONCILE_CHECK. The output is deterministic: independent of thread and
/// shard counts.
MatchResult UserMatching(const Graph& g1, const Graph& g2,
                         std::span<const std::pair<NodeId, NodeId>> seeds,
                         const MatcherConfig& config);

}  // namespace reconcile

#endif  // RECONCILE_CORE_MATCHER_H_
