#ifndef RECONCILE_SERVE_INCREMENTAL_MATCHER_H_
#define RECONCILE_SERVE_INCREMENTAL_MATCHER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "reconcile/core/matcher.h"
#include "reconcile/core/result.h"
#include "reconcile/graph/graph.h"
#include "reconcile/graph/types.h"
#include "reconcile/serve/delta_log.h"
#include "reconcile/serve/overlay_graph.h"
#include "reconcile/util/thread_pool.h"

namespace reconcile {

/// Checkpoint filename prefix for serve sessions ("serve-batch-NNNNNN.ckpt",
/// via the prefix-parameterized helpers in util/checkpoint.h).
inline constexpr char kServeCheckpointPrefix[] = "serve-batch-";

struct ServeConfig {
  /// Matching semantics and execution knobs of the batch matcher every
  /// batch reruns: threshold, iterations, bucketing, stability, threads,
  /// shards, grain and the LSM tier policy all apply.
  MatcherConfig matcher;
};

/// Telemetry for one `ApplyBatch` call.
struct ServeBatchStats {
  int batch = 0;              // 1-based batch number
  size_t deltas_in = 0;       // records handed to ApplyBatch
  size_t deltas_applied = 0;  // edges whose presence changed end-to-end
  int replayed_rounds = 0;    // rounds the rerun ran (0: no rerun)
  size_t links_added = 0;     // links in the new matching but not the old
  size_t links_removed = 0;   // links in the old matching but not the new
  size_t num_links = 0;       // links after the batch (seeds included)
  double seconds = 0;
  std::vector<PhaseStats> rounds;  // per-round stats of the rerun

  // Repair-scope counters of the retired incremental repair. Always 0:
  // they stay only because the frozen benchmark harness (perfbench/)
  // reads them.
  size_t dirty_links = 0;
  size_t rescored_units = 0;
  int skipped_rounds = 0;
};

/// The continuous-reconciliation engine: holds a live matching over a pair
/// of delta-overlay graphs and keeps it equal to a from-scratch batch run
/// on the current graphs (`serve_incremental_differential_test` checks
/// this after every batch at 1 and 4 threads, and
/// `integration_serve_kill_resume_test` across kill/resume).
///
/// Each batch is netted out, applied to the two `OverlayGraph`s, compacted
/// into fresh CSRs, and the batch matcher (`MatcherState`) runs again on
/// them to completion (DESIGN.md §2.6). The rerun never stops early, so a
/// graceful-stop request cannot make a batch serve a partial matching.
///
/// Between any two `ApplyBatch` calls the session serializes to a
/// self-contained snapshot (graphs included) and a fresh process resumes it
/// exactly; `ApplyBatch({})` is a full initial match on a fresh session and
/// a no-op on a resumed one.
class IncrementalMatcher {
 public:
  /// Takes ownership of the initial graphs; `seeds` must be in-range and
  /// one-to-one (checked).
  IncrementalMatcher(Graph g1, Graph g2,
                     std::span<const std::pair<NodeId, NodeId>> seeds,
                     const ServeConfig& config);

  IncrementalMatcher(const IncrementalMatcher&) = delete;
  IncrementalMatcher& operator=(const IncrementalMatcher&) = delete;

  /// Applies one delta batch and reruns the matcher. Self-loops and net
  /// no-ops (insert of a present edge, delete of an absent one, a
  /// delete/insert pair inside the batch) are absorbed; node ids beyond the
  /// current range grow the graphs. A batch with no net change on an
  /// already matched session returns without a rerun.
  ServeBatchStats ApplyBatch(const std::vector<EdgeDelta>& deltas);

  const std::vector<NodeId>& map_1to2() const { return map_1to2_; }
  const std::vector<NodeId>& map_2to1() const { return map_2to1_; }
  const OverlayGraph& g1() const { return o1_; }
  const OverlayGraph& g2() const { return o2_; }
  size_t num_links() const { return num_links_; }
  int batches_applied() const { return batches_applied_; }

  /// Durable delta-stream cursor: data records consumed from the log as of
  /// the last checkpointed state. Owned by the driver (the matcher only
  /// stores and persists it).
  uint64_t deltas_consumed() const { return deltas_consumed_; }
  void set_deltas_consumed(uint64_t n) { deltas_consumed_ = n; }

  /// Copies the current matching into a `MatchResult` (maps + seeds; the
  /// phase log of the last batch is not included — see ServeBatchStats).
  MatchResult Result() const;

  /// Serializes the session — matching-semantics fingerprint, batch and
  /// stream counters, a seed check, and both graphs — atomically.
  bool SaveSnapshot(const std::string& path, std::string* error) const;

  /// Restores a `SaveSnapshot` image and reruns the matcher on its graphs.
  /// Validates first (format, version, semantics, seeds against the ctor
  /// seeds, graph sections); on failure the state is untouched and
  /// `*error` says why in one line.
  bool LoadSnapshot(const std::string& path, std::string* error);

 private:
  // Runs the batch matcher to completion on the compacted overlays and
  // installs its maps, filling the rerun half of `stats`.
  void Rerun(ServeBatchStats* stats);

  ServeConfig config_;
  ThreadPool pool_;  // overlay compaction
  OverlayGraph o1_;
  OverlayGraph o2_;
  std::vector<std::pair<NodeId, NodeId>> seeds_;
  std::vector<NodeId> map_1to2_;
  std::vector<NodeId> map_2to1_;
  size_t num_links_ = 0;
  bool matched_ = false;  // a rerun has produced the current maps
  int batches_applied_ = 0;
  uint64_t deltas_consumed_ = 0;
};

}  // namespace reconcile

#endif  // RECONCILE_SERVE_INCREMENTAL_MATCHER_H_
