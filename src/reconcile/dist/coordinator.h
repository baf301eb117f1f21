#ifndef RECONCILE_DIST_COORDINATOR_H_
#define RECONCILE_DIST_COORDINATOR_H_

#include <span>
#include <utility>

#include "reconcile/core/matcher.h"
#include "reconcile/core/result.h"
#include "reconcile/graph/graph.h"
#include "reconcile/graph/types.h"

namespace reconcile::dist {

/// Runs User-Matching as a coordinator over `config.workers` forked worker
/// processes (DESIGN.md §2.7): each worker owns a slice of the
/// `(level, shard)` score layout, rounds exchange only per-shard
/// best-candidate tables and committed links over CRC-framed socketpairs,
/// and worker loss (crash, hang, byte corruption) is repaired by
/// respawn-with-backoff up to `config.worker_retry`, then by reassigning
/// the lost slice to survivors — the matching stays bit-identical to the
/// in-process run under every failure schedule.
///
/// Returns true with `*result` filled. Returns false — after a one-line
/// warning — when the configuration cannot run distributed
/// (checkpoint/resume, a memory budget) or when every
/// worker is gone with the retry budget spent; the caller then runs the
/// in-process path, which produces the identical matching.
bool DistUserMatching(const Graph& g1, const Graph& g2,
                      std::span<const std::pair<NodeId, NodeId>> seeds,
                      const MatcherConfig& config, MatchResult* result);

}  // namespace reconcile::dist

#endif  // RECONCILE_DIST_COORDINATOR_H_
