#ifndef RECONCILE_SERVE_OVERLAY_GRAPH_H_
#define RECONCILE_SERVE_OVERLAY_GRAPH_H_

#include <cstddef>
#include <vector>

#include "reconcile/graph/edge_list.h"
#include "reconcile/graph/graph.h"
#include "reconcile/graph/types.h"

namespace reconcile {

class ThreadPool;

/// A mutable graph view for the serve path: an immutable CSR base plus
/// per-node sorted diff vectors of inserted (`added_`) and deleted
/// (`removed_`) edges — a delta batch lands as cheap point updates, and
/// `Compact` folds them into a fresh CSR for the batch matcher to read
/// (`base()`). Every query (`degree`, `HasEdge`, `ForEachNeighbor`)
/// already reflects the uncompacted diffs, so compaction is
/// semantics-neutral.
///
/// Self-loops are rejected; inserting a present edge or deleting an absent
/// one is a no-op (returns false). Node ids beyond the base graph grow the
/// overlay (`num_nodes` raises to max endpoint + 1); base accesses are
/// guarded for such nodes.
class OverlayGraph {
 public:
  explicit OverlayGraph(Graph base);

  NodeId num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return num_edges_; }
  NodeId degree(NodeId u) const { return degree_[u]; }

  /// Largest current degree — an O(num_nodes) scan, so callers cache it
  /// per batch (unlike `Graph::max_degree()` it cannot be precomputed:
  /// deletes can lower it).
  NodeId MaxDegree() const;

  /// True iff the edge {u, v} is currently present. Safe for any ids
  /// (out-of-range nodes have no edges).
  bool HasEdge(NodeId u, NodeId v) const;

  /// Inserts {u, v}. Returns true when the edge state actually changed
  /// (false: self-loop or already present). Grows the node range.
  bool InsertEdge(NodeId u, NodeId v);

  /// Deletes {u, v}. Returns true when the edge was present.
  bool DeleteEdge(NodeId u, NodeId v);

  /// Invokes `fn(v)` for every current neighbour of `u`, ascending by id:
  /// a sorted merge of (base minus removed) with added.
  template <typename Fn>
  void ForEachNeighbor(NodeId u, Fn&& fn) const {
    const bool in_base = u < base_.num_nodes();
    const std::span<const NodeId> base =
        in_base ? base_.Neighbors(u) : std::span<const NodeId>();
    const std::vector<NodeId>& removed = removed_[u];
    const std::vector<NodeId>& added = added_[u];
    size_t bi = 0, ri = 0, ai = 0;
    while (bi < base.size() || ai < added.size()) {
      // Skip base neighbours struck out by the removed diff.
      while (bi < base.size() && ri < removed.size()) {
        if (removed[ri] < base[bi]) {
          ++ri;
        } else if (removed[ri] == base[bi]) {
          ++ri;
          ++bi;
        } else {
          break;
        }
      }
      const bool has_base = bi < base.size();
      const bool has_added = ai < added.size();
      if (!has_base && !has_added) break;
      if (has_base && (!has_added || base[bi] < added[ai])) {
        fn(base[bi]);
        ++bi;
      } else {
        fn(added[ai]);
        ++ai;
      }
    }
  }

  /// Current neighbours of `u`, ascending, materialized.
  std::vector<NodeId> Neighbors(NodeId u) const;

  /// The current edge set as a canonical (u < v) edge list whose node
  /// range is `num_nodes()`. Edges come out sorted by (u, v).
  EdgeList Materialize() const;

  /// Folds the diffs into a fresh CSR base (built on `pool`; nullptr =
  /// serial). Queries are unchanged; `num_uncompacted()` drops to zero.
  void Compact(ThreadPool* pool);

  /// Diff entries not yet folded into the base (each changed edge counts
  /// once per endpoint).
  size_t num_uncompacted() const { return num_uncompacted_; }

  const Graph& base() const { return base_; }

 private:
  void EnsureNode(NodeId u);

  Graph base_;
  std::vector<std::vector<NodeId>> added_;    // [u] -> sorted inserted nbrs
  std::vector<std::vector<NodeId>> removed_;  // [u] -> sorted deleted nbrs
  std::vector<NodeId> degree_;
  NodeId num_nodes_ = 0;
  size_t num_edges_ = 0;
  size_t num_uncompacted_ = 0;
};

}  // namespace reconcile

#endif  // RECONCILE_SERVE_OVERLAY_GRAPH_H_
