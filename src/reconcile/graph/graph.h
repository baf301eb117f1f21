#ifndef RECONCILE_GRAPH_GRAPH_H_
#define RECONCILE_GRAPH_GRAPH_H_

#include <cstddef>
#include <span>
#include <vector>

#include "reconcile/graph/edge_list.h"
#include "reconcile/graph/types.h"

namespace reconcile {

class ThreadPool;

/// Immutable undirected simple graph in compressed sparse row (CSR) form.
///
/// Two adjacency orderings are materialized per node:
///  * by ascending neighbour id (`Neighbors`) — enables `HasEdge` via binary
///    search and deterministic iteration;
///  * by descending neighbour degree (`NeighborsByDegree`) — so the degree
///    level floor(log2 degree) never increases along the list: the
///    matcher's witness emission walks only the prefix whose degree clears
///    its floor `2^min_bucket_exponent` and emits each level's contiguous
///    segment of that prefix as one run.
///
/// Construction goes through `FromEdgeList`, which canonicalizes the input
/// (self-loops and duplicate edges removed).
class Graph {
 public:
  /// Empty graph.
  Graph() = default;

  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  /// Builds a graph from `edges`. The edge list is normalized (copy taken);
  /// the node count is max(edges.num_nodes(), largest endpoint + 1).
  /// Large inputs are normalized and built in parallel on the process-wide
  /// shared pool (`ThreadPool::Shared()`); the result is independent of the
  /// thread count.
  static Graph FromEdgeList(EdgeList edges);

  /// Same, but runs the parallel passes (edge-list normalization, degree
  /// count, CSR scatter, per-node sorts for both adjacency orderings) on
  /// `pool`. `pool == nullptr` forces the serial build.
  static Graph FromEdgeList(EdgeList edges, ThreadPool* pool);

  NodeId num_nodes() const { return num_nodes_; }

  /// Number of undirected edges.
  size_t num_edges() const { return adjacency_.size() / 2; }

  NodeId degree(NodeId v) const {
    return static_cast<NodeId>(offsets_[v + 1] - offsets_[v]);
  }

  /// Largest degree in the graph (0 for an empty graph). Precomputed.
  NodeId max_degree() const { return max_degree_; }

  /// Neighbours of `v`, ascending by node id.
  std::span<const NodeId> Neighbors(NodeId v) const {
    return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// Neighbours of `v`, descending by neighbour degree (ties by id).
  std::span<const NodeId> NeighborsByDegree(NodeId v) const {
    return {by_degree_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// True iff the edge {u, v} is present. O(log degree(u)).
  bool HasEdge(NodeId u, NodeId v) const;

  /// Number of common neighbours of `u` and `v` (sorted-merge intersection).
  size_t CommonNeighborCount(NodeId u, NodeId v) const;

  /// Sum of degrees == 2 * num_edges().
  size_t degree_sum() const { return adjacency_.size(); }

 private:
  static Graph FromNormalized(EdgeList edges, ThreadPool* pool);

  NodeId num_nodes_ = 0;
  NodeId max_degree_ = 0;
  // offsets_ has num_nodes_ + 1 entries; adjacency slices live in
  // [offsets_[v], offsets_[v+1]).
  std::vector<size_t> offsets_{0};
  std::vector<NodeId> adjacency_;  // ascending by id
  std::vector<NodeId> by_degree_;  // descending by degree
};

}  // namespace reconcile

#endif  // RECONCILE_GRAPH_GRAPH_H_
