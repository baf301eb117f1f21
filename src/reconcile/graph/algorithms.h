#ifndef RECONCILE_GRAPH_ALGORITHMS_H_
#define RECONCILE_GRAPH_ALGORITHMS_H_

#include <cstddef>
#include <vector>

#include "reconcile/graph/graph.h"
#include "reconcile/graph/types.h"

namespace reconcile {

/// Breadth-first distances from `source`; unreachable nodes get
/// `kUnreachable`.
inline constexpr uint32_t kUnreachable = ~0u;
std::vector<uint32_t> BfsDistances(const Graph& g, NodeId source);

/// Connected-component label per node (labels are the smallest node id in
/// the component).
std::vector<NodeId> ConnectedComponents(const Graph& g);

/// Number of connected components.
size_t CountComponents(const Graph& g);

/// Size of the largest connected component (0 for empty graph).
size_t LargestComponentSize(const Graph& g);

/// Histogram of node degrees: `result[d]` = number of nodes with degree `d`.
std::vector<size_t> DegreeHistogram(const Graph& g);

/// Exact triangle count (sum over nodes of wedges closed / 3). Intended for
/// small/medium graphs used in tests.
size_t CountTriangles(const Graph& g);

}  // namespace reconcile

#endif  // RECONCILE_GRAPH_ALGORITHMS_H_
