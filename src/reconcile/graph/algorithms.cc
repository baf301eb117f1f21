#include "reconcile/graph/algorithms.h"

#include <algorithm>
#include <deque>
#include <numeric>

#include "reconcile/util/logging.h"

namespace reconcile {

std::vector<uint32_t> BfsDistances(const Graph& g, NodeId source) {
  RECONCILE_CHECK_LT(source, g.num_nodes());
  std::vector<uint32_t> dist(g.num_nodes(), kUnreachable);
  std::deque<NodeId> queue;
  dist[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    NodeId v = queue.front();
    queue.pop_front();
    for (NodeId w : g.Neighbors(v)) {
      if (dist[w] == kUnreachable) {
        dist[w] = dist[v] + 1;
        queue.push_back(w);
      }
    }
  }
  return dist;
}

std::vector<NodeId> ConnectedComponents(const Graph& g) {
  std::vector<NodeId> label(g.num_nodes(), kInvalidNode);
  std::deque<NodeId> queue;
  for (NodeId start = 0; start < g.num_nodes(); ++start) {
    if (label[start] != kInvalidNode) continue;
    label[start] = start;
    queue.push_back(start);
    while (!queue.empty()) {
      NodeId v = queue.front();
      queue.pop_front();
      for (NodeId w : g.Neighbors(v)) {
        if (label[w] == kInvalidNode) {
          label[w] = start;
          queue.push_back(w);
        }
      }
    }
  }
  return label;
}

size_t CountComponents(const Graph& g) {
  std::vector<NodeId> label = ConnectedComponents(g);
  size_t count = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (label[v] == v) ++count;
  }
  return count;
}

size_t LargestComponentSize(const Graph& g) {
  if (g.num_nodes() == 0) return 0;
  std::vector<NodeId> label = ConnectedComponents(g);
  std::vector<size_t> sizes(g.num_nodes(), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) ++sizes[label[v]];
  return *std::max_element(sizes.begin(), sizes.end());
}

std::vector<size_t> DegreeHistogram(const Graph& g) {
  std::vector<size_t> hist(static_cast<size_t>(g.max_degree()) + 1, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) ++hist[g.degree(v)];
  return hist;
}

size_t CountTriangles(const Graph& g) {
  // For each edge (u, v) with u < v, count common neighbours w > v; every
  // triangle is counted exactly once at its smallest-id vertex pair.
  size_t triangles = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) {
      if (v <= u) continue;
      std::span<const NodeId> a = g.Neighbors(u);
      std::span<const NodeId> b = g.Neighbors(v);
      size_t i = 0, j = 0;
      while (i < a.size() && j < b.size()) {
        if (a[i] < b[j]) {
          ++i;
        } else if (a[i] > b[j]) {
          ++j;
        } else {
          if (a[i] > v) ++triangles;
          ++i;
          ++j;
        }
      }
    }
  }
  return triangles;
}

}  // namespace reconcile
