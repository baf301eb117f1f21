#include "reconcile/graph/algorithms.h"

#include <gtest/gtest.h>

#include "reconcile/gen/erdos_renyi.h"

namespace reconcile {
namespace {

Graph PathGraph(NodeId n) {
  EdgeList edges(n);
  for (NodeId v = 0; v + 1 < n; ++v) edges.Add(v, v + 1);
  return Graph::FromEdgeList(std::move(edges));
}

Graph TwoTriangles() {
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(1, 2);
  edges.Add(0, 2);
  edges.Add(3, 4);
  edges.Add(4, 5);
  edges.Add(3, 5);
  return Graph::FromEdgeList(std::move(edges));
}

TEST(BfsTest, DistancesOnPath) {
  Graph g = PathGraph(5);
  std::vector<uint32_t> dist = BfsDistances(g, 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(dist[v], v);
}

TEST(BfsTest, UnreachableMarked) {
  Graph g = TwoTriangles();
  std::vector<uint32_t> dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 1u);
  EXPECT_EQ(dist[3], kUnreachable);
  EXPECT_EQ(dist[4], kUnreachable);
}

TEST(BfsTest, SourceDistanceZero) {
  Graph g = PathGraph(3);
  EXPECT_EQ(BfsDistances(g, 1)[1], 0u);
}

TEST(ComponentsTest, SingleComponentPath) {
  Graph g = PathGraph(6);
  EXPECT_EQ(CountComponents(g), 1u);
  EXPECT_EQ(LargestComponentSize(g), 6u);
}

TEST(ComponentsTest, TwoComponents) {
  Graph g = TwoTriangles();
  EXPECT_EQ(CountComponents(g), 2u);
  EXPECT_EQ(LargestComponentSize(g), 3u);
  std::vector<NodeId> label = ConnectedComponents(g);
  EXPECT_EQ(label[0], label[1]);
  EXPECT_EQ(label[0], label[2]);
  EXPECT_EQ(label[3], label[4]);
  EXPECT_NE(label[0], label[3]);
}

TEST(ComponentsTest, IsolatedNodesAreOwnComponents) {
  EdgeList edges(5);
  edges.Add(0, 1);
  Graph g = Graph::FromEdgeList(std::move(edges));
  EXPECT_EQ(CountComponents(g), 4u);  // {0,1}, {2}, {3}, {4}
}

TEST(DegreeHistogramTest, CountsPerDegree) {
  Graph g = PathGraph(4);  // degrees: 1,2,2,1
  std::vector<size_t> hist = DegreeHistogram(g);
  ASSERT_EQ(hist.size(), 3u);
  EXPECT_EQ(hist[0], 0u);
  EXPECT_EQ(hist[1], 2u);
  EXPECT_EQ(hist[2], 2u);
}

TEST(DegreeHistogramTest, SumsToNodeCount) {
  Graph g = GenerateErdosRenyi(500, 0.02, 7);
  std::vector<size_t> hist = DegreeHistogram(g);
  size_t total = 0;
  for (size_t c : hist) total += c;
  EXPECT_EQ(total, g.num_nodes());
}

TEST(TriangleTest, CountsExactly) {
  EXPECT_EQ(CountTriangles(TwoTriangles()), 2u);
  EXPECT_EQ(CountTriangles(PathGraph(10)), 0u);
}

TEST(TriangleTest, K4HasFourTriangles) {
  EdgeList edges;
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = u + 1; v < 4; ++v) edges.Add(u, v);
  }
  EXPECT_EQ(CountTriangles(Graph::FromEdgeList(std::move(edges))), 4u);
}

}  // namespace
}  // namespace reconcile
