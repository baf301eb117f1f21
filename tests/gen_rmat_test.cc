#include "reconcile/gen/rmat.h"

#include <gtest/gtest.h>

namespace reconcile {
namespace {

TEST(RmatTest, NodeCountIsPowerOfTwo) {
  RmatParams params;
  params.scale = 10;
  Graph g = GenerateRmat(params, 1);
  EXPECT_EQ(g.num_nodes(), 1024u);
}

TEST(RmatTest, Deterministic) {
  RmatParams params;
  params.scale = 12;
  Graph a = GenerateRmat(params, 5);
  Graph b = GenerateRmat(params, 5);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (NodeId v = 0; v < a.num_nodes(); ++v) ASSERT_EQ(a.degree(v), b.degree(v));
}

TEST(RmatTest, EdgeCountNearTarget) {
  RmatParams params;
  params.scale = 13;
  params.edge_factor = 8.0;
  Graph g = GenerateRmat(params, 9);
  size_t target = static_cast<size_t>(params.edge_factor * (1u << params.scale));
  // Duplicates collapse, so we land below target but not catastrophically.
  EXPECT_LE(g.num_edges(), target);
  EXPECT_GT(g.num_edges(), target / 2);
}

TEST(RmatTest, SkewedDegrees) {
  RmatParams params;
  params.scale = 14;
  params.edge_factor = 8.0;
  Graph g = GenerateRmat(params, 11);
  double avg = static_cast<double>(g.degree_sum()) / g.num_nodes();
  EXPECT_GT(g.max_degree(), 10 * avg);
}

TEST(RmatTest, UniformParamsGiveUnskewedGraph) {
  RmatParams params;
  params.scale = 12;
  params.edge_factor = 8.0;
  params.a = params.b = params.c = params.d = 0.25;
  params.noise = false;
  Graph g = GenerateRmat(params, 13);
  // With uniform quadrants this is ER-like: max degree stays near the mean.
  double avg = static_cast<double>(g.degree_sum()) / g.num_nodes();
  EXPECT_LT(g.max_degree(), 5 * avg);
}

TEST(RmatTest, GrowsAcrossScales) {
  RmatParams small, big;
  small.scale = 10;
  big.scale = 12;
  Graph gs = GenerateRmat(small, 17);
  Graph gb = GenerateRmat(big, 17);
  EXPECT_GT(gb.num_edges(), 3 * gs.num_edges());
}

TEST(RmatDeathTest, RejectsBadProbabilities) {
  RmatParams params;
  params.a = 0.9;  // sums to 1.33
  EXPECT_DEATH(GenerateRmat(params, 1), "Check failed");
}

TEST(RmatDeathTest, RejectsNonPositiveEdgeFactor) {
  RmatParams params;
  params.scale = 4;
  params.edge_factor = -1.0;
  EXPECT_DEATH(GenerateRmat(params, 1), "edge_factor");
}

}  // namespace
}  // namespace reconcile
