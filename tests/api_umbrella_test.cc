// Smoke test for the umbrella header: a downstream user includes one
// header and drives the whole pipeline through the public API.
#include "reconcile/reconcile.h"

#include <gtest/gtest.h>

namespace reconcile {
namespace {

TEST(ApiUmbrellaTest, EndToEndPipelineThroughOneInclude) {
  Graph truth = GeneratePreferentialAttachment(600, 6, 11);
  IndependentSampleOptions sampling;
  sampling.s1 = 0.7;
  sampling.s2 = 0.7;
  RealizationPair pair = SampleIndependent(truth, sampling, 12);

  SeedOptions seeding;
  seeding.fraction = 0.1;
  auto seeds = GenerateSeeds(pair, seeding, 13);

  MatcherConfig config;
  MatchResult result = UserMatching(pair.g1, pair.g2, seeds, config);
  MatchQuality quality = Evaluate(pair, result);
  EXPECT_GE(quality.precision, 0.95);

  // Links are never withdrawn, so every discovered link keeps at least the
  // witnesses it was accepted with under the final mapping.
  size_t discovered = 0;
  const std::vector<char> is_seed = result.SeedMask1();
  for (NodeId u = 0; u < pair.g1.num_nodes(); ++u) {
    const NodeId v = result.map_1to2[u];
    if (v == kInvalidNode || is_seed[u]) continue;
    ++discovered;
    EXPECT_GE(CountSimilarityWitnesses(pair.g1, pair.g2, result.map_1to2, u,
                                       v),
              config.min_score);
  }
  EXPECT_EQ(discovered, result.NumNewLinks());

  GraphStatistics stats = ComputeStatistics(truth);
  EXPECT_EQ(stats.num_nodes, truth.num_nodes());
}

TEST(ApiUmbrellaTest, TheoryAndBaselineSymbolsVisible) {
  EXPECT_GT(ErTruePairWitnessMean(1000, 0.01, 0.5, 0.1), 0.0);
  EXPECT_EQ(kPaTheoryThreshold, 9u);
  Graph g = GenerateErdosRenyi(100, 0.1, 17);
  std::vector<std::pair<NodeId, NodeId>> seeds = {{0, 0}};
  MatchResult result = PercolationMatch(g, g, seeds, PercolationConfig{});
  EXPECT_GE(result.NumLinks(), 1u);
}

}  // namespace
}  // namespace reconcile
