#include "reconcile/baseline/percolation.h"

#include <gtest/gtest.h>

#include "reconcile/core/matcher.h"
#include "reconcile/eval/metrics.h"
#include "reconcile/gen/erdos_renyi.h"
#include "reconcile/gen/preferential_attachment.h"
#include "reconcile/sampling/attack.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"

namespace reconcile {
namespace {

RealizationPair MakePair(NodeId n, int m, double s, uint64_t seed) {
  Graph g = GeneratePreferentialAttachment(n, m, seed);
  IndependentSampleOptions options;
  options.s1 = s;
  options.s2 = s;
  return SampleIndependent(g, options, seed + 1);
}

TEST(PercolationTest, NoSeedsNoMatches) {
  RealizationPair pair = MakePair(500, 5, 0.8, 3);
  MatchResult result = PercolationMatch(pair.g1, pair.g2, {},
                                        PercolationConfig{});
  EXPECT_EQ(result.NumNewLinks(), 0u);
}

TEST(PercolationTest, ThresholdBelowTwoDies) {
  RealizationPair pair = MakePair(50, 3, 1.0, 5);
  PercolationConfig config;
  config.threshold = 1;
  EXPECT_DEATH(PercolationMatch(pair.g1, pair.g2, {}, config),
               "at least 2");
}

TEST(PercolationTest, SeedCountPhaseTransition) {
  // Yartseva & Grossglauser prove a sharp threshold in the number of seeds:
  // below it percolation dies out, above it most of the graph is matched.
  // Sweep the seed fraction across a decade and require a large jump.
  RealizationPair pair = MakePair(2000, 10, 0.9, 7);
  double lo_recall = 0.0, hi_recall = 0.0;
  {
    SeedOptions seed_options;
    seed_options.fraction = 0.005;
    auto seeds = GenerateSeeds(pair, seed_options, 9);
    MatchResult result = PercolationMatch(pair.g1, pair.g2, seeds,
                                          PercolationConfig{});
    lo_recall = Evaluate(pair, result).recall_all;
  }
  {
    SeedOptions seed_options;
    seed_options.fraction = 0.25;
    auto seeds = GenerateSeeds(pair, seed_options, 9);
    MatchResult result = PercolationMatch(pair.g1, pair.g2, seeds,
                                          PercolationConfig{});
    hi_recall = Evaluate(pair, result).recall_all;
  }
  EXPECT_GT(hi_recall, 0.5);
  EXPECT_GT(hi_recall, lo_recall + 0.25);
}

TEST(PercolationTest, HigherThresholdIsMoreConservative) {
  RealizationPair pair = MakePair(2000, 8, 0.7, 11);
  SeedOptions seed_options;
  seed_options.fraction = 0.1;
  auto seeds = GenerateSeeds(pair, seed_options, 13);

  PercolationConfig r2;
  PercolationConfig r4;
  r4.threshold = 4;
  MatchResult loose = PercolationMatch(pair.g1, pair.g2, seeds, r2);
  MatchResult strict = PercolationMatch(pair.g1, pair.g2, seeds, r4);
  EXPECT_GE(loose.NumNewLinks(), strict.NumNewLinks());
}

TEST(PercolationTest, OutputIsOneToOne) {
  RealizationPair pair = MakePair(1000, 6, 0.6, 17);
  SeedOptions seed_options;
  seed_options.fraction = 0.1;
  auto seeds = GenerateSeeds(pair, seed_options, 19);
  MatchResult result = PercolationMatch(pair.g1, pair.g2, seeds,
                                        PercolationConfig{});
  std::vector<int> used(pair.g2.num_nodes(), 0);
  for (NodeId u = 0; u < pair.g1.num_nodes(); ++u) {
    const NodeId v = result.map_1to2[u];
    if (v == kInvalidNode) continue;
    EXPECT_EQ(result.map_2to1[v], u);
    EXPECT_EQ(++used[v], 1);
  }
}

TEST(PercolationTest, MinDegreeFloorFiltersLowDegreeNodes) {
  RealizationPair pair = MakePair(1000, 4, 0.8, 23);
  SeedOptions seed_options;
  seed_options.fraction = 0.15;
  auto seeds = GenerateSeeds(pair, seed_options, 29);
  PercolationConfig config;
  config.min_degree = 5;
  MatchResult result = PercolationMatch(pair.g1, pair.g2, seeds, config);
  const std::vector<char> is_seed = result.SeedMask1();
  for (NodeId u = 0; u < pair.g1.num_nodes(); ++u) {
    if (result.map_1to2[u] == kInvalidNode || is_seed[u]) continue;
    EXPECT_GE(pair.g1.degree(u), 5u);
  }
}

TEST(PercolationTest, LessPreciseThanUserMatchingUnderAttack) {
  // Greedy first-past-the-post percolation has no blocker semantics: sybil
  // pairs that hit r marks before the genuine pair are accepted. Compare
  // error counts under the paper's attack model.
  Graph g = GeneratePreferentialAttachment(3000, 8, 31);
  IndependentSampleOptions copy_options;
  copy_options.s1 = 0.75;
  copy_options.s2 = 0.75;
  RealizationPair pair = SampleIndependent(g, copy_options, 33);
  pair = ApplyAttack(pair, AttackOptions{}, 35);
  SeedOptions seed_options;
  seed_options.fraction = 0.1;
  auto seeds = GenerateSeeds(pair, seed_options, 37);

  MatchResult percolation = PercolationMatch(pair.g1, pair.g2, seeds,
                                             PercolationConfig{});
  MatcherConfig user_config;
  user_config.min_score = 2;
  MatchResult user = UserMatching(pair.g1, pair.g2, seeds, user_config);

  MatchQuality pq = Evaluate(pair, percolation);
  MatchQuality uq = Evaluate(pair, user);
  EXPECT_GT(uq.precision, pq.precision - 0.02);
  // User-Matching keeps near-perfect precision here; percolation visibly
  // degrades.
  EXPECT_GT(uq.precision, 0.98);
}

TEST(PercolationTest, DeterministicAcrossRuns) {
  RealizationPair pair = MakePair(800, 5, 0.7, 41);
  SeedOptions seed_options;
  seed_options.fraction = 0.1;
  auto seeds = GenerateSeeds(pair, seed_options, 43);
  MatchResult a = PercolationMatch(pair.g1, pair.g2, seeds,
                                   PercolationConfig{});
  MatchResult b = PercolationMatch(pair.g1, pair.g2, seeds,
                                   PercolationConfig{});
  EXPECT_EQ(a.map_1to2, b.map_1to2);
}

}  // namespace
}  // namespace reconcile
