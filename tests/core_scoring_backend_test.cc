// Scoring differential grid: the sort-based score store must reproduce the
// paper-literal oracle (tests/support/paper_matcher.h) across thread and
// shard counts, with bucketing on and off and under a degree floor. The
// oracle rebuilds every score from all links each round, so any divergence
// is a bug in the emit/sort/merge path or in selection.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/core/matcher.h"
#include "reconcile/gen/chung_lu.h"
#include "reconcile/gen/erdos_renyi.h"
#include "reconcile/gen/preferential_attachment.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"
#include "support/oracle_diff.h"
#include "support/paper_matcher.h"

namespace reconcile {
namespace {

struct Workload {
  RealizationPair pair;
  std::vector<std::pair<NodeId, NodeId>> seeds;
};

Workload MakeWorkload(uint64_t rng_seed) {
  Graph g;
  switch (rng_seed % 3) {
    case 0:
      g = GeneratePreferentialAttachment(1400, 8, rng_seed);
      break;
    case 1:
      g = GenerateChungLu(PowerLawWeights(1400, 2.5, 14.0), rng_seed);
      break;
    default:
      g = GenerateErdosRenyi(1200, 0.03, rng_seed);
      break;
  }
  IndependentSampleOptions options;
  options.s1 = 0.6;
  options.s2 = 0.6;
  Workload w;
  w.pair = SampleIndependent(g, options, rng_seed + 1);
  SeedOptions seeding;
  seeding.fraction = 0.08;
  w.seeds = GenerateSeeds(w.pair, seeding, rng_seed + 2);
  return w;
}

// The grid: bucketing on and off × (threads, shards) ∈ {(1, 1), (4, 13)},
// each run held against the oracle.
TEST(ScoringDifferentialTest, MatchesPaperOracleAcrossGrid) {
  for (uint64_t rng_seed : {9001u, 9002u, 9003u}) {
    SCOPED_TRACE("rng_seed=" + std::to_string(rng_seed));
    Workload w = MakeWorkload(rng_seed);
    for (bool bucketing : {true, false}) {
      MatcherConfig config;
      config.use_degree_bucketing = bucketing;
      const paper::Matching want = paper::UserMatching(
          w.pair.g1, w.pair.g2, w.seeds, PaperOptions(config));
      for (auto [threads, shards] :
           {std::pair<int, int>{1, 1}, std::pair<int, int>{4, 13}}) {
        SCOPED_TRACE("bucketing=" + std::to_string(bucketing) +
                     " threads=" + std::to_string(threads) +
                     " shards=" + std::to_string(shards));
        config.num_threads = threads;
        config.num_shards = shards;
        MatchResult result =
            UserMatching(w.pair.g1, w.pair.g2, w.seeds, config);
        EXPECT_GT(result.NumNewLinks(), 0u)
            << "workload too easy to detect divergence";
        ExpectSameAsPaper(result, want);
      }
    }
  }
}

// min_bucket_exponent prunes emissions at the source; the matcher must
// apply the oracle's degree floor.
TEST(ScoringDifferentialTest, DegreeFloorMatchesPaperOracle) {
  Workload w = MakeWorkload(9005);
  MatcherConfig config;
  config.min_bucket_exponent = 3;  // degree >= 8
  MatchResult result =
      ExpectMatchesPaper(w.pair.g1, w.pair.g2, w.seeds, config);
  const std::vector<char> is_seed = result.SeedMask1();
  for (NodeId u = 0; u < w.pair.g1.num_nodes(); ++u) {
    const NodeId v = result.map_1to2[u];
    if (v == kInvalidNode || is_seed[u]) continue;
    EXPECT_GE(w.pair.g1.degree(u), 8u);
    EXPECT_GE(w.pair.g2.degree(v), 8u);
  }
}

// Degenerate inputs must not trip the sort/merge paths.
TEST(ScoringEdgeCaseTest, EmptyGraphsAndSeedOnlyGraphs) {
  MatcherConfig config;

  Graph empty;
  MatchResult result = UserMatching(empty, empty, {}, config);
  EXPECT_EQ(result.NumLinks(), 0u);

  EdgeList e1(4), e2(4);
  Graph g1 = Graph::FromEdgeList(std::move(e1));
  Graph g2 = Graph::FromEdgeList(std::move(e2));
  std::vector<std::pair<NodeId, NodeId>> seeds = {{0, 1}, {2, 3}};
  MatchResult seeded = UserMatching(g1, g2, seeds, config);
  EXPECT_EQ(seeded.NumLinks(), 2u);
  EXPECT_EQ(seeded.NumNewLinks(), 0u);
}

}  // namespace
}  // namespace reconcile
