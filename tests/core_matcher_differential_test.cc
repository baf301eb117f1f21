// Differential tests: the matcher must reproduce the paper-literal oracle
// (tests/support/paper_matcher.h), every parallelism setting must produce
// bit-identical matchings, and every run must satisfy the structural
// invariants of a partial matching.
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "reconcile/core/matcher.h"
#include "reconcile/gen/chung_lu.h"
#include "reconcile/gen/erdos_renyi.h"
#include "reconcile/gen/preferential_attachment.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"
#include "support/oracle_diff.h"

namespace reconcile {
namespace {

enum class Model { kErdosRenyi, kPreferentialAttachment, kChungLu };

struct DiffCase {
  Model model;
  bool bucketing;
  uint32_t threshold;
  int iterations;
};

std::string CaseName(const testing::TestParamInfo<DiffCase>& info) {
  std::string name;
  switch (info.param.model) {
    case Model::kErdosRenyi:
      name = "Er";
      break;
    case Model::kPreferentialAttachment:
      name = "Pa";
      break;
    case Model::kChungLu:
      name = "Cl";
      break;
  }
  name += info.param.bucketing ? "Bucketed" : "Flat";
  name += "T" + std::to_string(info.param.threshold);
  name += "K" + std::to_string(info.param.iterations);
  return name;
}

RealizationPair MakePairFor(Model model) {
  Graph g;
  switch (model) {
    case Model::kErdosRenyi:
      g = GenerateErdosRenyi(1200, 0.03, 4001);
      break;
    case Model::kPreferentialAttachment:
      g = GeneratePreferentialAttachment(1500, 8, 4003);
      break;
    case Model::kChungLu:
      g = GenerateChungLu(PowerLawWeights(1500, 2.5, 16.0), 4005);
      break;
  }
  IndependentSampleOptions options;
  options.s1 = 0.6;
  options.s2 = 0.6;
  return SampleIndependent(g, options, 4007);
}

class EngineDifferentialTest : public testing::TestWithParam<DiffCase> {};

TEST_P(EngineDifferentialTest, MatchesPaperOracle) {
  const DiffCase param = GetParam();
  RealizationPair pair = MakePairFor(param.model);
  SeedOptions seed_options;
  seed_options.fraction = 0.08;
  auto seeds = GenerateSeeds(pair, seed_options, 4009);

  MatcherConfig config;
  config.use_degree_bucketing = param.bucketing;
  config.min_score = param.threshold;
  config.num_iterations = param.iterations;
  ExpectMatchesPaper(pair.g1, pair.g2, seeds, config);
}

TEST_P(EngineDifferentialTest, ThreadAndShardCountInvariance) {
  const DiffCase param = GetParam();
  RealizationPair pair = MakePairFor(param.model);
  SeedOptions seed_options;
  seed_options.fraction = 0.08;
  auto seeds = GenerateSeeds(pair, seed_options, 4011);

  MatcherConfig base;
  base.use_degree_bucketing = param.bucketing;
  base.min_score = param.threshold;
  base.num_iterations = param.iterations;

  MatcherConfig serial = base;
  serial.num_threads = 1;
  serial.num_shards = 1;
  MatcherConfig wide = base;
  wide.num_threads = 4;
  wide.num_shards = 13;  // deliberately odd shard count

  MatchResult a = UserMatching(pair.g1, pair.g2, seeds, serial);
  MatchResult b = UserMatching(pair.g1, pair.g2, seeds, wide);
  EXPECT_EQ(a.map_1to2, b.map_1to2);
}

TEST_P(EngineDifferentialTest, OutputIsAValidPartialMatching) {
  const DiffCase param = GetParam();
  RealizationPair pair = MakePairFor(param.model);
  SeedOptions seed_options;
  seed_options.fraction = 0.08;
  auto seeds = GenerateSeeds(pair, seed_options, 4013);

  MatcherConfig config;
  config.use_degree_bucketing = param.bucketing;
  config.min_score = param.threshold;
  config.num_iterations = param.iterations;
  MatchResult result = UserMatching(pair.g1, pair.g2, seeds, config);

  // One-to-one, mutually consistent maps.
  std::vector<int> used(pair.g2.num_nodes(), 0);
  for (NodeId u = 0; u < pair.g1.num_nodes(); ++u) {
    const NodeId v = result.map_1to2[u];
    if (v == kInvalidNode) continue;
    ASSERT_LT(v, pair.g2.num_nodes());
    EXPECT_EQ(result.map_2to1[v], u);
    EXPECT_EQ(++used[v], 1);
  }
  // Every seed is present verbatim.
  for (const auto& [u, v] : seeds) {
    EXPECT_EQ(result.map_1to2[u], v);
    EXPECT_EQ(result.map_2to1[v], u);
  }
  // Phase telemetry is consistent with the link count.
  size_t accepted = 0;
  for (const PhaseStats& phase : result.phases) accepted += phase.new_links;
  EXPECT_EQ(accepted, result.NumNewLinks());
}

INSTANTIATE_TEST_SUITE_P(
    ModelEngineGrid, EngineDifferentialTest,
    testing::Values(
        DiffCase{Model::kErdosRenyi, true, 2, 1},
        DiffCase{Model::kErdosRenyi, true, 3, 2},
        DiffCase{Model::kErdosRenyi, false, 2, 2},
        DiffCase{Model::kPreferentialAttachment, true, 2, 2},
        DiffCase{Model::kPreferentialAttachment, true, 4, 1},
        DiffCase{Model::kPreferentialAttachment, false, 3, 2},
        DiffCase{Model::kChungLu, true, 2, 2},
        DiffCase{Model::kChungLu, false, 2, 1}),
    CaseName);

// The degree floor must hold: with min_bucket_exponent = e, no non-seed
// link may involve a node of degree below 2^e.
TEST(MatcherDegreeFloorTest, MinBucketExponentExcludesLowDegrees) {
  RealizationPair pair = MakePairFor(Model::kPreferentialAttachment);
  SeedOptions seed_options;
  seed_options.fraction = 0.1;
  auto seeds = GenerateSeeds(pair, seed_options, 4017);
  MatcherConfig config;
  config.min_bucket_exponent = 3;  // degree >= 8
  MatchResult result = UserMatching(pair.g1, pair.g2, seeds, config);
  const std::vector<char> is_seed = result.SeedMask1();
  for (NodeId u = 0; u < pair.g1.num_nodes(); ++u) {
    const NodeId v = result.map_1to2[u];
    if (v == kInvalidNode || is_seed[u]) continue;
    EXPECT_GE(pair.g1.degree(u), 8u) << "node " << u;
    EXPECT_GE(pair.g2.degree(v), 8u) << "node " << v;
  }
}

// stop_when_stable must not change the result, only possibly the number of
// recorded phases.
TEST(MatcherStableStopTest, EarlyStopPreservesOutput) {
  RealizationPair pair = MakePairFor(Model::kErdosRenyi);
  SeedOptions seed_options;
  seed_options.fraction = 0.1;
  auto seeds = GenerateSeeds(pair, seed_options, 4019);
  MatcherConfig eager;
  eager.num_iterations = 4;
  eager.stop_when_stable = true;
  MatcherConfig full;
  full.num_iterations = 4;
  full.stop_when_stable = false;
  MatchResult a = UserMatching(pair.g1, pair.g2, seeds, eager);
  MatchResult b = UserMatching(pair.g1, pair.g2, seeds, full);
  EXPECT_EQ(a.map_1to2, b.map_1to2);
  EXPECT_LE(a.phases.size(), b.phases.size());
}

// Degenerate inputs.
TEST(MatcherEdgeCaseTest, EmptyGraphsAndNoSeeds) {
  Graph empty;
  MatchResult result = UserMatching(empty, empty, {}, MatcherConfig{});
  EXPECT_EQ(result.NumLinks(), 0u);
  EXPECT_TRUE(result.map_1to2.empty());
}

TEST(MatcherEdgeCaseTest, SeedsOnlyGraphWithNoEdges) {
  EdgeList e1(4), e2(4);
  Graph g1 = Graph::FromEdgeList(std::move(e1));
  Graph g2 = Graph::FromEdgeList(std::move(e2));
  std::vector<std::pair<NodeId, NodeId>> seeds = {{0, 1}, {2, 3}};
  MatchResult result = UserMatching(g1, g2, seeds, MatcherConfig{});
  EXPECT_EQ(result.NumLinks(), 2u);
  EXPECT_EQ(result.NumNewLinks(), 0u);
}

TEST(MatcherEdgeCaseTest, DuplicateSeedDies) {
  Graph g = GenerateErdosRenyi(10, 0.5, 1);
  std::vector<std::pair<NodeId, NodeId>> seeds = {{0, 1}, {0, 2}};
  EXPECT_DEATH(UserMatching(g, g, seeds, MatcherConfig{}), "duplicate seed");
}

TEST(MatcherEdgeCaseTest, OutOfRangeSeedDies) {
  Graph g = GenerateErdosRenyi(10, 0.5, 1);
  std::vector<std::pair<NodeId, NodeId>> seeds = {{42, 1}};
  EXPECT_DEATH(UserMatching(g, g, seeds, MatcherConfig{}), "");
}

}  // namespace
}  // namespace reconcile
