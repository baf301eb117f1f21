// The production matcher against the paper: on every scenario, at 1 and 4
// threads, `UserMatching` must reproduce the paper-literal oracle
// (tests/support/paper_matcher.h) — the same map_1to2, the same map_2to1,
// and the same number of links accepted in every round. The scenarios span
// the generative models, the schedule knobs (flat sweep, a degree floor,
// k=3 without early stop) and the adversarial inputs (wrong seeds, sybils).
#include <numeric>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/core/matcher.h"
#include "reconcile/gen/chung_lu.h"
#include "reconcile/gen/erdos_renyi.h"
#include "reconcile/gen/preferential_attachment.h"
#include "reconcile/gen/rmat.h"
#include "reconcile/gen/sbm.h"
#include "reconcile/sampling/attack.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"
#include "support/oracle_diff.h"
#include "support/paper_matcher.h"

namespace reconcile {
namespace {

enum class Model { kEr, kPa, kChungLu, kRmat, kSbm };

struct Scenario {
  const char* name;
  Model model;
  MatcherConfig config;
  double wrong_seeds = 0.0;
  bool sybil_attack = false;
};

MatcherConfig Config(uint32_t threshold) {
  MatcherConfig config;
  config.min_score = threshold;
  return config;
}

MatcherConfig Flat() {
  MatcherConfig config;
  config.use_degree_bucketing = false;
  return config;
}

MatcherConfig DegreeFloor() {
  MatcherConfig config;
  config.min_bucket_exponent = 2;
  return config;
}

MatcherConfig ThreeIterationsNoEarlyStop() {
  MatcherConfig config;
  config.num_iterations = 3;
  config.stop_when_stable = false;
  return config;
}

Graph MakeGraph(Model model) {
  switch (model) {
    case Model::kEr:
      return GenerateErdosRenyi(800, 0.02, 5101);
    case Model::kPa:
      return GeneratePreferentialAttachment(1200, 8, 5103);
    case Model::kChungLu:
      return GenerateChungLu(PowerLawWeights(1500, 2.5, 14.0), 5105);
    case Model::kRmat: {
      RmatParams params;
      params.scale = 10;
      return GenerateRmat(params, 5107);
    }
    case Model::kSbm: {
      SbmParams params;
      params.block_sizes = {300, 300, 300};
      params.p_in = 0.05;
      params.p_out = 0.003;
      return GenerateSbm(params, 5109);
    }
  }
  return Graph();
}

// Failure messages name the scenario instead of dumping its bytes.
void PrintTo(const Scenario& scenario, std::ostream* out) {
  *out << scenario.name;
}

class PaperOracleTest : public testing::TestWithParam<Scenario> {};

TEST_P(PaperOracleTest, MatchesAtOneAndFourThreads) {
  const Scenario& scenario = GetParam();
  IndependentSampleOptions sampling;
  sampling.s1 = 0.6;
  sampling.s2 = 0.6;
  RealizationPair pair = SampleIndependent(MakeGraph(scenario.model),
                                           sampling, 5111);
  if (scenario.sybil_attack) pair = ApplyAttack(pair, {}, 5113);
  SeedOptions seeding;
  seeding.fraction = 0.1;
  seeding.wrong_fraction = scenario.wrong_seeds;
  const auto seeds = GenerateSeeds(pair, seeding, 5115);

  const paper::Matching want = paper::UserMatching(
      pair.g1, pair.g2, seeds, PaperOptions(scenario.config));
  const size_t found = std::accumulate(want.new_links.begin(),
                                       want.new_links.end(), size_t{0});
  ASSERT_GT(found, 0u) << "scenario too easy to detect divergence";

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MatcherConfig config = scenario.config;
    config.num_threads = threads;
    ExpectSameAsPaper(UserMatching(pair.g1, pair.g2, seeds, config), want);
  }
}

std::string ScenarioName(const testing::TestParamInfo<Scenario>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, PaperOracleTest,
    testing::Values(
        Scenario{"ErdosRenyi", Model::kEr, Config(2)},
        Scenario{"PreferentialAttachment", Model::kPa, Config(3)},
        Scenario{"ChungLu", Model::kChungLu, Config(2)},
        Scenario{"Rmat", Model::kRmat, Config(2)},
        Scenario{"Sbm", Model::kSbm, Config(2)},
        Scenario{"FlatSweep", Model::kPa, Flat()},
        Scenario{"MinBucketExponent2", Model::kChungLu, DegreeFloor()},
        Scenario{"ThreeIterationsNoEarlyStop", Model::kEr,
                 ThreeIterationsNoEarlyStop()},
        Scenario{"WrongSeeds", Model::kPa, Config(2), 0.2},
        Scenario{"SybilAttack", Model::kEr, Config(2), 0.0, true}),
    ScenarioName);

// The oracle itself, on handcrafted cases whose answers are known: a pair
// with a strictly better witness count is accepted, tied pairs are not.
TEST(PaperOracleSelfTest, HandcraftedAnswers) {
  EdgeList edges(6);
  for (NodeId leaf = 1; leaf <= 4; ++leaf) edges.Add(0, leaf);
  edges.Add(1, 2);
  edges.Add(4, 5);
  const Graph g = Graph::FromEdgeList(std::move(edges));
  paper::Options options;
  options.min_score = 1;
  options.num_iterations = 3;

  // One seed: every candidate scores 1, so nothing is unique.
  const paper::Matching lone = paper::UserMatching(g, g, {{0, 0}}, options);
  for (NodeId u = 1; u < 6; ++u) EXPECT_EQ(lone.map_1to2[u], kInvalidNode);

  // Two seeds: (2, 2) has two witnesses, every rival one.
  const paper::Matching two =
      paper::UserMatching(g, g, {{0, 0}, {1, 1}}, options);
  EXPECT_EQ(two.map_1to2[2], 2u);
  EXPECT_EQ(two.map_2to1[2], 2u);
}

}  // namespace
}  // namespace reconcile
