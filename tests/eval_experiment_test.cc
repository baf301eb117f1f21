#include "reconcile/eval/experiment.h"

#include <gtest/gtest.h>

#include "reconcile/api/registry.h"
#include "reconcile/api/spec.h"
#include "reconcile/gen/erdos_renyi.h"
#include "reconcile/sampling/independent.h"

namespace reconcile {
namespace {

RealizationPair MakePair(uint64_t seed) {
  Graph g = GenerateErdosRenyi(1000, 0.03, seed);
  IndependentSampleOptions options;
  options.s1 = 0.7;
  options.s2 = 0.7;
  return SampleIndependent(g, options, seed + 1);
}

TEST(ExperimentTest, RunsPipelineAndScores) {
  RealizationPair pair = MakePair(9001);
  SeedOptions seeding;
  seeding.fraction = 0.1;
  MatcherConfig config;
  config.min_score = 3;
  ExperimentResult result = RunExperiment(pair, seeding, config, 9003);
  EXPECT_GT(result.match.NumLinks(), result.match.seeds.size());
  EXPECT_GT(result.quality.new_good, 0u);
  EXPECT_GE(result.quality.precision, 0.95);
  EXPECT_GE(result.match_seconds, 0.0);
  EXPECT_GE(result.seed_seconds, 0.0);
}

TEST(ExperimentTest, DeterministicForSeed) {
  RealizationPair pair = MakePair(9005);
  SeedOptions seeding;
  seeding.fraction = 0.1;
  MatcherConfig config;
  ExperimentResult a = RunExperiment(pair, seeding, config, 9007);
  ExperimentResult b = RunExperiment(pair, seeding, config, 9007);
  EXPECT_EQ(a.quality.new_good, b.quality.new_good);
  EXPECT_EQ(a.quality.new_bad, b.quality.new_bad);
  EXPECT_EQ(a.match.map_1to2, b.match.map_1to2);
}

TEST(ExperimentTest, DifferentSeedDrawsDiffer) {
  RealizationPair pair = MakePair(9009);
  SeedOptions seeding;
  seeding.fraction = 0.1;
  MatcherConfig config;
  ExperimentResult a = RunExperiment(pair, seeding, config, 1);
  ExperimentResult b = RunExperiment(pair, seeding, config, 2);
  EXPECT_NE(a.match.seeds, b.match.seeds);
}

TEST(ExperimentTest, RunsAnyRegisteredAlgorithm) {
  RealizationPair pair = MakePair(9011);
  SeedOptions seeding;
  seeding.fraction = 0.1;
  for (const std::string& key : Registry::Global().Keys()) {
    auto reconciler = Registry::Global().CreateOrDie(ReconcilerSpec(key));
    ExperimentResult result = RunExperiment(pair, seeding, *reconciler, 9013);
    EXPECT_GE(result.match.NumLinks(), result.match.seeds.size()) << key;
    EXPECT_GE(result.match_seconds, 0.0) << key;
  }
}

TEST(ExperimentTest, ConfigOverloadMatchesCoreReconciler) {
  RealizationPair pair = MakePair(9015);
  SeedOptions seeding;
  seeding.fraction = 0.1;
  MatcherConfig config;
  config.min_score = 3;
  ExperimentResult direct = RunExperiment(pair, seeding, config, 9017);
  auto reconciler = Registry::Global().CreateOrDie(
      ReconcilerSpec("core").Set("threshold", "3"));
  ExperimentResult via_api = RunExperiment(pair, seeding, *reconciler, 9017);
  EXPECT_EQ(direct.match.map_1to2, via_api.match.map_1to2);
  EXPECT_EQ(direct.quality.new_good, via_api.quality.new_good);
}

}  // namespace
}  // namespace reconcile
