// Selection determinism: `UserMatching` output must be bit-identical across
// every combination of worker-thread count and score-shard count. The
// parallel selection's atomic CAS-max fold is order-independent by
// construction; this randomized grid is the end-to-end safety net.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/core/matcher.h"
#include "reconcile/gen/chung_lu.h"
#include "reconcile/gen/preferential_attachment.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"

namespace reconcile {
namespace {

struct Workload {
  RealizationPair pair;
  std::vector<std::pair<NodeId, NodeId>> seeds;
};

Workload MakeWorkload(uint64_t rng_seed) {
  Graph g = (rng_seed % 2 == 0)
                ? GeneratePreferentialAttachment(1400, 8, rng_seed)
                : GenerateChungLu(PowerLawWeights(1400, 2.5, 14.0),
                                  rng_seed);
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

TEST(SelectionDeterminismTest, IdenticalAcrossThreadsAndShards) {
  for (uint64_t rng_seed : {7001u, 7002u}) {
    SCOPED_TRACE("rng_seed=" + std::to_string(rng_seed));
    Workload w = MakeWorkload(rng_seed);

    MatchResult reference;
    bool have_reference = false;
    for (int threads : {1, 2, 8}) {
      for (int shards : {1, 4, 16}) {
        MatcherConfig config;
        config.num_threads = threads;
        config.num_shards = shards;
        MatchResult result =
            UserMatching(w.pair.g1, w.pair.g2, w.seeds, config);
        if (!have_reference) {
          reference = std::move(result);
          have_reference = true;
          EXPECT_GT(reference.NumNewLinks(), 0u)
              << "workload too easy to detect divergence";
          continue;
        }
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " shards=" + std::to_string(shards));
        ASSERT_EQ(result.map_1to2, reference.map_1to2);
        ASSERT_EQ(result.map_2to1, reference.map_2to1);
      }
    }
  }
}

// The per-round time split must be populated and consistent with the
// whole-round clock.
TEST(SelectionDeterminismTest, PhaseTimeSplitIsPopulated) {
  Workload w = MakeWorkload(7003);
  MatcherConfig config;
  config.num_threads = 2;
  MatchResult result = UserMatching(w.pair.g1, w.pair.g2, w.seeds, config);
  ASSERT_FALSE(result.phases.empty());
  for (const PhaseStats& phase : result.phases) {
    EXPECT_EQ(phase.num_threads, 2);
    EXPECT_GE(phase.emit_seconds, 0.0);
    EXPECT_GE(phase.merge_seconds, 0.0);
    EXPECT_GE(phase.scan_seconds, 0.0);
    EXPECT_GE(phase.select_seconds, 0.0);
    EXPECT_EQ(phase.spill_seconds, 0.0) << "unbudgeted runs never spill";
    EXPECT_LE(phase.emit_seconds + phase.merge_seconds +
                  phase.scan_seconds + phase.select_seconds +
                  phase.spill_seconds,
              phase.seconds + 1e-6);
  }
}

}  // namespace
}  // namespace reconcile
