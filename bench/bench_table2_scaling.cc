// Table 2: running time as a function of graph size (RMAT graphs).
//
// Paper setup: RMAT24 (8.9M nodes), RMAT26 (32.8M), RMAT28 (121.2M) as the
// underlying network; copies at s = 0.5; seed link probability 0.10; same
// resources for each run. Paper result (relative running time):
//   RMAT24 -> 1, RMAT26 -> 1.199, RMAT28 -> 12.544.
//
// Here: RMAT at scales 13/15/17 (8k -> 131k nodes, x4 node steps like the
// paper), edge factor 8, one match per scale. Graph generation, sampling
// and seeding happen outside the timed region; only `UserMatching` is
// timed. The shape to check: near-flat cost for the first step,
// superlinear growth appearing at the largest scale. This is a paper
// reproduction, not a perf baseline: perf numbers come from perfbench/.

#include "bench_common.h"
#include "reconcile/core/matcher.h"
#include "reconcile/gen/rmat.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"
#include "reconcile/util/timer.h"

namespace reconcile {
namespace {

void Run() {
  bench::PrintHeader(
      "Table 2 — running time vs RMAT graph size",
      "Table 2 (RMAT24/26/28, s=0.5, l=10%; relative running time)",
      "RMAT scales 13/15/17, edge factor 8, s1=s2=0.5, l=10%, T=2");

  struct Step {
    int scale;
    const char* paper_relative;
  };
  const Step steps[] = {{13, "1"}, {15, "1.199"}, {17, "12.544"}};

  Table table({"scale", "nodes", "edges", "match s", "relative", "paper",
               "emit s", "merge s", "scan s", "select s"});
  double base_seconds = 0.0;
  for (const Step& step : steps) {
    const uint64_t salt = static_cast<uint64_t>(step.scale);
    RmatParams params;
    params.scale = step.scale;
    params.edge_factor = 8.0;
    Graph g = GenerateRmat(params, 0xBE2C0 + salt);
    IndependentSampleOptions sample;
    sample.s1 = sample.s2 = 0.5;
    RealizationPair pair = SampleIndependent(g, sample, 0xBE2C100 + salt);
    SeedOptions seed_options;
    seed_options.fraction = 0.10;
    auto seeds = GenerateSeeds(pair, seed_options, 0xBE2C200 + salt);
    MatcherConfig config;
    config.min_score = 2;

    Timer timer;
    MatchResult result = UserMatching(pair.g1, pair.g2, seeds, config);
    const double seconds = timer.Seconds();
    if (base_seconds == 0.0) base_seconds = seconds;

    const MatchResult::PhaseTimeTotals split = result.SumPhaseSeconds();
    table.AddRow({std::to_string(step.scale), std::to_string(g.num_nodes()),
                  std::to_string(g.num_edges()), FormatDouble(seconds, 3),
                  FormatDouble(seconds / base_seconds, 3), step.paper_relative,
                  FormatDouble(split.emit_seconds, 3),
                  FormatDouble(split.merge_seconds, 3),
                  FormatDouble(split.scan_seconds, 3),
                  FormatDouble(split.select_seconds, 3)});
  }
  table.Print(std::cout);
  std::cout << "\nPaper shape: the first x4 step costs about the same; the "
               "second grows superlinearly.\n\n";
}

}  // namespace
}  // namespace reconcile

int main() { reconcile::Run(); }
