// Hub-heavy skew benchmark (google-benchmark): end-to-end matching on a
// power-law Chung-Lu pair whose witness emission is dominated by a few hub
// links — a hub link (a1, a2) emits ~deg(a1)·deg(a2) candidate pairs, so
// with fixed chunking whichever worker drew the hub chunk would serialize
// the round (the imbalance Wakita & Tsurumi describe for mega-scale social
// graphs); the work-stealing loop rebalances it. The series runs at a fixed
// thread count; read `emit_s` for the emission phase under skew, and
// `merge_s` for the LSM tier store.
//
// Top-degree-biased seeds put the hubs into the witness set from round one,
// so the skew is live in every measured round. `tools/run_bench.sh`
// captures this harness as BENCH_skew.json.

#include <benchmark/benchmark.h>

#include "bench_main.h"
#include "reconcile/core/matcher.h"
#include "reconcile/gen/chung_lu.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"

namespace reconcile {
namespace {

// Exponent 2.1 is deep in the heavy-tail regime: the top node's degree is
// within an order of magnitude of n, so per-link emission cost spans ~4
// decades across the witness set.
RealizationPair MakeSkewPair() {
  std::vector<double> weights = PowerLawWeights(24000, 2.1, 16.0);
  Graph g = GenerateChungLu(weights, 0x5CE11);
  IndependentSampleOptions sample;
  sample.s1 = sample.s2 = 0.6;
  return SampleIndependent(g, sample, 0x5CE12);
}

void BM_SkewMatchStealingRadix(benchmark::State& state) {
  static const RealizationPair& pair = *new RealizationPair(MakeSkewPair());
  SeedOptions seed_options;
  seed_options.bias = SeedBias::kTopDegree;
  seed_options.fixed_count = 400;
  auto seeds = GenerateSeeds(pair, seed_options, 0x5CE13);

  MatcherConfig config;
  config.num_threads = 4;
  MatchResult::PhaseTimeTotals split;
  for (auto _ : state) {
    MatchResult result = UserMatching(pair.g1, pair.g2, seeds, config);
    benchmark::DoNotOptimize(result.NumLinks());
    split = result.SumPhaseSeconds();
  }
  state.counters["emit_s"] = split.emit_seconds;
  state.counters["merge_s"] = split.merge_seconds;
  state.counters["scan_s"] = split.scan_seconds;
  state.counters["select_s"] = split.select_seconds;
}

BENCHMARK(BM_SkewMatchStealingRadix)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace reconcile

RECONCILE_BENCHMARK_MAIN();
