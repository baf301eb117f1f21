#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared types of the perfbench benchmark: run options, the metric report
// every workload fills, and the output checks and statistics they share.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "reconcile/api/reconciler.h"
#include "reconcile/core/result.h"
#include "reconcile/eval/metrics.h"
#include "reconcile/graph/graph.h"
#include "reconcile/graph/types.h"
#include "reconcile/sampling/realization.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Small inputs, for the determinism test (benchmark numbers need the
  // full sizes).
  bool shrink = false;
  // Scratch directory: spill files, the delta log, the trace file.
  std::string work_dir;
};

// Seed of every workload's underlying network, of its two sampled copies
// and of its seed links: these are fixed inputs, like a dataset. --seed
// draws what varies between runs: the node numbering of the second copy
// and serve-churn's delta stream. (Generated networks differ in hub
// structure from seed to seed, which moved match time by 15% on RMAT, and
// with the copies and seed links drawn per seed RMAT's non-seed recall
// spread 24-40% between seeds.)
inline constexpr uint64_t kNetworkSeed = 1;
// Set-up runs this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 5;

// Metric values by name. BENCHMARK.json holds the names' units; run.py
// adds them, and reports 0 for a per-layer metric a workload never sets
// (that workload does not exercise the layer).
class Metrics {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  const std::map<std::string, double>& values() const { return values_; }

 private:
  std::map<std::string, double> values_;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;  // operations: matcher runs or serve batches
  uint64_t failed = 0;     // operations whose output checks failed
  Metrics end_to_end;
  Metrics per_layer;
  // Determinism self-check: identical at a fixed seed on every run.
  uint64_t digest = 0;
  double precision = 0;
  double recall = 0;
  // Run-specific header fields (e.g. the derived memory budget).
  std::map<std::string, std::string> header;
};

// The matcher's inputs: two sampled copies of a network, and seed links.
struct Inputs {
  reconcile::RealizationPair pair;
  std::vector<std::pair<reconcile::NodeId, reconcile::NodeId>> seeds;
};

// Set-up times in seconds, one entry per repetition.
struct SetupTimes {
  std::vector<double> generate_s, realize_s, seed_s, total_s;
};

// Builds the underlying network with `generate`, samples two copies that
// keep each edge with probability `keep`, renumbers the second copy's nodes
// by a permutation drawn from `label_seed`, and draws a `seed_fraction` of
// uniform seed links. The sampler gets kNetworkSeed + 1 and the seeder
// kNetworkSeed + 3, as `reconcile_cli --rng-seed` gives its seed + 1 and + 3;
// uniform seed links depend only on g1's nodes, so they are the same links
// under any numbering. Each step is timed into *times and traced under
// `parent`.
Inputs BuildInputs(const std::function<reconcile::Graph()>& generate,
                   double keep, double seed_fraction, uint64_t seed,
                   Tracer& tracer, int parent, SetupTimes* times);

// The core User-Matching algorithm through the registry, as reconcile_cli
// builds it. A nonzero `budget` caps the resident score bytes and spills the
// rest under `score_dir`.
std::unique_ptr<reconcile::Reconciler> MakeCoreMatcher(
    int threshold, int iterations, int threads, uint64_t budget = 0,
    const std::string& score_dir = "");

// Fills the outcome's determinism fields and its precision, recall (over
// identifiable non-seed targets) and ok_ops_frac from the final matching;
// correct means no check failed.
void ReportFinal(const reconcile::MatchQuality& quality,
                 const std::vector<reconcile::NodeId>& map_1to2,
                 Outcome* out);

Outcome RunBatchWorkload(const Options& options, Tracer& tracer);
Outcome RunServeChurn(const Options& options, Tracer& tracer);

// Checks that the maps are one-to-one and mutually inverse, and that every
// seed is kept. Returns an empty string when they are, else the first fault.
std::string CheckMatching(
    const std::vector<reconcile::NodeId>& map_1to2,
    const std::vector<reconcile::NodeId>& map_2to1,
    std::span<const std::pair<reconcile::NodeId, reconcile::NodeId>> seeds);

// FNV-1a over the g1 -> g2 map: equal digests mean equal matchings.
uint64_t MatchingDigest(const std::vector<reconcile::NodeId>& map_1to2);

// Median and linearly interpolated percentile (q in [0, 1]); 0 when empty.
double Median(std::vector<double> values);
double Percentile(std::vector<double> values, double q);

// Whole-run sums of the per-round counters the per-layer report uses.
struct RoundTotals {
  double emit_s = 0, merge_s = 0, scan_s = 0, select_s = 0;
  double iter2_s = 0;
  double emissions = 0, pairs_scanned = 0, new_links = 0, iter2_new_links = 0;
  double tiers_spilled = 0;
  double resident_peak_bytes = 0, spilled_peak_bytes = 0;
};
RoundTotals SumRounds(const std::vector<reconcile::PhaseStats>& rounds);

// Fills the core.* and util.* per-layer metrics from one matcher run on
// `threads` threads that took `wall_s` wall-clock and `cpu_s` CPU seconds.
void ReportCoreRun(const std::vector<reconcile::PhaseStats>& rounds,
                   int threads, double wall_s, double cpu_s,
                   Metrics* per_layer);

// Records each round as a child span of `parent`, laid end to end from
// `start_s` (rounds carry durations, not timestamps).
void TraceRounds(Tracer& tracer, int parent, double start_s,
                 const std::vector<reconcile::PhaseStats>& rounds);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
