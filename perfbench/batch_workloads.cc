// Batch workloads: one analyst-style closed loop that runs the full
// User-Matching pipeline through the algorithm registry, again and again on
// the same inputs, until the run's time is spent.
//
//   pa-dense    PA(n=50,000, m=20), s=0.5, 5% seeds, T=2: emission and
//               merge dominate, recall is high.
//   rmat-scan   RMAT scale 16, s=0.5, 5% seeds, T=3: the selection scan
//               dominates and iteration 2 finds few links.
//   rmat-spill  rmat-scan's inputs under a memory budget of a quarter of
//               the workload's own peak resident score bytes.

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "bench.h"
#include "probes.h"
#include "reconcile/eval/metrics.h"
#include "reconcile/gen/preferential_attachment.h"
#include "reconcile/gen/rmat.h"
#include "reconcile/util/timer.h"

namespace perfbench {
namespace {

using reconcile::MatchResult;
using reconcile::NodeId;
using reconcile::Reconciler;
using reconcile::Timer;

// Matcher threads. Two, not all cores: on a shared 4-core host the
// wall-clock spread at four threads is twice that at two.
constexpr int kThreads = 2;
// Matcher runs per benchmark run, at least; more while time remains.
constexpr size_t kMinRuns = 2;
// rmat-spill's budget is its peak resident score bytes over this divisor.
// Every spilled tier is written and fsync'd to the score dir, so spill time
// follows the disk. On a 4-vCPU KVM guest with a shared virtual disk, 1/32
// (~280 tiers, 540 MB a run) spread match time by 20% between seeds; 1/4
// (~50 tiers, 430 MB) by 6-19%, ~30% slower than unbudgeted. 1/2 was no
// steadier: runs at one seed differ as much between processes.
constexpr uint64_t kSpillDivisor = 4;
// A budget no workload reaches: the store reports its resident bytes but
// never spills.
constexpr uint64_t kProbeBudget = uint64_t{1} << 60;

struct BatchSpec {
  bool rmat = false;
  NodeId pa_nodes = 0;
  int pa_m = 0;
  int rmat_scale = 0;
  double sample_s = 0.5;
  double seed_fraction = 0.05;
  int threshold = 2;
  int iterations = 2;
  bool spill = false;
};

BatchSpec SpecFor(const Options& options) {
  BatchSpec spec;
  if (options.workload == "pa-dense") {
    spec.pa_nodes = options.shrink ? 4000 : 50000;
    spec.pa_m = options.shrink ? 10 : 20;
    spec.threshold = 2;
  } else {
    spec.rmat = true;
    spec.rmat_scale = options.shrink ? 12 : 16;
    spec.threshold = 3;
    spec.spill = options.workload == "rmat-spill";
  }
  return spec;
}

// The inputs are a pure function of (spec, seed); see BuildInputs.
Inputs SetUp(const BatchSpec& spec, uint64_t seed, Tracer& tracer,
             SetupTimes* times) {
  const Timer total;
  const ScopedSpan setup(tracer, "setup");
  Inputs in = BuildInputs(
      [&spec] {
        if (!spec.rmat) {
          return reconcile::GeneratePreferentialAttachment(
              spec.pa_nodes, spec.pa_m, kNetworkSeed);
        }
        reconcile::RmatParams params;
        params.scale = spec.rmat_scale;
        return reconcile::GenerateRmat(params, kNetworkSeed);
      },
      spec.sample_s, spec.seed_fraction, seed, tracer, setup.id(), times);
  times->total_s.push_back(total.Seconds());
  return in;
}

// Spill files the store left in `dir` (it must remove them all on return).
int LeftoverSpillFiles(const std::string& dir) {
  int count = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("spill-", 0) == 0 && entry.path().extension() == ".spill") {
      ++count;
    }
  }
  return count;
}

struct MatchRun {
  double wall_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;  // from the start of this run
  bool traced = false;
  MatchResult result;
};

// Index of the run with the median wall time among those with
// `traced == want_traced`; there is at least one (kMinRuns >= 2).
size_t MedianRun(const std::vector<MatchRun>& runs, bool want_traced) {
  std::vector<size_t> idx;
  for (size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].traced == want_traced) idx.push_back(i);
  }
  std::sort(idx.begin(), idx.end(), [&runs](size_t a, size_t b) {
    return runs[a].wall_s < runs[b].wall_s;
  });
  return idx[(idx.size() - 1) / 2];
}

}  // namespace

Outcome RunBatchWorkload(const Options& options, Tracer& tracer) {
  const BatchSpec spec = SpecFor(options);
  Outcome out;

  // --- Set-up, several times; the inputs of every repetition are equal.
  tracer.set_enabled(options.trace);
  SetupTimes setup;
  Inputs in;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    in = SetUp(spec, options.seed, tracer, &setup);
  }

  // Warm-up: one matcher run before timing, so that every timed run finds
  // the allocator and page tables in the same state. (The first run in a
  // process is 5-10% slower; while it was among the timed runs, how many
  // runs fit in the time decided the median.) On rmat-spill the warm-up
  // also derives the budget: run under a budget it never reaches, the
  // store reports the workload's resident score bytes.
  const std::string score_dir = options.work_dir + "/scores";
  std::vector<MatchRun> runs;
  uint64_t first_digest = 0;
  auto check = [&](const MatchResult& result, bool spilled) {
    ++out.attempted;
    std::string fault =
        CheckMatching(result.map_1to2, result.map_2to1, in.seeds);
    const uint64_t digest = MatchingDigest(result.map_1to2);
    if (out.attempted == 1) first_digest = digest;
    if (fault.empty() && digest != first_digest) {
      fault = "matching differs from the warm-up run at the same seed";
    }
    if (fault.empty() && SumRounds(result.phases).new_links <= 0) {
      fault = "the run linked no node beyond the seeds";
    }
    if (fault.empty() && spilled) {
      if (SumRounds(result.phases).tiers_spilled <= 0) {
        fault = "no score tier was spilled under the budget";
      } else if (const int left = LeftoverSpillFiles(score_dir); left > 0) {
        fault = std::to_string(left) + " spill files left in " + score_dir;
      }
    }
    if (!fault.empty()) {
      ++out.failed;
      std::fprintf(stderr, "check failed (run %llu): %s\n",
                   static_cast<unsigned long long>(out.attempted),
                   fault.c_str());
    }
  };
  uint64_t budget = 0;
  double warmup_s = 0;
  {
    const double start = tracer.Now();
    const ScopedSpan span(tracer, "api.Run.warmup");
    const Timer t;
    const MatchResult warmup =
        MakeCoreMatcher(spec.threshold, spec.iterations, kThreads,
                        spec.spill ? kProbeBudget : 0, score_dir)
            ->Run(in.pair.g1, in.pair.g2, in.seeds);
    warmup_s = t.Seconds();
    TraceRounds(tracer, span.id(), start, warmup.phases);
    check(warmup, false);
    if (spec.spill) {
      const double peak = SumRounds(warmup.phases).resident_peak_bytes;
      budget = std::max<uint64_t>(static_cast<uint64_t>(peak) / kSpillDivisor,
                                  uint64_t{1} << 20);
      out.header["resident_score_peak_bytes"] =
          std::to_string(static_cast<uint64_t>(peak));
    }
  }
  out.header["memory_budget_bytes"] = std::to_string(budget);
  out.header["matcher_threads"] = std::to_string(kThreads);
  const std::unique_ptr<Reconciler> matcher =
      MakeCoreMatcher(spec.threshold, spec.iterations, kThreads, budget,
                      score_dir);

  // --- Timed runs. Untraced only, unless tracing: then every second run
  // is traced and the difference is the tracing overhead.
  malloc_trim(0);
  AnonRssSampler rss;
  const Timer loop;
  while (runs.size() < kMinRuns ||
         loop.Seconds() + runs.back().wall_s <= options.seconds) {
    MatchRun run;
    run.traced = options.trace && runs.size() % 2 == 1;
    tracer.set_enabled(run.traced);
    const double start = tracer.Now();
    const int span = tracer.Begin("api.Run");
    rss.TakePeak();
    const double cpu0 = CpuSeconds();
    const Timer wall;
    run.result = matcher->Run(in.pair.g1, in.pair.g2, in.seeds);
    run.wall_s = wall.Seconds();
    run.cpu_s = CpuSeconds() - cpu0;
    run.peak_rss_mb = rss.TakePeak();
    tracer.End(span);
    TraceRounds(tracer, span, start, run.result.phases);
    check(run.result, spec.spill);
    runs.push_back(std::move(run));
  }

  tracer.set_enabled(options.trace);
  const MatchResult& final_result = runs.back().result;
  reconcile::MatchQuality quality;
  double evaluate_s = 0;
  {
    const ScopedSpan span(tracer, "eval.Evaluate");
    const Timer t;
    quality = reconcile::Evaluate(in.pair, final_result);
    evaluate_s = t.Seconds();
  }
  ReportFinal(quality, final_result.map_1to2, &out);

  std::vector<double> walls, cpus, peaks, traced_walls, untraced_walls;
  std::string run_walls;
  for (const MatchRun& run : runs) {
    run_walls += (run_walls.empty() ? "" : " ") + std::to_string(run.wall_s);
    walls.push_back(run.wall_s);
    cpus.push_back(run.cpu_s);
    peaks.push_back(run.peak_rss_mb);
    (run.traced ? traced_walls : untraced_walls).push_back(run.wall_s);
  }
  out.header["run_walls_s"] = run_walls;
  Metrics& e2e = out.end_to_end;
  e2e.Set("setup_s", Median(setup.total_s));
  e2e.Set("match_s", Median(walls));
  e2e.Set("cpu_s", Median(cpus));
  // A batch workload's operation is one whole match.
  e2e.Set("batch_p50_ms", 1e3 * Median(walls));
  e2e.Set("batch_p90_ms", 1e3 * Percentile(walls, 0.9));
  e2e.Set("peak_rss_mb", Median(peaks));

  Metrics& layer = out.per_layer;
  layer.Set("gen.generate_s", Median(setup.generate_s));
  layer.Set("sampling.realize_s", Median(setup.realize_s));
  layer.Set("seed.generate_s", Median(setup.seed_s));
  const MatchRun& rep = runs[MedianRun(runs, options.trace)];
  ReportCoreRun(rep.result.phases, kThreads, rep.wall_s, rep.cpu_s, &layer);
  layer.Set("core.warmup_s", warmup_s);
  layer.Set("eval.evaluate_s", evaluate_s);
  if (!traced_walls.empty() && !untraced_walls.empty()) {
    layer.Set("trace.overhead_pct",
              100.0 * (Median(traced_walls) / Median(untraced_walls) - 1.0));
  }
  return out;
}

}  // namespace perfbench
