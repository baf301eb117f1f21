// serve-churn: an operator's reconcile_serve session. After the initial full
// match, one closed-loop client streams delta batches from a delta log:
// each batch deletes a set of peripheral edges (both endpoints of degree
// <= 6) and the next re-inserts it, so the graphs return to their start
// after every pair and the stream can be replayed while time remains.
//
// The session (network, sampled copies, seed links) is fixed, like a
// deployment; --seed draws the delta stream. On a 6,000-node graph the
// sampled copies and seed links alone moved recall by 29% and p90 batch
// latency by 2x from seed to seed, which would drown the traffic's signal.
//
//   Chung-Lu n=6,000, exponent 2.3, average degree 12, s=0.6, 5% seeds,
//   T=2, one matcher thread; 120 batches of 32 deltas per stream.

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench.h"
#include "probes.h"
#include "reconcile/eval/metrics.h"
#include "reconcile/gen/chung_lu.h"
#include "reconcile/graph/edge_list.h"
#include "reconcile/serve/delta_log.h"
#include "reconcile/serve/incremental_matcher.h"
#include "reconcile/util/rng.h"
#include "reconcile/util/timer.h"

namespace perfbench {
namespace {

using reconcile::EdgeDelta;
using reconcile::Graph;
using reconcile::IncrementalMatcher;
using reconcile::MatchResult;
using reconcile::NodeId;
using reconcile::RealizationPair;
using reconcile::ServeBatchStats;
using reconcile::Timer;

// Edges whose endpoints both have at most this degree are peripheral.
constexpr NodeId kPeripheralDegree = 6;
// One matcher thread. A batch is ~0.1 s of short parallel phases, each
// ending at a barrier, so a stolen vCPU stalls both threads: on a 4-vCPU
// KVM guest with 3-6% steal, two threads spread stream time and p90 latency
// by 12-30% between runs, one thread by 2-4%, at 1.3x the stream time.
constexpr int kThreads = 1;
constexpr uint32_t kThreshold = 2;
constexpr int kIterations = 2;

struct ServeSpec {
  NodeId nodes = 6000;
  double exponent = 2.3;
  double avg_degree = 12;
  double sample_s = 0.6;
  double seed_fraction = 0.05;
  int churn_sets = 60;  // each set is two batches: delete, then re-insert
  int deltas_per_batch = 32;
};

ServeSpec SpecFor(const Options& options) {
  ServeSpec spec;
  if (options.shrink) {
    spec.nodes = 1500;
    spec.churn_sets = 50;
    spec.deltas_per_batch = 8;
  }
  return spec;
}

struct Session {
  Inputs in;
  std::unique_ptr<IncrementalMatcher> matcher;
};

struct ServeSetupTimes : SetupTimes {
  std::vector<double> initial_match_s;
};

reconcile::ServeConfig MakeServeConfig() {
  reconcile::ServeConfig config;
  config.matcher.min_score = kThreshold;
  config.matcher.num_iterations = kIterations;
  config.matcher.num_threads = kThreads;
  return config;
}

std::vector<std::pair<NodeId, NodeId>> PeripheralEdges(const Graph& g) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (g.degree(u) > kPeripheralDegree) continue;
    for (const NodeId v : g.Neighbors(u)) {
      if (u < v && g.degree(v) <= kPeripheralDegree) edges.emplace_back(u, v);
    }
  }
  return edges;
}

// Writes the churn stream as a checksummed delta log: per set, a batch of
// deletes of distinct peripheral edges (half from each graph), then a batch
// re-inserting them. Returns false with *error set on failure.
bool WriteChurnLog(const RealizationPair& pair, const ServeSpec& spec,
                   uint64_t seed, const std::string& path,
                   std::string* error) {
  const std::vector<std::pair<NodeId, NodeId>> peripheral[2] = {
      PeripheralEdges(pair.g1), PeripheralEdges(pair.g2)};
  const size_t per_graph[2] = {
      static_cast<size_t>(spec.deltas_per_batch) / 2,
      static_cast<size_t>(spec.deltas_per_batch -
                          spec.deltas_per_batch / 2)};
  std::vector<size_t> order[2];
  for (int g = 0; g < 2; ++g) {
    if (peripheral[g].size() < per_graph[g]) {
      *error = "graph " + std::to_string(g + 1) + " has only " +
               std::to_string(peripheral[g].size()) + " peripheral edges";
      return false;
    }
    for (size_t i = 0; i < peripheral[g].size(); ++i) order[g].push_back(i);
  }
  std::ofstream log(path);
  if (!log) {
    *error = "cannot write " + path;
    return false;
  }
  reconcile::Rng rng(seed);
  std::vector<EdgeDelta> set;
  for (int s = 0; s < spec.churn_sets; ++s) {
    set.clear();
    for (int g = 0; g < 2; ++g) {
      // Partial Fisher-Yates: the first per_graph[g] slots become a fresh
      // uniform draw of distinct edges.
      std::vector<size_t>& idx = order[g];
      for (size_t i = 0; i < per_graph[g]; ++i) {
        std::swap(idx[i], idx[i + rng.UniformInt(idx.size() - i)]);
        const auto [u, v] = peripheral[g][idx[i]];
        set.push_back(EdgeDelta{g + 1, false, u, v});
      }
    }
    for (const bool insert : {false, true}) {
      for (EdgeDelta d : set) {
        d.insert = insert;
        log << reconcile::FormatDeltaRecord(d) << "\n";
      }
      log << "commit\n";
    }
  }
  log.close();
  if (!log) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

// Generate, realize, seed, write the delta log and run the initial full
// match. Every input of the session comes from kNetworkSeed, the second
// copy's numbering included; the delta stream is a pure function of --seed.
bool SetUp(const ServeSpec& spec, const Options& options,
           const std::string& log_path, Tracer& tracer, ServeSetupTimes* times,
           Session* session, std::string* error) {
  const Timer total;
  const ScopedSpan setup(tracer, "setup");
  session->in = BuildInputs(
      [&spec] {
        return reconcile::GenerateChungLu(
            reconcile::PowerLawWeights(spec.nodes, spec.exponent,
                                       spec.avg_degree),
            kNetworkSeed);
      },
      spec.sample_s, spec.seed_fraction, kNetworkSeed, tracer, setup.id(),
      times);
  {
    const ScopedSpan span(tracer, "serve.write_log", setup.id());
    if (!WriteChurnLog(session->in.pair, spec, options.seed, log_path,
                       error)) {
      return false;
    }
  }
  {
    const ScopedSpan span(tracer, "serve.initial_match", setup.id());
    const Timer t;
    session->matcher = std::make_unique<IncrementalMatcher>(
        session->in.pair.g1, session->in.pair.g2, session->in.seeds,
        MakeServeConfig());
    session->matcher->ApplyBatch({});
    times->initial_match_s.push_back(t.Seconds());
  }
  times->total_s.push_back(total.Seconds());
  return true;
}

struct BatchSample {
  double latency_s = 0;
  double read_s = 0;
  bool traced = false;
  ServeBatchStats stats;
};

struct Rerun {
  MatchResult result;
  double wall_s = 0;
  double cpu_s = 0;
};

// `g` without the edges that `deltas` delete from graph `which` (1 or 2).
Graph WithoutDeleted(const Graph& g, int which,
                     const std::vector<EdgeDelta>& deltas) {
  std::set<std::pair<NodeId, NodeId>> removed;
  for (const EdgeDelta& d : deltas) {
    if (d.graph == which && !d.insert) {
      removed.emplace(std::min(d.u, d.v), std::max(d.u, d.v));
    }
  }
  reconcile::EdgeList edges(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const NodeId v : g.Neighbors(u)) {
      if (u < v && removed.count({u, v}) == 0) edges.Add(u, v);
    }
  }
  return Graph::FromEdgeList(std::move(edges));
}

struct StreamTotals {
  double wall_s = 0;
  double cpu_s = 0;
};

// Streams the delta log through the session once. Every batch's output is
// checked; faults count in out->failed.
bool RunStream(const std::string& log_path, const Options& options,
               Session& session, Tracer& tracer,
               std::vector<BatchSample>* samples, StreamTotals* totals,
               Outcome* out, std::string* error) {
  reconcile::DeltaReader reader;
  if (!reader.Open(log_path, error)) return false;
  tracer.set_enabled(options.trace);
  const int stream_span = tracer.Begin("serve.stream");
  const double cpu0 = CpuSeconds();
  const Timer wall;
  std::vector<EdgeDelta> deltas;
  for (size_t batch = 0;; ++batch) {
    BatchSample sample;
    // Delete/insert pairs alternate between untraced and traced.
    sample.traced = options.trace && (batch / 2) % 2 == 1;
    tracer.set_enabled(sample.traced);
    bool end_of_stream = false;
    {
      const ScopedSpan span(tracer, "serve.DeltaLog.read", stream_span);
      const Timer t;
      if (!reader.NextBatch(0, &deltas, &end_of_stream, error)) return false;
      sample.read_s = t.Seconds();
    }
    if (deltas.empty()) break;
    const double start = tracer.Now();
    const int span = tracer.Begin("serve.ApplyBatch", stream_span);
    const Timer t;
    sample.stats = session.matcher->ApplyBatch(deltas);
    sample.latency_s = t.Seconds();
    tracer.End(span);
    const ServeBatchStats& s = sample.stats;
    tracer.Annotate(
        span, {{"deltas_applied", static_cast<double>(s.deltas_applied)},
               {"dirty_links", static_cast<double>(s.dirty_links)},
               {"rescored_units", static_cast<double>(s.rescored_units)},
               {"replayed_rounds", s.replayed_rounds},
               {"skipped_rounds", s.skipped_rounds},
               {"links_added", static_cast<double>(s.links_added)},
               {"links_removed", static_cast<double>(s.links_removed)}});
    TraceRounds(tracer, span, start, s.rounds);

    ++out->attempted;
    const std::string fault =
        CheckMatching(session.matcher->map_1to2(), session.matcher->map_2to1(),
                      session.in.seeds);
    if (!fault.empty()) {
      ++out->failed;
      std::fprintf(stderr, "check failed (batch %zu): %s\n", batch + 1,
                   fault.c_str());
    }
    samples->push_back(std::move(sample));
    if (end_of_stream) break;
  }
  totals->wall_s = wall.Seconds();
  totals->cpu_s = CpuSeconds() - cpu0;
  tracer.set_enabled(options.trace);
  tracer.End(stream_span);
  return true;
}

}  // namespace

Outcome RunServeChurn(const Options& options, Tracer& tracer) {
  const ServeSpec spec = SpecFor(options);
  const std::string log_path = options.work_dir + "/churn.log";
  Outcome out;
  std::string error;

  // --- Set-up, several times; the sessions of every repetition are equal.
  tracer.set_enabled(options.trace);
  ServeSetupTimes setup;
  Session session;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Session next;
    if (!SetUp(spec, options, log_path, tracer, &setup, &next, &error)) {
      std::fprintf(stderr, "serve-churn set-up failed: %s\n", error.c_str());
      out.correct = false;
      return out;
    }
    session = std::move(next);
  }

  // --- Measured loop: whole streams, at least one.
  malloc_trim(0);
  AnonRssSampler rss;
  std::vector<BatchSample> samples;
  std::vector<double> stream_walls, stream_cpus, stream_peaks;
  const Timer loop;
  while (stream_walls.empty() ||
         loop.Seconds() + stream_walls.back() <= options.seconds) {
    StreamTotals totals;
    rss.TakePeak();
    if (!RunStream(log_path, options, session, tracer, &samples, &totals,
                   &out, &error)) {
      std::fprintf(stderr, "delta stream failed: %s\n", error.c_str());
      out.correct = false;
      return out;
    }
    stream_walls.push_back(totals.wall_s);
    stream_cpus.push_back(totals.cpu_s);
    stream_peaks.push_back(rss.TakePeak());
  }

  // --- Checks, outside the timing: the served matching must equal a
  // from-scratch run after one batch that deletes every edge the log
  // deletes (one of the log's own batches moves no link), and again after
  // the batch that re-inserts them. The expected graphs are built here from
  // the session's inputs, not read back from the matcher. The second rerun
  // is timed: it is the alternative to repair.
  std::vector<EdgeDelta> deleted, reinserted;
  {
    reconcile::DeltaReader reader;
    if (!reader.Open(log_path, &error)) {
      std::fprintf(stderr, "delta stream failed: %s\n", error.c_str());
      out.correct = false;
      return out;
    }
    std::set<std::tuple<int, NodeId, NodeId>> edges;
    std::vector<EdgeDelta> batch;
    for (bool end_of_stream = false; !end_of_stream;) {
      if (!reader.NextBatch(0, &batch, &end_of_stream, &error)) {
        std::fprintf(stderr, "delta stream failed: %s\n", error.c_str());
        out.correct = false;
        return out;
      }
      for (const EdgeDelta& d : batch) {
        if (!d.insert) edges.emplace(d.graph, d.u, d.v);
      }
    }
    for (const auto& [graph, u, v] : edges) {
      deleted.push_back(EdgeDelta{graph, false, u, v});
      reinserted.push_back(EdgeDelta{graph, true, u, v});
    }
  }
  const auto batch_matcher = MakeCoreMatcher(kThreshold, kIterations, kThreads);
  auto rerun_and_compare = [&](const Graph& g1, const Graph& g2,
                               const char* when) {
    Rerun rerun;
    const double start = tracer.Now();
    const int span = tracer.Begin("serve.rerun");
    const double cpu0 = CpuSeconds();
    const Timer t;
    rerun.result = batch_matcher->Run(g1, g2, session.in.seeds);
    rerun.wall_s = t.Seconds();
    rerun.cpu_s = CpuSeconds() - cpu0;
    tracer.End(span);
    TraceRounds(tracer, span, start, rerun.result.phases);
    ++out.attempted;
    if (rerun.result.map_1to2 != session.matcher->map_1to2() ||
        rerun.result.map_2to1 != session.matcher->map_2to1()) {
      ++out.failed;
      std::fprintf(stderr,
                   "check failed: served matching %s differs from a "
                   "from-scratch run\n",
                   when);
    }
    return rerun;
  };
  tracer.set_enabled(options.trace);
  session.matcher->ApplyBatch(deleted);
  const Rerun after_delete = rerun_and_compare(
      WithoutDeleted(session.in.pair.g1, 1, deleted),
      WithoutDeleted(session.in.pair.g2, 2, deleted),
      "after deleting the logged edges");
  session.matcher->ApplyBatch(reinserted);
  const Rerun final_rerun = rerun_and_compare(
      session.in.pair.g1, session.in.pair.g2, "after the stream");
  const MatchResult& rerun = final_rerun.result;
  const double rerun_s = final_rerun.wall_s;
  // How much the delete moved the matching: with 0 the check could not
  // tell a repair from one that ignored its deltas.
  size_t delete_changed = 0;
  for (size_t u = 0; u < rerun.map_1to2.size(); ++u) {
    delete_changed += rerun.map_1to2[u] != after_delete.result.map_1to2[u];
  }
  out.header["delete_check_links_changed"] = std::to_string(delete_changed);

  const MatchResult served = session.matcher->Result();
  reconcile::MatchQuality quality;
  double evaluate_s = 0;
  {
    const ScopedSpan span(tracer, "eval.Evaluate");
    const Timer t;
    quality = reconcile::Evaluate(session.in.pair, served);
    evaluate_s = t.Seconds();
  }
  ReportFinal(quality, served.map_1to2, &out);
  out.header["matcher_threads"] = std::to_string(kThreads);

  std::vector<double> latencies, traced_latencies, untraced_latencies;
  std::vector<const BatchSample*> layer_samples;
  for (const BatchSample& s : samples) {
    latencies.push_back(s.latency_s);
    (s.traced ? traced_latencies : untraced_latencies).push_back(s.latency_s);
    if (s.traced == options.trace) layer_samples.push_back(&s);
  }
  const double p50_s = Median(latencies);
  Metrics& e2e = out.end_to_end;
  e2e.Set("setup_s", Median(setup.total_s));
  e2e.Set("match_s", Median(stream_walls));
  e2e.Set("cpu_s", Median(stream_cpus));
  e2e.Set("batch_p50_ms", 1e3 * p50_s);
  e2e.Set("batch_p90_ms", 1e3 * Percentile(latencies, 0.9));
  e2e.Set("peak_rss_mb", Median(stream_peaks));

  Metrics& layer = out.per_layer;
  layer.Set("gen.generate_s", Median(setup.generate_s));
  layer.Set("sampling.realize_s", Median(setup.realize_s));
  layer.Set("seed.generate_s", Median(setup.seed_s));
  // core.* describe the from-scratch rerun; util.parallel_eff the stream.
  ReportCoreRun(rerun.phases, kThreads, rerun_s, final_rerun.cpu_s, &layer);
  layer.Set("util.parallel_eff",
            Median(stream_cpus) / (Median(stream_walls) * kThreads));
  layer.Set("serve.initial_match_s", Median(setup.initial_match_s));
  // Per-batch means over the batches the per-layer report describes.
  auto mean = [&layer_samples](auto&& value_of) {
    double sum = 0;
    for (const BatchSample* s : layer_samples) sum += value_of(*s);
    return layer_samples.empty() ? 0 : sum / layer_samples.size();
  };
  auto phase_mean = [&mean](double reconcile::PhaseStats::*field) {
    return mean([field](const BatchSample& s) {
      double sum = 0;
      for (const reconcile::PhaseStats& r : s.stats.rounds) sum += r.*field;
      return sum;
    });
  };
  const double emit_s = phase_mean(&reconcile::PhaseStats::emit_seconds);
  const double merge_s = phase_mean(&reconcile::PhaseStats::merge_seconds);
  const double scan_s = phase_mean(&reconcile::PhaseStats::scan_seconds);
  const double select_s = phase_mean(&reconcile::PhaseStats::select_seconds);
  const double latency_s =
      mean([](const BatchSample& s) { return s.latency_s; });
  layer.Set("serve.emit_s", emit_s);
  layer.Set("serve.merge_s", merge_s);
  layer.Set("serve.scan_s", scan_s);
  layer.Set("serve.select_s", select_s);
  // Retraction, re-emission, stamp compaction and overlay upkeep.
  layer.Set("serve.other_s", latency_s - emit_s - merge_s - scan_s - select_s);
  layer.Set("serve.dirty_links_mean", mean([](const BatchSample& s) {
              return static_cast<double>(s.stats.dirty_links);
            }));
  layer.Set("serve.rescored_units_mean", mean([](const BatchSample& s) {
              return static_cast<double>(s.stats.rescored_units);
            }));
  layer.Set("serve.replayed_rounds_mean", mean([](const BatchSample& s) {
              return static_cast<double>(s.stats.replayed_rounds);
            }));
  layer.Set("serve.skipped_rounds_mean", mean([](const BatchSample& s) {
              return static_cast<double>(s.stats.skipped_rounds);
            }));
  layer.Set("serve.delta_read_s",
            mean([](const BatchSample& s) { return s.read_s; }));
  layer.Set("serve.rerun_s", rerun_s);
  layer.Set("serve.repair_speedup", p50_s > 0 ? rerun_s / p50_s : 0);
  layer.Set("eval.evaluate_s", evaluate_s);
  if (!traced_latencies.empty() && !untraced_latencies.empty()) {
    layer.Set("trace.overhead_pct",
              100.0 * (Median(traced_latencies) / Median(untraced_latencies) -
                       1.0));
  }
  return out;
}

}  // namespace perfbench
