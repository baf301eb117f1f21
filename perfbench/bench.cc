#include "bench.h"

#include <algorithm>
#include <cmath>

#include "reconcile/api/registry.h"
#include "reconcile/graph/edge_list.h"
#include "reconcile/graph/permutation.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"
#include "reconcile/util/rng.h"
#include "reconcile/util/timer.h"

namespace perfbench {

using reconcile::kInvalidNode;
using reconcile::NodeId;
using reconcile::PhaseStats;

namespace {

// Renumbers g2's nodes by a uniform permutation drawn from `seed`; the
// ground-truth maps follow, so every node keeps its counterpart.
void RelabelSecondCopy(uint64_t seed, reconcile::RealizationPair* pair) {
  const NodeId n = pair->g2.num_nodes();
  reconcile::Rng rng(seed);
  const std::vector<NodeId> perm = reconcile::RandomPermutation(n, &rng);
  reconcile::EdgeList edges(n);
  edges.Reserve(pair->g2.num_edges());
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : pair->g2.Neighbors(u)) {
      if (u < v) edges.Add(perm[u], perm[v]);
    }
  }
  pair->g2 = reconcile::Graph::FromEdgeList(std::move(edges));
  std::vector<NodeId> map_2to1(n, kInvalidNode);
  for (NodeId& v : pair->map_1to2) {
    if (v == kInvalidNode) continue;
    map_2to1[perm[v]] = pair->map_2to1[v];
    v = perm[v];
  }
  pair->map_2to1 = std::move(map_2to1);
}

}  // namespace

Inputs BuildInputs(const std::function<reconcile::Graph()>& generate,
                   double keep, double seed_fraction, uint64_t label_seed,
                   Tracer& tracer, int parent, SetupTimes* times) {
  Inputs in;
  reconcile::Graph underlying;
  {
    const ScopedSpan span(tracer, "gen.generate", parent);
    const reconcile::Timer t;
    underlying = generate();
    times->generate_s.push_back(t.Seconds());
  }
  {
    const ScopedSpan span(tracer, "sampling.realize", parent);
    const reconcile::Timer t;
    reconcile::IndependentSampleOptions sample;
    sample.s1 = keep;
    sample.s2 = keep;
    in.pair =
        reconcile::SampleIndependent(underlying, sample, kNetworkSeed + 1);
    RelabelSecondCopy(label_seed, &in.pair);
    times->realize_s.push_back(t.Seconds());
  }
  {
    const ScopedSpan span(tracer, "seed.generate", parent);
    const reconcile::Timer t;
    reconcile::SeedOptions seeding;
    seeding.fraction = seed_fraction;
    in.seeds = reconcile::GenerateSeeds(in.pair, seeding, kNetworkSeed + 3);
    times->seed_s.push_back(t.Seconds());
  }
  return in;
}

std::unique_ptr<reconcile::Reconciler> MakeCoreMatcher(
    int threshold, int iterations, int threads, uint64_t budget,
    const std::string& score_dir) {
  reconcile::ReconcilerSpec spec("core");
  spec.Set("threshold", std::to_string(threshold))
      .Set("iterations", std::to_string(iterations))
      .Set("threads", std::to_string(threads));
  if (budget > 0) {
    spec.Set("memory-budget", std::to_string(budget))
        .Set("score-dir", score_dir);
  }
  return reconcile::Registry::Global().CreateOrDie(spec);
}

void ReportFinal(const reconcile::MatchQuality& quality,
                 const std::vector<NodeId>& map_1to2, Outcome* out) {
  out->correct = out->failed == 0;
  out->digest = MatchingDigest(map_1to2);
  out->precision = quality.precision;
  out->recall = quality.recall_new;
  out->end_to_end.Set("precision", out->precision);
  out->end_to_end.Set("recall", out->recall);
  out->end_to_end.Set("ok_ops_frac",
                      static_cast<double>(out->attempted - out->failed) /
                          static_cast<double>(out->attempted));
}

std::string CheckMatching(const std::vector<NodeId>& map_1to2,
                          const std::vector<NodeId>& map_2to1,
                          std::span<const std::pair<NodeId, NodeId>> seeds) {
  for (size_t u = 0; u < map_1to2.size(); ++u) {
    const NodeId v = map_1to2[u];
    if (v == kInvalidNode) continue;
    if (v >= map_2to1.size() || map_2to1[v] != u) {
      return "g1 node " + std::to_string(u) + " -> " + std::to_string(v) +
             " has no inverse link";
    }
  }
  for (size_t v = 0; v < map_2to1.size(); ++v) {
    const NodeId u = map_2to1[v];
    if (u == kInvalidNode) continue;
    if (u >= map_1to2.size() || map_1to2[u] != v) {
      return "g2 node " + std::to_string(v) + " -> " + std::to_string(u) +
             " has no inverse link";
    }
  }
  for (const auto& [a, b] : seeds) {
    if (a >= map_1to2.size() || map_1to2[a] != b) {
      return "seed (" + std::to_string(a) + ", " + std::to_string(b) +
             ") was not kept";
    }
  }
  return "";
}

uint64_t MatchingDigest(const std::vector<NodeId>& map_1to2) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const NodeId v : map_1to2) {
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (static_cast<uint64_t>(v) >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

RoundTotals SumRounds(const std::vector<PhaseStats>& rounds) {
  RoundTotals t;
  for (const PhaseStats& r : rounds) {
    t.emit_s += r.emit_seconds;
    t.merge_s += r.merge_seconds;
    t.scan_s += r.scan_seconds;
    t.select_s += r.select_seconds;
    t.emissions += static_cast<double>(r.emissions);
    t.pairs_scanned += static_cast<double>(r.candidate_pairs);
    t.new_links += static_cast<double>(r.new_links);
    if (r.iteration == 2) {
      t.iter2_s += r.seconds;
      t.iter2_new_links += static_cast<double>(r.new_links);
    }
    t.tiers_spilled += static_cast<double>(r.tiers_spilled);
    t.resident_peak_bytes = std::max(
        t.resident_peak_bytes, static_cast<double>(r.resident_score_bytes));
    t.spilled_peak_bytes = std::max(
        t.spilled_peak_bytes, static_cast<double>(r.spilled_score_bytes));
  }
  return t;
}

void ReportCoreRun(const std::vector<PhaseStats>& rounds, int threads,
                   double wall_s, double cpu_s, Metrics* per_layer) {
  const RoundTotals t = SumRounds(rounds);
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  constexpr double kMiB = 1024.0 * 1024.0;
  Metrics& m = *per_layer;
  m.Set("core.run_s", wall_s);
  m.Set("core.emit_s", t.emit_s);
  m.Set("core.merge_s", t.merge_s);
  m.Set("core.scan_s", t.scan_s);
  m.Set("core.select_s", t.select_s);
  // The unaccounted remainder: unit bookkeeping, pool start-up, spill
  // enforcement. The five phases sum to core.run_s exactly.
  m.Set("core.other_s", wall_s - t.emit_s - t.merge_s - t.scan_s - t.select_s);
  m.Set("core.emissions", t.emissions);
  m.Set("core.emit_keys_per_s", ratio(t.emissions, t.emit_s));
  m.Set("core.pairs_scanned", t.pairs_scanned);
  m.Set("core.scan_pairs_per_s", ratio(t.pairs_scanned, t.scan_s));
  m.Set("core.links_per_mpair", ratio(t.new_links, t.pairs_scanned / 1e6));
  m.Set("core.iter2_s", t.iter2_s);
  m.Set("core.iter2_new_links", t.iter2_new_links);
  m.Set("core.rounds", static_cast<double>(rounds.size()));
  m.Set("core.new_links", t.new_links);
  m.Set("util.parallel_eff", ratio(cpu_s, wall_s * threads));
  m.Set("util.tiers_spilled", t.tiers_spilled);
  m.Set("util.spilled_mb", t.spilled_peak_bytes / kMiB);
  m.Set("util.resident_score_peak_mb", t.resident_peak_bytes / kMiB);
}

void TraceRounds(Tracer& tracer, int parent, double start_s,
                 const std::vector<PhaseStats>& rounds) {
  if (parent < 0) return;
  for (const PhaseStats& r : rounds) {
    tracer.Add("round", start_s, r.seconds, parent,
               {{"iteration", r.iteration},
                {"bucket_exponent", r.bucket_exponent},
                {"emit_s", r.emit_seconds},
                {"merge_s", r.merge_seconds},
                {"scan_s", r.scan_seconds},
                {"select_s", r.select_seconds},
                {"emissions", static_cast<double>(r.emissions)},
                {"pairs_scanned", static_cast<double>(r.candidate_pairs)},
                {"new_links", static_cast<double>(r.new_links)},
                {"tiers_spilled", static_cast<double>(r.tiers_spilled)},
                {"resident_score_bytes",
                 static_cast<double>(r.resident_score_bytes)},
                {"spilled_score_bytes",
                 static_cast<double>(r.spilled_score_bytes)}});
    start_s += r.seconds;
  }
}

}  // namespace perfbench
