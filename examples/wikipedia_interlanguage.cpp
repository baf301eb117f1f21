// Inter-language article alignment — the paper's most adversarial "real
// world" scenario (§5, Table 5 bottom): two networks that were never copies
// of a common source, French and German Wikipedia, connected only by a
// sparse set of human-curated inter-language links.
//
// The two link graphs have different sizes (4.36M vs 2.85M articles in the
// paper), only partial conceptual overlap, and independent editing noise.
// Starting from 10% of the inter-language links, the paper nearly triples
// the number of links at a 17.5% new-link error rate — and notes that many
// "errors" are near-misses (e.g. the French article on Lee Harvey Oswald
// mapped to the German article on the Kennedy assassination).
//
// This example reproduces the pipeline on the Wikipedia-like stand-in
// (asymmetric node deletion + per-copy edge noise; DESIGN.md §3), then
// demonstrates the application: growing an inter-language link table, with
// a confidence split the curators could review.
//
// Build & run:  ./build/examples/wikipedia_interlanguage

#include <cstdio>
#include <vector>

#include "reconcile/core/matcher.h"
#include "reconcile/core/witness.h"
#include "reconcile/eval/datasets.h"
#include "reconcile/eval/metrics.h"
#include "reconcile/seed/seeding.h"

int main() {
  using namespace reconcile;

  // Two language editions with partial overlap (FR keeps ~80% of the
  // underlying concept graph, DE ~55%) and independent noise edges.
  RealizationPair pair = MakeWikipediaPair(/*scale=*/0.15, 2026);
  std::printf("French-like edition: %u articles, %zu links\n",
              pair.g1.num_nodes(), pair.g1.num_edges());
  std::printf("German-like edition: %u articles, %zu links\n",
              pair.g2.num_nodes(), pair.g2.num_edges());
  std::printf("articles existing in both editions: %zu\n\n",
              pair.NumIdentifiable());

  // The curated inter-language table covers ~10% of articles (the paper
  // reports 12.19% of French articles carry a link).
  SeedOptions seeding;
  seeding.fraction = 0.10;
  auto seeds = GenerateSeeds(pair, seeding, 2027);
  std::printf("starting from %zu curated inter-language links\n",
              seeds.size());

  MatcherConfig config;
  config.min_score = 3;  // the paper's Table 5 reports T=3 and T=5
  MatchResult result = UserMatching(pair.g1, pair.g2, seeds, config);
  MatchQuality quality = Evaluate(pair, result);

  std::printf("after matching: %zu links (%.1fx the curated table)\n",
              result.NumLinks(),
              static_cast<double>(result.NumLinks()) /
                  static_cast<double>(seeds.size()));
  std::printf("new links: %zu good, %zu wrong (error rate %.1f%%)\n\n",
              quality.new_good, quality.new_bad,
              100.0 * quality.error_rate);

  // Application: split the discovered links into auto-accept and
  // needs-review by their final witness support, the signal a curation
  // pipeline would use.
  std::vector<NodeId> links(pair.g1.num_nodes(), kInvalidNode);
  for (NodeId u = 0; u < pair.g1.num_nodes(); ++u)
    links[u] = result.map_1to2[u];

  size_t strong = 0, weak = 0, strong_correct = 0, weak_correct = 0;
  const std::vector<char> is_seed = result.SeedMask1();
  for (NodeId u = 0; u < pair.g1.num_nodes(); ++u) {
    const NodeId v = result.map_1to2[u];
    if (v == kInvalidNode || is_seed[u]) continue;
    const uint32_t support =
        CountSimilarityWitnesses(pair.g1, pair.g2, links, u, v);
    const bool correct = pair.map_1to2[u] == v;
    if (support >= 8) {
      ++strong;
      if (correct) ++strong_correct;
    } else {
      ++weak;
      if (correct) ++weak_correct;
    }
  }
  std::printf("curation split by final witness support:\n");
  std::printf("  auto-accept (support >= 8): %6zu links, %.1f%% correct\n",
              strong, strong ? 100.0 * strong_correct / strong : 0.0);
  std::printf("  needs review (support < 8): %6zu links, %.1f%% correct\n",
              weak, weak ? 100.0 * weak_correct / weak : 0.0);
  std::printf("\nthe high-support tier is near-perfect — the error mass "
              "concentrates in the\nlow-support tier a human curator would "
              "review anyway.\n");
  return 0;
}
