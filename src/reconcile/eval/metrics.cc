#include "reconcile/eval/metrics.h"

#include <algorithm>

#include "reconcile/util/logging.h"

namespace reconcile {

namespace {

bool Identifiable(const RealizationPair& pair, NodeId u) {
  NodeId v = pair.map_1to2[u];
  if (v == kInvalidNode) return false;
  return pair.g1.degree(u) >= 1 && pair.g2.degree(v) >= 1;
}

}  // namespace

MatchQuality Evaluate(const RealizationPair& pair, const MatchResult& result) {
  RECONCILE_CHECK_EQ(result.map_1to2.size(), pair.g1.num_nodes());
  MatchQuality q;
  q.num_seeds = result.seeds.size();

  const std::vector<char> is_seed = result.SeedMask1();

  size_t identifiable_not_seeded = 0;
  size_t good_links_total = 0;
  for (NodeId u = 0; u < pair.g1.num_nodes(); ++u) {
    bool identifiable = u < pair.map_1to2.size() && Identifiable(pair, u);
    if (identifiable) {
      ++q.identifiable;
      if (!is_seed[u]) ++identifiable_not_seeded;
    }
    NodeId matched = result.map_1to2[u];
    if (matched == kInvalidNode) continue;
    NodeId truth = u < pair.map_1to2.size() ? pair.map_1to2[u] : kInvalidNode;
    bool correct = matched == truth && truth != kInvalidNode;
    if (correct) ++good_links_total;
    if (is_seed[u]) continue;
    if (correct) {
      ++q.new_good;
    } else {
      ++q.new_bad;
    }
  }

  // Zero-denominator ratios are vacuously perfect (see MatchQuality docs):
  // no discoveries means no errors, nothing to find means nothing missed.
  size_t new_total = q.new_good + q.new_bad;
  q.precision = new_total == 0
                    ? 1.0
                    : static_cast<double>(q.new_good) /
                          static_cast<double>(new_total);
  q.error_rate = 1.0 - q.precision;
  q.recall_all = q.identifiable == 0
                     ? 1.0
                     : static_cast<double>(good_links_total) /
                           static_cast<double>(q.identifiable);
  q.recall_new = identifiable_not_seeded == 0
                     ? 1.0
                     : static_cast<double>(q.new_good) /
                           static_cast<double>(identifiable_not_seeded);
  return q;
}

std::vector<DegreeBandQuality> EvaluateByDegree(
    const RealizationPair& pair, const MatchResult& result,
    const std::vector<NodeId>& upper_bounds) {
  RECONCILE_CHECK(!upper_bounds.empty());
  RECONCILE_CHECK_EQ(result.map_1to2.size(), pair.g1.num_nodes());
  RECONCILE_CHECK(std::is_sorted(upper_bounds.begin(), upper_bounds.end()));

  std::vector<DegreeBandQuality> bands;
  NodeId lo = 1;
  for (NodeId hi : upper_bounds) {
    DegreeBandQuality band;
    band.min_degree = lo;
    band.max_degree = hi;
    bands.push_back(band);
    lo = hi + 1;
  }
  DegreeBandQuality top;
  top.min_degree = lo;
  top.max_degree = kInvalidNode;
  bands.push_back(top);

  auto band_of = [&bands](NodeId degree) -> DegreeBandQuality* {
    for (DegreeBandQuality& band : bands) {
      if (degree >= band.min_degree && degree <= band.max_degree) return &band;
    }
    return nullptr;
  };

  const std::vector<char> is_seed = result.SeedMask1();
  std::vector<size_t> not_seeded(bands.size(), 0);

  for (NodeId u = 0; u < pair.g1.num_nodes(); ++u) {
    NodeId degree = pair.g1.degree(u);
    DegreeBandQuality* band = band_of(degree);
    if (band == nullptr) continue;  // degree-0 nodes fall outside all bands
    size_t band_index = static_cast<size_t>(band - bands.data());

    bool identifiable = u < pair.map_1to2.size() && Identifiable(pair, u);
    if (identifiable) {
      ++band->identifiable;
      if (!is_seed[u]) ++not_seeded[band_index];
    }
    if (is_seed[u]) continue;
    NodeId matched = result.map_1to2[u];
    if (matched == kInvalidNode) continue;
    NodeId truth = u < pair.map_1to2.size() ? pair.map_1to2[u] : kInvalidNode;
    if (matched == truth && truth != kInvalidNode) {
      ++band->new_good;
    } else {
      ++band->new_bad;
    }
  }

  for (size_t i = 0; i < bands.size(); ++i) {
    DegreeBandQuality& band = bands[i];
    size_t total = band.new_good + band.new_bad;
    band.precision = total == 0 ? 1.0
                                : static_cast<double>(band.new_good) /
                                      static_cast<double>(total);
    band.recall = not_seeded[i] == 0
                      ? 1.0  // vacuous: the band had nothing to find
                      : static_cast<double>(band.new_good) /
                            static_cast<double>(not_seeded[i]);
  }
  return bands;
}

}  // namespace reconcile
