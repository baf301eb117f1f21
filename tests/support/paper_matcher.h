// A literal, serial transcription of User-Matching (Korula & Lattanzi, "An
// efficient reconciliation algorithm for social networks", §3.2), used as
// the reference the production matcher is differential-tested against.
//
// It is deliberately naive and shares no code with src/reconcile/core: the
// scores of every candidate pair are rebuilt in a std::map from *all* current
// links every round, and selection is two plain passes over that map. Only
// the graph type and the node-id helpers come from the library.
//
// Per outer iteration i = 1..k, per degree bucket j = top..bottom:
//   1. every link (a1, a2) is a similarity witness for each pair
//      (u, v) in N1(a1) x N2(a2) with d1(u), d2(v) >= 2^j;
//   2. (u, v) is accepted iff its score is >= T, u and v are unmatched, and
//      its score is the unique maximum over every scored pair containing u
//      and over every scored pair containing v. Matched nodes stay in the
//      scored pool as blockers.
//
// Beside the transcription, not part of it, the oracle also counts the
// witness keys the production matcher emits per round: its incremental
// scoring emits each link once, in the first round after the link enters
// L, over the pairs that clear the degree floor 2^min_bucket_exponent and
// are not both matched when that round starts.
#ifndef RECONCILE_TESTS_SUPPORT_PAPER_MATCHER_H_
#define RECONCILE_TESTS_SUPPORT_PAPER_MATCHER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "reconcile/graph/graph.h"
#include "reconcile/graph/types.h"

namespace reconcile::paper {

struct Options {
  uint32_t min_score = 2;            // T
  int num_iterations = 2;            // k
  bool use_degree_bucketing = true;  // off: one round per iteration
  int min_bucket_exponent = 0;       // lowest j; also a degree floor 2^j
  bool stop_when_stable = true;      // stop after an iteration with no link
};

struct Matching {
  std::vector<NodeId> map_1to2;
  std::vector<NodeId> map_2to1;
  std::vector<size_t> new_links;  // links accepted per round, in order
  std::vector<size_t> emissions;  // witness keys emitted per round
};

// The witness keys of links[begin, ..) that the production matcher emits
// at the start of a round (see the file comment): pairs in N1(a1) x N2(a2)
// with both degrees >= 2^min_bucket_exponent, not both matched.
inline size_t CountEmissions(
    const Graph& g1, const Graph& g2,
    const std::vector<std::pair<NodeId, NodeId>>& links, size_t begin,
    const Matching& m, const Options& options) {
  const uint64_t dmin = uint64_t{1} << options.min_bucket_exponent;
  size_t count = 0;
  for (size_t i = begin; i < links.size(); ++i) {
    const auto [a1, a2] = links[i];
    for (NodeId u : g1.Neighbors(a1)) {
      if (g1.degree(u) < dmin) continue;
      for (NodeId v : g2.Neighbors(a2)) {
        if (g2.degree(v) < dmin) continue;
        if (m.map_1to2[u] == kInvalidNode || m.map_2to1[v] == kInvalidNode) {
          ++count;
        }
      }
    }
  }
  return count;
}

inline Matching UserMatching(
    const Graph& g1, const Graph& g2,
    const std::vector<std::pair<NodeId, NodeId>>& seeds,
    const Options& options) {
  Matching m;
  m.map_1to2.assign(g1.num_nodes(), kInvalidNode);
  m.map_2to1.assign(g2.num_nodes(), kInvalidNode);
  std::vector<std::pair<NodeId, NodeId>> links;
  for (const auto& [u, v] : seeds) {
    m.map_1to2[u] = v;
    m.map_2to1[v] = u;
    links.emplace_back(u, v);
  }

  // The bucket sweep j = floor(log2 D) .. min_bucket_exponent.
  std::vector<int> sweep;
  if (options.use_degree_bucketing) {
    const uint64_t max_degree = std::max(g1.max_degree(), g2.max_degree());
    int top = 0;
    while (max_degree >> (top + 1) != 0) ++top;
    for (int j = top; j >= std::min(options.min_bucket_exponent, top); --j) {
      sweep.push_back(j);
    }
  } else {
    sweep.push_back(options.min_bucket_exponent);
  }

  size_t emitted_links = 0;
  for (int iteration = 1; iteration <= options.num_iterations; ++iteration) {
    size_t found = 0;
    for (int j : sweep) {
      m.emissions.push_back(
          CountEmissions(g1, g2, links, emitted_links, m, options));
      emitted_links = links.size();

      const uint64_t dmin = uint64_t{1}
                            << std::max(j, options.min_bucket_exponent);
      // One entry per (link, witnessed pair); sorted, equal pairs are
      // adjacent and their run length is the pair's score.
      std::vector<std::pair<NodeId, NodeId>> witnessed;
      for (const auto& [a1, a2] : links) {
        for (NodeId u : g1.Neighbors(a1)) {
          if (g1.degree(u) < dmin) continue;
          for (NodeId v : g2.Neighbors(a2)) {
            if (g2.degree(v) >= dmin) witnessed.emplace_back(u, v);
          }
        }
      }
      std::sort(witnessed.begin(), witnessed.end());
      std::map<std::pair<NodeId, NodeId>, uint32_t> score;
      for (size_t i = 0; i < witnessed.size();) {
        size_t end = i;
        while (end < witnessed.size() && witnessed[end] == witnessed[i]) ++end;
        score.emplace_hint(score.end(), witnessed[i],
                           static_cast<uint32_t>(end - i));
        i = end;
      }

      // Per node: the best score over its pairs and how many pairs reach it.
      std::vector<std::pair<uint32_t, int>> best1(g1.num_nodes(), {0, 0});
      std::vector<std::pair<uint32_t, int>> best2(g2.num_nodes(), {0, 0});
      auto observe = [](std::pair<uint32_t, int>& best, uint32_t s) {
        if (s > best.first) {
          best = {s, 1};
        } else if (s == best.first) {
          ++best.second;
        }
      };
      for (const auto& [pair, s] : score) {
        observe(best1[pair.first], s);
        observe(best2[pair.second], s);
      }

      std::vector<std::pair<NodeId, NodeId>> accepted;
      for (const auto& [pair, s] : score) {
        const auto [u, v] = pair;
        if (s < options.min_score) continue;
        if (m.map_1to2[u] != kInvalidNode || m.map_2to1[v] != kInvalidNode) {
          continue;
        }
        const std::pair<uint32_t, int> unique{s, 1};
        if (best1[u] == unique && best2[v] == unique) accepted.push_back(pair);
      }
      for (const auto& [u, v] : accepted) {
        m.map_1to2[u] = v;
        m.map_2to1[v] = u;
        links.emplace_back(u, v);
      }
      m.new_links.push_back(accepted.size());
      found += accepted.size();
    }
    if (options.stop_when_stable && found == 0) break;
  }
  return m;
}

}  // namespace reconcile::paper

#endif  // RECONCILE_TESTS_SUPPORT_PAPER_MATCHER_H_
