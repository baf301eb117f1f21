// Differential check of the production matcher against the paper-literal
// oracle in paper_matcher.h: same maps, same number of links per round.
#ifndef RECONCILE_TESTS_SUPPORT_ORACLE_DIFF_H_
#define RECONCILE_TESTS_SUPPORT_ORACLE_DIFF_H_

#include <cstddef>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/core/matcher.h"
#include "paper_matcher.h"

namespace reconcile {

inline paper::Options PaperOptions(const MatcherConfig& config) {
  paper::Options options;
  options.min_score = config.min_score;
  options.num_iterations = config.num_iterations;
  options.use_degree_bucketing = config.use_degree_bucketing;
  options.min_bucket_exponent = config.min_bucket_exponent;
  options.stop_when_stable = config.stop_when_stable;
  return options;
}

inline std::vector<size_t> NewLinksPerRound(const MatchResult& result) {
  std::vector<size_t> counts;
  for (const PhaseStats& phase : result.phases) {
    counts.push_back(phase.new_links);
  }
  return counts;
}

inline void ExpectSameAsPaper(const MatchResult& got,
                              const paper::Matching& want) {
  EXPECT_EQ(got.map_1to2, want.map_1to2);
  EXPECT_EQ(got.map_2to1, want.map_2to1);
  EXPECT_EQ(NewLinksPerRound(got), want.new_links);
}

/// Runs `UserMatching` under `config` and expects it to reproduce the
/// oracle's matching and per-round link counts. Returns the result.
inline MatchResult ExpectMatchesPaper(
    const Graph& g1, const Graph& g2,
    const std::vector<std::pair<NodeId, NodeId>>& seeds,
    const MatcherConfig& config) {
  MatchResult got = UserMatching(g1, g2, seeds, config);
  ExpectSameAsPaper(got,
                    paper::UserMatching(g1, g2, seeds, PaperOptions(config)));
  return got;
}

}  // namespace reconcile

#endif  // RECONCILE_TESTS_SUPPORT_ORACLE_DIFF_H_
