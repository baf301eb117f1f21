#ifndef RECONCILE_EVAL_EXPERIMENT_H_
#define RECONCILE_EVAL_EXPERIMENT_H_

#include <cstdint>

#include "reconcile/api/reconciler.h"
#include "reconcile/core/matcher.h"
#include "reconcile/eval/metrics.h"
#include "reconcile/sampling/realization.h"
#include "reconcile/seed/seeding.h"

namespace reconcile {

/// One end-to-end run: seeds drawn from the pair's ground truth, algorithm
/// executed, result scored. The glue used by every table/figure bench.
struct ExperimentResult {
  MatchQuality quality;
  MatchResult match;
  double seed_seconds = 0.0;
  double match_seconds = 0.0;
};

/// Draws seeds with `seed_options` (randomness from `seed`), runs
/// `reconciler` and evaluates against ground truth. Works for any
/// `Reconciler`, from `Registry::Create` or `MakeCoreReconciler`.
ExperimentResult RunExperiment(const RealizationPair& pair,
                               const SeedOptions& seed_options,
                               const Reconciler& reconciler, uint64_t seed);

/// Convenience overload for the common case: runs the core User-Matching
/// algorithm with `matcher_config`.
ExperimentResult RunExperiment(const RealizationPair& pair,
                               const SeedOptions& seed_options,
                               const MatcherConfig& matcher_config,
                               uint64_t seed);

}  // namespace reconcile

#endif  // RECONCILE_EVAL_EXPERIMENT_H_
