#include "reconcile/eval/experiment.h"

#include "reconcile/api/adapters.h"
#include "reconcile/util/timer.h"

namespace reconcile {

ExperimentResult RunExperiment(const RealizationPair& pair,
                               const SeedOptions& seed_options,
                               const Reconciler& reconciler, uint64_t seed) {
  ExperimentResult result;
  Timer seed_timer;
  std::vector<std::pair<NodeId, NodeId>> seeds =
      GenerateSeeds(pair, seed_options, seed);
  result.seed_seconds = seed_timer.Seconds();

  Timer match_timer;
  result.match = reconciler.Run(pair.g1, pair.g2, seeds);
  result.match_seconds = match_timer.Seconds();

  result.quality = Evaluate(pair, result.match);
  return result;
}

ExperimentResult RunExperiment(const RealizationPair& pair,
                               const SeedOptions& seed_options,
                               const MatcherConfig& matcher_config,
                               uint64_t seed) {
  return RunExperiment(pair, seed_options, *MakeCoreReconciler(matcher_config),
                       seed);
}

}  // namespace reconcile
