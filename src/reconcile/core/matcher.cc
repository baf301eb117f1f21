#include "reconcile/core/matcher.h"

#include <algorithm>
#include <string>

#include "reconcile/core/matcher_state.h"
#include "reconcile/util/checkpoint.h"
#include "reconcile/util/fault.h"
#include "reconcile/util/logging.h"
#include "reconcile/util/shutdown.h"
#include "reconcile/util/timer.h"

namespace reconcile {

namespace {

// Writes the post-round snapshot. A failed write is a warning and the run
// goes on without this recovery point.
void CheckpointRound(MatcherState* state, const MatcherConfig& config) {
  WriteCheckpoint(config.checkpoint_dir, kMatcherCheckpointPrefix,
                  state->completed_rounds(), config.checkpoint_keep,
                  [state](const std::string& path, std::string* error) {
                    return state->SaveSnapshot(path, error);
                  });
}

}  // namespace

MatchResult UserMatching(const Graph& g1, const Graph& g2,
                         std::span<const std::pair<NodeId, NodeId>> seeds,
                         const MatcherConfig& config) {
  RECONCILE_CHECK_GE(config.num_iterations, 1);
  RECONCILE_CHECK_GE(config.min_bucket_exponent, 0);
  if (!config.fault_spec.empty()) {
    std::string error;
    RECONCILE_CHECK(ArmFaults(config.fault_spec, &error))
        << "bad fault spec: " << error;
  }

  Timer timer;
  MatcherState state(g1, g2, config);
  state.SeedLinks(seeds);

  const bool checkpointing = !config.checkpoint_dir.empty();
  const int every = std::max(1, config.checkpoint_every_rounds);
  if (checkpointing) {
    std::string error;
    RECONCILE_CHECK(EnsureDir(config.checkpoint_dir, &error))
        << "cannot create checkpoint directory: " << error;
    if (config.resume) {
      // The newest snapshot that validates end to end, else the seeds.
      const std::string path = ResumeCheckpoint(
          config.checkpoint_dir, kMatcherCheckpointPrefix,
          config.checkpoint_keep,
          [&state](const std::string& file, std::string* error) {
            return state.LoadSnapshot(file, error);
          });
      if (!path.empty()) {
        RECONCILE_LOG(Info) << "resumed from " << path << " ("
                            << state.completed_rounds()
                            << " rounds completed, " << state.num_links()
                            << " links)";
      }
    }
  }

  bool stopped_early = false;
  while (!state.Done()) {
    state.RunRound();
    // Fault hook between completing a round and persisting it: a
    // `crash:after_round=k` kill lands before the round-k checkpoint, so a
    // resume re-runs from an earlier snapshot (exercising replay, not just
    // reload).
    FaultValuePoint("after_round", state.completed_rounds());
    if (checkpointing &&
        (state.Done() || state.completed_rounds() % every == 0)) {
      CheckpointRound(&state, config);
    }
    if (GracefulStopRequested() && !state.Done()) {
      stopped_early = true;
      break;
    }
  }
  // A graceful stop (SIGTERM/SIGINT, or the `stop:` fault kind) finishes
  // the in-flight round, persists it, and returns the partial matching.
  if (stopped_early && checkpointing &&
      state.completed_rounds() % every != 0) {
    CheckpointRound(&state, config);
  }
  return state.TakeResult(timer.Seconds());
}

}  // namespace reconcile
