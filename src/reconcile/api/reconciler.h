#ifndef RECONCILE_API_RECONCILER_H_
#define RECONCILE_API_RECONCILER_H_

#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "reconcile/core/result.h"
#include "reconcile/graph/graph.h"
#include "reconcile/graph/types.h"

namespace reconcile {

/// Uniform interface over every reconciliation algorithm in the library:
/// the core User-Matching matcher and all comparison baselines. One
/// `Reconciler` is an *immutable, fully configured* algorithm instance —
/// construction (via `Registry::Create`, or `MakeCoreReconciler` for a
/// typed core config) fixes every tuning knob, and `Run` may be called any
/// number of times, from any thread, on any graph pair.
///
/// This is the seam the paper's comparative claims hang on: the evaluation
/// harness (`RunExperiment`), the CLI and the benches all take a
/// `Reconciler` rather than a concrete config struct, so every scenario,
/// metric and table works for every algorithm — including ones registered
/// by downstream code (see `registry.h` for the extension recipe).
class Reconciler {
 public:
  virtual ~Reconciler() = default;

  /// Expands the seed links into a one-to-one partial mapping between the
  /// nodes of `g1` and `g2`. Seeds must be in-range and one-to-one.
  /// Implementations must be deterministic for fixed inputs and must not
  /// mutate the reconciler (`Run` is const and thread-compatible).
  virtual MatchResult Run(
      const Graph& g1, const Graph& g2,
      std::span<const std::pair<NodeId, NodeId>> seeds) const = 0;

  /// Stable registry key ("core", "ns09", ...). Algorithm identity, not
  /// configuration: two differently tuned instances share a name.
  virtual std::string_view name() const = 0;

  /// Human-readable one-line description of this instance including its
  /// effective parameters, e.g. "core(threshold=2, iterations=2, ...)".
  virtual std::string Describe() const = 0;

  /// True if `Run` fills `MatchResult::phases` with meaningful per-round
  /// telemetry (emit/scan/select split). Baselines without a round
  /// structure return false and leave `phases` empty.
  virtual bool ExposesPhaseStats() const { return false; }
};

}  // namespace reconcile

#endif  // RECONCILE_API_RECONCILER_H_
