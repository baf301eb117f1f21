#ifndef RECONCILE_API_ADAPTERS_H_
#define RECONCILE_API_ADAPTERS_H_

#include <memory>

#include "reconcile/api/reconciler.h"
#include "reconcile/core/matcher.h"

namespace reconcile {

/// The built-in algorithms behind the `Reconciler` interface. adapters.cc
/// binds each algorithm's free-function entry point to its typed config
/// through one adapter whose `Run` forwards verbatim, so outputs are
/// bit-identical to calling the free function directly (enforced by
/// api_adapter_differential_test). All six are registered in
/// `Registry::Global()`:
///
///   key           wraps
///   core          UserMatching
///   simple        SimpleCommonNeighborsMatch
///   ns09          PropagationMatch
///   features      StructuralFeatureMatch
///   percolation   PercolationMatch
///   bp            BpMatch

/// "core" — the paper's User-Matching algorithm (§3.2) with `config`, for
/// callers that already hold a typed config. Same instance as
/// `Registry::Create` builds from the equivalent spec.
std::unique_ptr<Reconciler> MakeCoreReconciler(const MatcherConfig& config);

}  // namespace reconcile

#endif  // RECONCILE_API_ADAPTERS_H_
