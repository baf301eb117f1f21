#ifndef RECONCILE_GEN_RMAT_H_
#define RECONCILE_GEN_RMAT_H_

#include <cstdint>

#include "reconcile/graph/graph.h"

namespace reconcile {

/// Parameters for the recursive matrix (R-MAT) generator of Chakrabarti,
/// Zhan & Faloutsos (SDM 2004). `a + b + c + d` must be 1; the defaults are
/// the widely used skewed setting.
struct RmatParams {
  int scale = 16;             ///< 2^scale nodes.
  double edge_factor = 8.0;   ///< edges = edge_factor * 2^scale; > 0.
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;
  double d = 0.05;
  bool noise = true;          ///< Perturb quadrant probs per level (smoothing).
};

/// Samples an R-MAT graph. Duplicate edges and self-loops are dropped during
/// canonicalization, so the realized edge count is slightly below
/// `edge_factor * 2^scale`. Isolated node ids may exist (as in the original
/// generator); `num_nodes` is fixed at 2^scale.
Graph GenerateRmat(const RmatParams& params, uint64_t seed);

}  // namespace reconcile

#endif  // RECONCILE_GEN_RMAT_H_
