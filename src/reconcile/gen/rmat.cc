#include "reconcile/gen/rmat.h"

#include <cmath>

#include "reconcile/util/logging.h"
#include "reconcile/util/rng.h"

namespace reconcile {

Graph GenerateRmat(const RmatParams& params, uint64_t seed) {
  RECONCILE_CHECK_GE(params.scale, 1);
  RECONCILE_CHECK_LE(params.scale, 30);
  const double sum = params.a + params.b + params.c + params.d;
  RECONCILE_CHECK_LT(std::abs(sum - 1.0), 1e-9);
  RECONCILE_CHECK(std::isfinite(params.edge_factor) && params.edge_factor > 0.0)
      << "edge_factor " << params.edge_factor << " must be finite and > 0";

  Rng rng(seed);
  const NodeId n = static_cast<NodeId>(1u << params.scale);
  const size_t target_edges =
      static_cast<size_t>(params.edge_factor * static_cast<double>(n));

  EdgeList edges(n);
  edges.Reserve(target_edges);
  for (size_t e = 0; e < target_edges; ++e) {
    NodeId u = 0, v = 0;
    double a = params.a, b = params.b, c = params.c;
    for (int level = 0; level < params.scale; ++level) {
      double r = rng.UniformReal();
      u <<= 1;
      v <<= 1;
      if (r < a) {
        // top-left: no bits set
      } else if (r < a + b) {
        v |= 1;
      } else if (r < a + b + c) {
        u |= 1;
      } else {
        u |= 1;
        v |= 1;
      }
      if (params.noise) {
        // Multiplicative noise keeps the quadrant probabilities from
        // producing exact replicas at every level (standard smoothing).
        double na = a * (0.95 + 0.1 * rng.UniformReal());
        double nb = b * (0.95 + 0.1 * rng.UniformReal());
        double nc = c * (0.95 + 0.1 * rng.UniformReal());
        double nd = (1.0 - a - b - c) * (0.95 + 0.1 * rng.UniformReal());
        double norm = na + nb + nc + nd;
        a = na / norm;
        b = nb / norm;
        c = nc / norm;
      }
    }
    edges.Add(u, v);
  }
  edges.EnsureNumNodes(n);
  return Graph::FromEdgeList(std::move(edges));
}

}  // namespace reconcile
