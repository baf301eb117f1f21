#include "reconcile/core/selection.h"

#include <atomic>

#include "reconcile/util/logging.h"
#include "reconcile/util/parallel_for.h"
#include "reconcile/util/timer.h"

namespace reconcile {

SelectionEngine::SelectionEngine(size_t n1, size_t n2)
    : atomic_best1_(n1), atomic_best2_(n2) {}

size_t SelectionEngine::SelectAndCommit(
    const std::vector<const TieredCountRuns*>& units,
    const SelectionContext& ctx, PhaseStats* stats) {
  Timer timer;
  atomic_best1_.NextEpoch();
  atomic_best2_.NextEpoch();
  // Both passes run one unit at a time on the work-stealing loop: units
  // are claimed dynamically, so a handful of huge hub-level units does not
  // pin the round on whichever worker drew them. The observe fold is a
  // CAS-max — commutative — and the accept pass writes only per-unit
  // lists, so the schedule is unobservable in the result.
  std::atomic<size_t> candidate_pairs{0};
  auto observe_unit = [this, &units, &candidate_pairs](size_t i) {
    size_t local_pairs = 0;
    units[i]->ForEach([this, &local_pairs](uint64_t key, uint32_t score) {
      atomic_best1_.Observe(PairFirst(key), score);
      atomic_best2_.Observe(PairSecond(key), score);
      ++local_pairs;
    });
    candidate_pairs.fetch_add(local_pairs, std::memory_order_relaxed);
  };
  ParallelForEach(ctx.pool, units.size(), observe_unit);
  stats->candidate_pairs = candidate_pairs.load();
  stats->scan_seconds = timer.Seconds();

  timer.Reset();
  // Accept pass: reads the maps and the sealed best tables, writes only
  // its own unit's accept list.
  std::vector<NodeId>& map_1to2 = *ctx.map_1to2;
  std::vector<NodeId>& map_2to1 = *ctx.map_2to1;
  std::vector<std::vector<std::pair<NodeId, NodeId>>> accepted_per_unit(
      units.size());
  auto accept_unit = [this, &ctx, &units, &map_1to2, &map_2to1,
                      &accepted_per_unit](size_t i) {
    auto& list = accepted_per_unit[i];
    units[i]->ForEach([this, &ctx, &map_1to2, &map_2to1,
                      &list](uint64_t key, uint32_t score) {
      if (score < ctx.min_score) return;
      NodeId u = PairFirst(key);
      NodeId v = PairSecond(key);
      // Already-matched nodes stay in the scored pool as *blockers* (their
      // pairs keep outcompeting impostors — this is what defeats the sybil
      // attack) but are never re-matched.
      if (map_1to2[u] != kInvalidNode || map_2to1[v] != kInvalidNode) {
        return;
      }
      if (atomic_best1_.IsUniqueBest(u, score) &&
          atomic_best2_.IsUniqueBest(v, score)) {
        list.emplace_back(u, v);
      }
    });
  };
  ParallelForEach(ctx.pool, units.size(), accept_unit);

  // Commit pass, in parallel: an exclusive prefix sum assigns unit i its
  // link-log slots; unique best on both sides means no two units accept
  // the same g1 or g2 node, so the map writes are per-slot exclusive and
  // the scatter is race-free. Layout is byte-identical to committing the
  // lists serially in unit order.
  std::vector<size_t> offsets(units.size() + 1, 0);
  for (size_t i = 0; i < units.size(); ++i) {
    offsets[i + 1] = offsets[i] + accepted_per_unit[i].size();
  }
  const size_t accepted = offsets.back();
  std::vector<std::pair<NodeId, NodeId>>& links = *ctx.links;
  const size_t base = links.size();
  links.resize(base + accepted);
  auto commit_unit = [&accepted_per_unit, &offsets, &links, &map_1to2,
                      &map_2to1, base](size_t i) {
    size_t slot = base + offsets[i];
    for (const auto& [u, v] : accepted_per_unit[i]) {
      RECONCILE_CHECK_EQ(map_1to2[u], kInvalidNode);
      RECONCILE_CHECK_EQ(map_2to1[v], kInvalidNode);
      map_1to2[u] = v;
      map_2to1[v] = u;
      links[slot++] = {u, v};
    }
  };
  ParallelForEach(ctx.pool, units.size(), commit_unit);
  stats->select_seconds = timer.Seconds();
  return accepted;
}

}  // namespace reconcile
