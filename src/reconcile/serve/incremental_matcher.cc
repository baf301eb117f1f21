#include "reconcile/serve/incremental_matcher.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "reconcile/core/matcher_state.h"
#include "reconcile/util/checkpoint.h"
#include "reconcile/util/fault.h"
#include "reconcile/util/logging.h"
#include "reconcile/util/timer.h"

namespace reconcile {

namespace {

// Serve snapshot section ids and state version (independent of the batch
// matcher's — the two checkpoint families never cross-load). Version 1
// also carried the link log, the round log and the stamped score runs of
// the retired incremental repair; ids 4-6 held them.
constexpr uint32_t kServeStateVersion = 2;
constexpr uint32_t kSectionMeta = 1;
constexpr uint32_t kSectionGraph1 = 2;
constexpr uint32_t kSectionGraph2 = 3;

// Order-sensitive mix of the seed list, binding a snapshot to the seeds
// its session was constructed with.
uint64_t SeedFingerprint(std::span<const std::pair<NodeId, NodeId>> seeds) {
  uint64_t h = 1469598103934665603ULL;
  for (const auto& [u, v] : seeds) {
    h ^= PackPair(u, v);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

IncrementalMatcher::IncrementalMatcher(
    Graph g1, Graph g2, std::span<const std::pair<NodeId, NodeId>> seeds,
    const ServeConfig& config)
    : config_(config),
      pool_(config.matcher.num_threads > 0 ? config.matcher.num_threads
                                           : ThreadPool::DefaultThreads()),
      o1_(std::move(g1)),
      o2_(std::move(g2)),
      seeds_(seeds.begin(), seeds.end()),
      map_1to2_(o1_.num_nodes(), kInvalidNode),
      map_2to1_(o2_.num_nodes(), kInvalidNode) {
  RECONCILE_CHECK_GE(config_.matcher.num_iterations, 1);
  RECONCILE_CHECK_GE(config_.matcher.min_bucket_exponent, 0);
  for (const auto& [u, v] : seeds_) {
    RECONCILE_CHECK_LT(u, o1_.num_nodes());
    RECONCILE_CHECK_LT(v, o2_.num_nodes());
    RECONCILE_CHECK_EQ(map_1to2_[u], kInvalidNode)
        << "duplicate seed for g1 node " << u;
    RECONCILE_CHECK_EQ(map_2to1_[v], kInvalidNode)
        << "duplicate seed for g2 node " << v;
    map_1to2_[u] = v;
    map_2to1_[v] = u;
  }
  num_links_ = seeds_.size();
}

ServeBatchStats IncrementalMatcher::ApplyBatch(
    const std::vector<EdgeDelta>& deltas) {
  Timer timer;
  ServeBatchStats stats;
  stats.batch = batches_applied_ + 1;
  stats.deltas_in = deltas.size();

  // (1) Net out the batch: per canonical edge key, the presence before the
  // batch and after it. Only edges whose presence *changed* end-to-end act
  // on the session — an insert/delete pair inside one batch, a re-insert
  // of a present edge, or a delete of an absent one are all no-ops.
  std::unordered_map<uint64_t, bool> initial[2], current[2];
  for (const EdgeDelta& d : deltas) {
    if (d.u == d.v) continue;  // self-loops never enter the graphs
    const int g = d.graph == 1 ? 0 : 1;
    const OverlayGraph& o = g == 0 ? o1_ : o2_;
    const uint64_t key = PackPair(std::min(d.u, d.v), std::max(d.u, d.v));
    auto [it, inserted] = current[g].try_emplace(key, false);
    if (inserted) initial[g].emplace(key, o.HasEdge(d.u, d.v));
    it->second = d.insert;
  }

  // (2) Apply the net deltas to the overlays, in key order (hash order is
  // not deterministic; node growth must be).
  OverlayGraph* const overlays[2] = {&o1_, &o2_};
  for (int g = 0; g < 2; ++g) {
    std::vector<uint64_t> changed;
    for (const auto& [key, now] : current[g]) {
      if (now != initial[g][key]) changed.push_back(key);
    }
    std::sort(changed.begin(), changed.end());
    for (uint64_t key : changed) {
      const NodeId u = PairFirst(key), v = PairSecond(key);
      RECONCILE_CHECK(current[g][key] ? overlays[g]->InsertEdge(u, v)
                                      : overlays[g]->DeleteEdge(u, v));
    }
    stats.deltas_applied += changed.size();
  }

  // (3) Mid-batch fault hook: the overlays hold the batch, the matching
  // does not. A `crash:serve_apply=k` kill here loses batch k, and a
  // resume must re-apply it from the stream.
  FaultValuePoint("serve_apply", stats.batch);
  ++batches_applied_;

  if (stats.deltas_applied > 0 || !matched_) {
    // (4) Fold the diffs into fresh CSRs — the batch matcher reads one.
    o1_.Compact(&pool_);
    o2_.Compact(&pool_);
    // (5) Rerun the batch matcher on the current graphs.
    Rerun(&stats);
  }
  stats.num_links = num_links_;
  stats.seconds = timer.Seconds();
  return stats;
}

void IncrementalMatcher::Rerun(ServeBatchStats* stats) {
  // `MatcherState` rather than `UserMatching`: the latter's round loop
  // honours graceful-stop requests, and a batch must never serve a
  // partial matching.
  Timer timer;
  MatcherState state(o1_.base(), o2_.base(), config_.matcher);
  state.SeedLinks(seeds_);
  while (!state.Done()) state.RunRound();
  MatchResult next = state.TakeResult(timer.Seconds());

  // Node ranges only grow, so every old g1 id is still in range.
  size_t added = 0, removed = 0, links = 0;
  for (NodeId u = 0; u < next.map_1to2.size(); ++u) {
    const NodeId now = next.map_1to2[u];
    const NodeId before = u < map_1to2_.size() ? map_1to2_[u] : kInvalidNode;
    links += now != kInvalidNode;
    if (now == before) continue;
    added += now != kInvalidNode;
    removed += before != kInvalidNode;
  }
  stats->links_added = added;
  stats->links_removed = removed;
  stats->replayed_rounds = static_cast<int>(next.phases.size());
  stats->rounds = std::move(next.phases);
  map_1to2_ = std::move(next.map_1to2);
  map_2to1_ = std::move(next.map_2to1);
  num_links_ = links;
  matched_ = true;
}

MatchResult IncrementalMatcher::Result() const {
  MatchResult result;
  result.seeds = seeds_;
  result.map_1to2 = map_1to2_;
  result.map_2to1 = map_2to1_;
  return result;
}

// --- Snapshots -----------------------------------------------------------

bool IncrementalMatcher::SaveSnapshot(const std::string& path,
                                      std::string* error) const {
  SnapshotWriter writer;

  writer.BeginSection(kSectionMeta);
  writer.AppendU32(kServeStateVersion);
  writer.AppendU32(config_.matcher.min_score);
  writer.AppendI32(config_.matcher.num_iterations);
  writer.AppendU8(config_.matcher.use_degree_bucketing ? 1 : 0);
  writer.AppendI32(config_.matcher.min_bucket_exponent);
  writer.AppendU8(config_.matcher.stop_when_stable ? 1 : 0);
  writer.AppendI32(batches_applied_);
  writer.AppendU64(deltas_consumed_);
  writer.AppendU64(seeds_.size());
  writer.AppendU64(SeedFingerprint(seeds_));
  writer.EndSection();

  // Self-contained: the snapshot carries both graphs (canonical edge
  // lists), so a resume needs no replay of the delta stream to rebuild
  // them, and the matching is a rerun on them.
  writer.BeginSection(kSectionGraph1);
  writer.AppendU64(o1_.num_nodes());
  writer.AppendVector(o1_.Materialize().edges());
  writer.EndSection();
  writer.BeginSection(kSectionGraph2);
  writer.AppendU64(o2_.num_nodes());
  writer.AppendVector(o2_.Materialize().edges());
  writer.EndSection();

  return writer.Commit(path, error);
}

bool IncrementalMatcher::LoadSnapshot(const std::string& path,
                                      std::string* error) {
  SnapshotReader reader;
  if (!reader.Open(path, error)) return false;

  SnapshotReader::Section* meta = reader.Find(kSectionMeta);
  if (meta == nullptr) {
    *error = "snapshot has no META section";
    return false;
  }
  // The version leads META; check it before the rest of the layout.
  uint32_t version = 0;
  if (!meta->ReadU32(&version)) {
    *error = "META section malformed";
    return false;
  }
  if (version != kServeStateVersion) {
    *error = "serve state version " + std::to_string(version) +
             " is not supported (this build reads version " +
             std::to_string(kServeStateVersion) + ")";
    return false;
  }
  uint32_t min_score = 0;
  int32_t num_iterations = 0, min_bucket_exponent = 0, batches_applied = 0;
  uint8_t bucketing = 0, stop_when_stable = 0;
  uint64_t deltas_consumed = 0, num_seeds = 0, seed_fingerprint = 0;
  meta->ReadU32(&min_score);
  meta->ReadI32(&num_iterations);
  meta->ReadU8(&bucketing);
  meta->ReadI32(&min_bucket_exponent);
  meta->ReadU8(&stop_when_stable);
  meta->ReadI32(&batches_applied);
  meta->ReadU64(&deltas_consumed);
  meta->ReadU64(&num_seeds);
  meta->ReadU64(&seed_fingerprint);
  if (!meta->ok() || !meta->AtEnd()) {
    *error = "META section malformed";
    return false;
  }
  const MatcherConfig& mc = config_.matcher;
  if (min_score != mc.min_score || num_iterations != mc.num_iterations ||
      (bucketing != 0) != mc.use_degree_bucketing ||
      min_bucket_exponent != mc.min_bucket_exponent ||
      (stop_when_stable != 0) != mc.stop_when_stable) {
    *error = "snapshot was taken under different matching semantics";
    return false;
  }
  if (num_seeds != seeds_.size()) {
    *error = "snapshot seed count mismatch";
    return false;
  }
  if (seed_fingerprint != SeedFingerprint(seeds_)) {
    *error = "snapshot seeds do not match the provided seeds";
    return false;
  }

  auto load_graph = [&reader, error](uint32_t id, const char* name,
                                     Graph* out) -> bool {
    SnapshotReader::Section* section = reader.Find(id);
    if (section == nullptr) {
      *error = std::string("snapshot has no ") + name + " section";
      return false;
    }
    uint64_t num_nodes = 0;
    std::vector<Edge> edges;
    if (!section->ReadU64(&num_nodes) || !section->ReadVector(&edges) ||
        !section->AtEnd()) {
      *error = std::string(name) + " section malformed";
      return false;
    }
    EdgeList list(static_cast<NodeId>(num_nodes));
    list.Reserve(edges.size());
    for (const auto& [u, v] : edges) {
      if (u >= num_nodes || v >= num_nodes || u == v) {
        *error = std::string(name) + " section has an out-of-range edge";
        return false;
      }
      list.Add(u, v);
    }
    *out = Graph::FromEdgeList(std::move(list), nullptr);
    if (out->num_nodes() != num_nodes || out->num_edges() != edges.size()) {
      *error = std::string(name) + " section has duplicate edges";
      return false;
    }
    return true;
  };
  Graph g1, g2;
  if (!load_graph(kSectionGraph1, "GRAPH1", &g1)) return false;
  if (!load_graph(kSectionGraph2, "GRAPH2", &g2)) return false;
  for (const auto& [u, v] : seeds_) {
    if (u >= g1.num_nodes() || v >= g2.num_nodes()) {
      *error = "snapshot graphs do not cover the seeds";
      return false;
    }
  }

  // Everything validated — commit, then rerun on the restored graphs.
  o1_ = OverlayGraph(std::move(g1));
  o2_ = OverlayGraph(std::move(g2));
  batches_applied_ = batches_applied;
  deltas_consumed_ = deltas_consumed;
  ServeBatchStats ignored;
  Rerun(&ignored);
  return true;
}

}  // namespace reconcile
