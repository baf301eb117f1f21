// THE serve correctness contract: after ANY sequence of delta batches the
// incremental matcher's maps are bit-identical to a from-scratch batch run
// (`UserMatching`, single-threaded) on the final graphs — at 1 and 4 serve
// threads, through deletes, re-inserted edges, node growth, empty batches,
// a snapshot round-trip mid-stream, and a pending graceful-stop request.
// Every grid cell re-verifies after EVERY batch, so a divergence pins the
// batch that introduced it.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/core/matcher.h"
#include "reconcile/gen/chung_lu.h"
#include "reconcile/graph/edge_list.h"
#include "reconcile/graph/graph.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"
#include "reconcile/serve/delta_log.h"
#include "reconcile/serve/incremental_matcher.h"
#include "reconcile/util/checkpoint.h"
#include "reconcile/util/shutdown.h"

namespace reconcile {
namespace {

using EdgeSet = std::set<std::pair<NodeId, NodeId>>;

std::pair<NodeId, NodeId> Canon(NodeId u, NodeId v) {
  return {std::min(u, v), std::max(u, v)};
}

EdgeSet ToEdgeSet(const Graph& g) {
  EdgeSet out;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) {
      if (u < v) out.insert({u, v});
    }
  }
  return out;
}

Graph FromEdgeSet(const EdgeSet& edges, NodeId num_nodes) {
  EdgeList list(num_nodes);
  for (const auto& [u, v] : edges) list.Add(u, v);
  return Graph::FromEdgeList(std::move(list));
}

// Mirror of the side the matcher mutates, used to build the reference
// graphs for the from-scratch run. Records apply in order; the node range
// follows the serve growth rule at the end of each batch: only an insert
// that survives its batch (an edge absent before it and present after)
// can extend the range.
struct SideModel {
  EdgeSet edges;
  NodeId num_nodes = 0;

  void Apply(const EdgeDelta& d) {
    if (d.u == d.v) return;
    if (d.insert) {
      edges.insert(Canon(d.u, d.v));
    } else {
      edges.erase(Canon(d.u, d.v));
    }
  }

  // `batch_start` is `edges` as the batch began.
  void EndBatch(const EdgeSet& batch_start) {
    for (const auto& [u, v] : edges) {
      if (batch_start.count({u, v}) == 0) {
        num_nodes = std::max(num_nodes, v + 1);
      }
    }
  }
};

void ApplyBatch(const std::vector<EdgeDelta>& batch, SideModel& model1,
                SideModel& model2) {
  const EdgeSet start1 = model1.edges, start2 = model2.edges;
  for (const EdgeDelta& d : batch) (d.graph == 1 ? model1 : model2).Apply(d);
  model1.EndBatch(start1);
  model2.EndBatch(start2);
}

struct GridCase {
  const char* name;
  int threads;
};

std::string CaseName(const testing::TestParamInfo<GridCase>& info) {
  return info.param.name;
}

// Deterministic delta script: several batches of deletes of present edges
// (graph 1 and 2), fresh inserts, re-inserts of previously deleted edges,
// in-batch no-ops (one of them to a new node id, which must not grow the
// node range), node growth past the initial range, and one empty batch.
// Derived from the current models so deletes always hit real edges.
std::vector<std::vector<EdgeDelta>> MakeDeltaScript(SideModel model1,
                                                    SideModel model2,
                                                    uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::vector<EdgeDelta>> script;
  std::vector<std::pair<NodeId, NodeId>> deleted1, deleted2;
  for (int b = 0; b < 6; ++b) {
    std::vector<EdgeDelta> batch;
    const EdgeSet start1 = model1.edges, start2 = model2.edges;
    auto push = [&](int graph, bool insert, NodeId u, NodeId v) {
      EdgeDelta d;
      d.graph = graph;
      d.insert = insert;
      d.u = u;
      d.v = v;
      batch.push_back(d);
      (graph == 1 ? model1 : model2).Apply(d);
    };
    if (b == 3) {
      script.push_back(batch);  // empty batch: must be a strict no-op
      continue;
    }
    if (b == 1) {
      // Net no-ops, first in the batch so nothing else touches their
      // edges: an edge to a brand-new node id inserted then deleted, a
      // delete of an absent edge to a new id, a self-loop, and a present
      // edge deleted then re-inserted. None may grow a node range.
      push(1, true, 0, model1.num_nodes + 3);
      push(1, false, model1.num_nodes + 3, 0);
      push(2, false, 1, model2.num_nodes + 7);
      push(1, true, 4, 4);
      const auto edge = *model2.edges.begin();
      push(2, false, edge.first, edge.second);
      push(2, true, edge.second, edge.first);
    }
    if (b == 5) {
      // Re-insert an edge that an earlier batch deleted and that is still
      // absent.
      const auto absent = std::find_if(
          deleted1.begin(), deleted1.end(),
          [&model1](const auto& e) { return model1.edges.count(e) == 0; });
      EXPECT_NE(absent, deleted1.end());
      if (absent != deleted1.end()) {
        push(1, true, absent->second, absent->first);
      }
    }
    for (int g = 1; g <= 2; ++g) {
      SideModel& model = g == 1 ? model1 : model2;
      auto& deleted = g == 1 ? deleted1 : deleted2;
      // Delete ~8 present edges.
      std::vector<std::pair<NodeId, NodeId>> present(model.edges.begin(),
                                                     model.edges.end());
      for (int i = 0; i < 8 && !present.empty(); ++i) {
        const auto edge = present[rng() % present.size()];
        if (model.edges.count(edge) == 0) continue;
        deleted.push_back(edge);
        push(g, false, edge.first, edge.second);
      }
      // Insert ~6 fresh edges inside the current range.
      for (int i = 0; i < 6; ++i) {
        const NodeId u = rng() % model.num_nodes;
        const NodeId v = rng() % model.num_nodes;
        if (u == v) continue;
        push(g, true, u, v);
      }
      // Re-insert a couple of edges deleted in *earlier* batches.
      for (int i = 0; i < 2 && !deleted.empty(); ++i) {
        const auto edge = deleted[rng() % deleted.size()];
        push(g, true, edge.first, edge.second);
      }
    }
    if (b == 4) {
      // Grow both graphs: attach brand-new nodes to existing ones.
      push(1, true, model1.num_nodes + 2, rng() % model1.num_nodes);
      push(2, true, model2.num_nodes + 1, rng() % model2.num_nodes);
    }
    model1.EndBatch(start1);
    model2.EndBatch(start2);
    script.push_back(std::move(batch));
  }
  return script;
}

class ServeDifferentialTest : public testing::TestWithParam<GridCase> {};

TEST_P(ServeDifferentialTest, MatchesBatchRunAfterEveryBatch) {
  const GridCase param = GetParam();
  RealizationPair pair =
      SampleIndependent(GenerateChungLu(PowerLawWeights(700, 2.4, 12.0), 881),
                        {.s1 = 0.62, .s2 = 0.62}, 883);
  SeedOptions seed_options;
  seed_options.fraction = 0.09;
  const auto seeds = GenerateSeeds(pair, seed_options, 887);
  ASSERT_FALSE(seeds.empty());

  ServeConfig config;
  config.matcher.min_score = 2;
  config.matcher.num_iterations = 2;
  config.matcher.num_threads = param.threads;

  MatcherConfig reference = config.matcher;
  reference.num_threads = 1;

  SideModel model1{ToEdgeSet(pair.g1), pair.g1.num_nodes()};
  SideModel model2{ToEdgeSet(pair.g2), pair.g2.num_nodes()};
  const auto script = MakeDeltaScript(model1, model2, 100 + param.threads);

  IncrementalMatcher matcher(pair.g1, pair.g2, seeds, config);
  const ServeBatchStats initial = matcher.ApplyBatch({});
  EXPECT_EQ(initial.batch, 1);
  EXPECT_EQ(initial.skipped_rounds, 0);

  {
    // Initial serve match == plain batch run on the initial graphs.
    const MatchResult batch = UserMatching(pair.g1, pair.g2, seeds, reference);
    ASSERT_EQ(matcher.map_1to2(), batch.map_1to2);
    ASSERT_EQ(matcher.map_2to1(), batch.map_2to1);
  }

  for (size_t b = 0; b < script.size(); ++b) {
    const NodeId nodes1 = matcher.g1().num_nodes();
    const NodeId nodes2 = matcher.g2().num_nodes();
    ApplyBatch(script[b], model1, model2);
    const ServeBatchStats stats = matcher.ApplyBatch(script[b]);
    if (b == 1) {
      // The insert and delete of an edge to a new node id cancel out.
      EXPECT_EQ(matcher.g1().num_nodes(), nodes1);
      EXPECT_EQ(matcher.g2().num_nodes(), nodes2);
    }
    if (script[b].empty()) {
      EXPECT_EQ(stats.deltas_applied, 0u);
      EXPECT_EQ(stats.links_added, 0u);
      EXPECT_EQ(stats.links_removed, 0u);
      EXPECT_EQ(stats.replayed_rounds, 0);
    }

    const Graph g1_now = FromEdgeSet(model1.edges, model1.num_nodes);
    const Graph g2_now = FromEdgeSet(model2.edges, model2.num_nodes);
    ASSERT_EQ(matcher.g1().num_nodes(), g1_now.num_nodes()) << "batch " << b;
    ASSERT_EQ(matcher.g2().num_nodes(), g2_now.num_nodes()) << "batch " << b;
    ASSERT_EQ(ToEdgeSet(matcher.g1()), model1.edges) << "batch " << b;
    ASSERT_EQ(ToEdgeSet(matcher.g2()), model2.edges) << "batch " << b;

    const MatchResult batch = UserMatching(g1_now, g2_now, seeds, reference);
    ASSERT_EQ(matcher.map_1to2(), batch.map_1to2) << "batch " << b;
    ASSERT_EQ(matcher.map_2to1(), batch.map_2to1) << "batch " << b;
    EXPECT_EQ(matcher.num_links(),
              static_cast<size_t>(std::count_if(
                  batch.map_1to2.begin(), batch.map_1to2.end(),
                  [](NodeId v) { return v != kInvalidNode; })))
        << "batch " << b;
  }
}

TEST_P(ServeDifferentialTest, SnapshotRoundTripContinuesIdentically) {
  const GridCase param = GetParam();
  RealizationPair pair =
      SampleIndependent(GenerateChungLu(PowerLawWeights(500, 2.3, 10.0), 991),
                        {.s1 = 0.6, .s2 = 0.6}, 993);
  SeedOptions seed_options;
  seed_options.fraction = 0.1;
  const auto seeds = GenerateSeeds(pair, seed_options, 997);

  ServeConfig config;
  config.matcher.num_threads = param.threads;

  SideModel model1{ToEdgeSet(pair.g1), pair.g1.num_nodes()};
  SideModel model2{ToEdgeSet(pair.g2), pair.g2.num_nodes()};
  const auto script = MakeDeltaScript(model1, model2, 17);

  IncrementalMatcher live(pair.g1, pair.g2, seeds, config);
  live.ApplyBatch({});
  live.ApplyBatch(script[0]);
  live.ApplyBatch(script[1]);

  const std::string path = testing::TempDir() + "/serve_roundtrip_" +
                           std::string(param.name) + ".ckpt";
  std::string error;
  ASSERT_TRUE(live.SaveSnapshot(path, &error)) << error;

  // A fresh process: constructed from the ORIGINAL inputs, then restored.
  IncrementalMatcher restored(pair.g1, pair.g2, seeds, config);
  ASSERT_TRUE(restored.LoadSnapshot(path, &error)) << error;
  EXPECT_EQ(restored.batches_applied(), live.batches_applied());
  EXPECT_EQ(restored.map_1to2(), live.map_1to2());
  EXPECT_EQ(restored.num_links(), live.num_links());

  // ApplyBatch({}) on a restored session is a pure no-op.
  const ServeBatchStats noop = restored.ApplyBatch({});
  EXPECT_EQ(noop.replayed_rounds, 0);
  EXPECT_EQ(restored.map_1to2(), live.map_1to2());

  // Both sessions continue through the rest of the script in lockstep.
  for (size_t b = 2; b < script.size(); ++b) {
    live.ApplyBatch(script[b]);
    restored.ApplyBatch(script[b]);
    ASSERT_EQ(restored.map_1to2(), live.map_1to2()) << "batch " << b;
    ASSERT_EQ(restored.map_2to1(), live.map_2to1()) << "batch " << b;
  }

  // Config-mismatch snapshots are rejected with a diagnostic.
  ServeConfig other = config;
  other.matcher.min_score = config.matcher.min_score + 3;
  IncrementalMatcher wrong(pair.g1, pair.g2, seeds, other);
  EXPECT_FALSE(wrong.LoadSnapshot(path, &error));
  EXPECT_NE(error.find("semantics"), std::string::npos) << error;
}

// A graceful-stop request (SIGTERM in reconcile_serve) must not cut a
// batch short: the served matching is still the full batch run.
TEST_P(ServeDifferentialTest, GracefulStopRequestDoesNotTruncateBatch) {
  const GridCase param = GetParam();
  RealizationPair pair =
      SampleIndependent(GenerateChungLu(PowerLawWeights(500, 2.3, 10.0), 661),
                        {.s1 = 0.6, .s2 = 0.6}, 663);
  SeedOptions seed_options;
  seed_options.fraction = 0.1;
  const auto seeds = GenerateSeeds(pair, seed_options, 667);

  ServeConfig config;
  config.matcher.num_threads = param.threads;
  MatcherConfig reference = config.matcher;
  reference.num_threads = 1;

  SideModel model1{ToEdgeSet(pair.g1), pair.g1.num_nodes()};
  SideModel model2{ToEdgeSet(pair.g2), pair.g2.num_nodes()};
  const auto script = MakeDeltaScript(model1, model2, 29);
  ApplyBatch(script[0], model1, model2);
  // The reference runs first: UserMatching itself honours the request.
  const MatchResult initial = UserMatching(pair.g1, pair.g2, seeds, reference);
  const MatchResult after = UserMatching(
      FromEdgeSet(model1.edges, model1.num_nodes),
      FromEdgeSet(model2.edges, model2.num_nodes), seeds, reference);

  IncrementalMatcher matcher(pair.g1, pair.g2, seeds, config);
  RequestGracefulStop();
  matcher.ApplyBatch({});
  const std::vector<NodeId> initial_1to2 = matcher.map_1to2();
  const std::vector<NodeId> initial_2to1 = matcher.map_2to1();
  matcher.ApplyBatch(script[0]);
  ClearGracefulStop();
  EXPECT_EQ(initial_1to2, initial.map_1to2);
  EXPECT_EQ(initial_2to1, initial.map_2to1);
  EXPECT_EQ(matcher.map_1to2(), after.map_1to2);
  EXPECT_EQ(matcher.map_2to1(), after.map_2to1);
}

// A snapshot of the retired version-1 layout (which also carried link,
// round and score sections) is rejected in one line, state untouched.
TEST_P(ServeDifferentialTest, RejectsVersionOneSnapshot) {
  const GridCase param = GetParam();
  RealizationPair pair =
      SampleIndependent(GenerateChungLu(PowerLawWeights(400, 2.3, 10.0), 771),
                        {.s1 = 0.6, .s2 = 0.6}, 773);
  SeedOptions seed_options;
  seed_options.fraction = 0.1;
  const auto seeds = GenerateSeeds(pair, seed_options, 777);

  ServeConfig config;
  config.matcher.num_threads = param.threads;
  IncrementalMatcher matcher(pair.g1, pair.g2, seeds, config);
  matcher.ApplyBatch({});

  // Version 1's META: version, semantics, pinned shards and g1 node count,
  // batch and stream counters, seed count, seeds-emitted flag, link and
  // round counts.
  SnapshotWriter writer;
  writer.BeginSection(1);
  writer.AppendU32(1);
  writer.AppendU32(config.matcher.min_score);
  writer.AppendI32(config.matcher.num_iterations);
  writer.AppendU8(1);
  writer.AppendI32(config.matcher.min_bucket_exponent);
  writer.AppendU8(config.matcher.stop_when_stable ? 1 : 0);
  writer.AppendI32(4);
  writer.AppendU64(pair.g1.num_nodes());
  writer.AppendI32(7);
  writer.AppendU64(99);
  writer.AppendU64(seeds.size());
  writer.AppendU8(1);
  writer.AppendU64(seeds.size());
  writer.AppendU64(0);
  writer.EndSection();
  const std::string path = testing::TempDir() + "/serve_v1_" +
                           std::string(param.name) + ".ckpt";
  std::string error;
  ASSERT_TRUE(writer.Commit(path, &error)) << error;

  const std::vector<NodeId> before = matcher.map_1to2();
  const size_t links = matcher.num_links();
  EXPECT_FALSE(matcher.LoadSnapshot(path, &error));
  EXPECT_NE(error.find("version 1"), std::string::npos) << error;
  EXPECT_EQ(error.find('\n'), std::string::npos) << error;
  EXPECT_EQ(matcher.batches_applied(), 1);
  EXPECT_EQ(matcher.deltas_consumed(), 0u);
  EXPECT_EQ(matcher.num_links(), links);
  EXPECT_EQ(matcher.map_1to2(), before);
  EXPECT_EQ(matcher.g1().num_nodes(), pair.g1.num_nodes());
  EXPECT_EQ(matcher.g1().num_edges(), pair.g1.num_edges());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ServeDifferentialTest,
    testing::Values(
        GridCase{"T4", 4},
        GridCase{"T1", 1}),
    CaseName);

}  // namespace
}  // namespace reconcile
