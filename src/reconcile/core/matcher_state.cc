#include "reconcile/core/matcher_state.h"

#include <algorithm>
#include <cstdio>

#include "reconcile/util/checkpoint.h"
#include "reconcile/util/logging.h"
#include "reconcile/util/timer.h"

namespace reconcile {

namespace {

// The `(level, shard)` score layout. Degree levels partition candidate
// pairs by the first bucket in which they become eligible: level(u, v) =
// min(log2 d1(u), log2 d2(v)), so the pairs eligible at bucket threshold 2^j
// are exactly those stored at levels >= j. Shards are a range partition on
// the g1 node id alone (shard(u, v) = u * S / n1), so every pair (u, ·), at
// every level, lives in shard(u).
constexpr int kNumLevels = 33;

int FloorLog2(NodeId x) {
  int log = 0;
  while (x > 1) {
    x >>= 1;
    ++log;
  }
  return log;
}

// Nodes/edges/degree-sequence mix binding a snapshot to its graph pair. A
// sanity check against resuming into the wrong run, not a collision-proof
// content hash.
uint64_t GraphFingerprint(const Graph& g) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  mix(g.num_nodes());
  mix(g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) mix(g.degree(v));
  return h;
}

// Snapshot section ids (see SaveSnapshot for the layout). Id 3 held the
// scores of the removed hash backend.
constexpr uint32_t kSectionMeta = 1;
constexpr uint32_t kSectionLinks = 2;
constexpr uint32_t kSectionScores = 4;

// Bumped whenever the META/LINKS/SCORES payloads change shape. Version 2
// appends each cell's parked keys after its tiers; a version-1 snapshot is
// a state with nothing parked and still loads.
constexpr uint32_t kMatcherStateVersion = 2;
constexpr uint32_t kUnparkedStateVersion = 1;

// Budget accounting charges a parked key its raw size, whether it sits in
// a producer chunk or in a snapshot's aggregate, so budget decisions do
// not depend on whether the run resumed.
constexpr size_t kParkedKeyBytes = sizeof(uint64_t);

// META's two engine bytes. Snapshots once recorded which scoring engine
// (incremental or recompute) and which backend (radix or hash) wrote them;
// only the incremental radix pair is left, so these are written as
// constants and anything else is rejected on load.
constexpr uint8_t kIncrementalEngine = 1;
constexpr uint8_t kRadixBackend = 1;

// floor(log2(max(1, degree))) per node — the per-node half of the level
// function above.
std::vector<uint8_t> DegreeLevels(const Graph& g) {
  std::vector<uint8_t> levels(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    levels[v] =
        static_cast<uint8_t>(FloorLog2(std::max<NodeId>(1, g.degree(v))));
  }
  return levels;
}

std::vector<uint32_t> RadixShardTable(NodeId n1, int num_shards) {
  // Range partition on the high key bits (the g1 node id): shard(u, v) =
  // u * S / n1, precomputed per node so the emission loop pays one array
  // load instead of a hash mix or a 64-bit divide. Each shard owns a
  // contiguous key interval, so per-shard runs stay disjoint and their
  // concatenation is globally sorted.
  const uint64_t n = std::max<uint64_t>(1, n1);
  std::vector<uint32_t> table(n1);
  for (NodeId u = 0; u < n1; ++u) {
    table[u] = static_cast<uint32_t>(static_cast<uint64_t>(u) *
                                     static_cast<uint64_t>(num_shards) / n);
  }
  return table;
}

// `config.num_shards` when positive, else max(4, worker threads). The count
// is fingerprinted into checkpoints.
int ResolveShardCount(const MatcherConfig& config, int num_threads) {
  return config.num_shards > 0 ? config.num_shards : std::max(4, num_threads);
}

// The top degree-bucket exponent of the round schedule (0 when bucketing is
// off or both graphs are empty).
int TopBucketExponent(const Graph& g1, const Graph& g2,
                      const MatcherConfig& config) {
  const NodeId max_degree = std::max(g1.max_degree(), g2.max_degree());
  return config.use_degree_bucketing && max_degree > 0 ? FloorLog2(max_degree)
                                                       : 0;
}

}  // namespace

MatcherState::MatcherState(const Graph& g1, const Graph& g2,
                           const MatcherConfig& config)
    : g1_(g1),
      g2_(g2),
      config_(config),
      pool_(config.num_threads > 0 ? config.num_threads
                                   : ThreadPool::DefaultThreads()),
      num_shards_(ResolveShardCount(config, pool_.num_threads())),
      map_1to2_(g1.num_nodes(), kInvalidNode),
      map_2to1_(g2.num_nodes(), kInvalidNode),
      selection_(g1.num_nodes(), g2.num_nodes()) {
  level1_ = DegreeLevels(g1);
  level2_ = DegreeLevels(g2);
  runs_ = MakeScoreCells();
  parked_.resize(kNumLevels);
  for (auto& level : parked_) level.resize(static_cast<size_t>(num_shards_));
  radix_shard1_ = RadixShardTable(g1.num_nodes(), num_shards_);
  if (config.memory_budget_bytes > 0) {
    // The budget is a resource knob, not a semantic one: without a scratch
    // directory the run goes unbudgeted with a one-line note.
    if (config.score_dir.empty()) {
      std::fprintf(stderr,
                   "warning: --memory-budget without --score-dir; running "
                   "unbudgeted\n");
    } else {
      spill_store_ = std::make_unique<SpillStore>(config.score_dir);
    }
  }

  graph_fp1_ = GraphFingerprint(g1);
  graph_fp2_ = GraphFingerprint(g2);

  top_exponent_ = TopBucketExponent(g1, g2, config);
  bottom_exponent_ = std::min(config.min_bucket_exponent, top_exponent_);
  current_bucket_ = config.use_degree_bucketing ? top_exponent_
                                                : config.min_bucket_exponent;
}

MatcherState::~MatcherState() = default;

std::vector<std::vector<TieredCountRuns>> MatcherState::MakeScoreCells()
    const {
  std::vector<std::vector<TieredCountRuns>> cells(kNumLevels);
  for (auto& level : cells) {
    level.reserve(static_cast<size_t>(num_shards_));
    for (int shard = 0; shard < num_shards_; ++shard) {
      level.emplace_back(config_.min_score);
    }
  }
  return cells;
}

void MatcherState::SeedLinks(
    std::span<const std::pair<NodeId, NodeId>> seeds) {
  RECONCILE_CHECK(!seeded_) << "SeedLinks called twice";
  RECONCILE_CHECK_EQ(links_.size(), 0u);
  seeded_ = true;
  num_seeds_ = seeds.size();
  for (const auto& [u, v] : seeds) {
    RECONCILE_CHECK_LT(u, g1_.num_nodes());
    RECONCILE_CHECK_LT(v, g2_.num_nodes());
    RECONCILE_CHECK_EQ(map_1to2_[u], kInvalidNode)
        << "duplicate seed for g1 node " << u;
    RECONCILE_CHECK_EQ(map_2to1_[v], kInvalidNode)
        << "duplicate seed for g2 node " << v;
    map_1to2_[u] = v;
    map_2to1_[v] = u;
    links_.emplace_back(u, v);
  }
}

size_t MatcherState::RunRound() {
  RECONCILE_CHECK(seeded_) << "RunRound before SeedLinks";
  RECONCILE_CHECK(!done_) << "RunRound on a finished state";
  const size_t accepted = Round(iteration_, current_bucket_);
  ++completed_rounds_;
  new_links_this_iteration_ += accepted;
  AdvanceCursor();
  return accepted;
}

// Advances the flattened (iteration, bucket) cursor past the round that
// just ran — the exact schedule the old driver loop produced: buckets
// top..bottom per iteration (one round per iteration without bucketing),
// stop at the iteration cap or on a stable iteration, compact the score
// state between iterations.
void MatcherState::AdvanceCursor() {
  if (config_.use_degree_bucketing && current_bucket_ > bottom_exponent_) {
    --current_bucket_;
    return;
  }
  // The round that just ran closed iteration `iteration_`.
  if ((config_.stop_when_stable && new_links_this_iteration_ == 0) ||
      iteration_ >= config_.num_iterations) {
    done_ = true;
    return;
  }
  CompactScores();
  ++iteration_;
  new_links_this_iteration_ = 0;
  current_bucket_ = config_.use_degree_bucketing ? top_exponent_
                                                 : config_.min_bucket_exponent;
}

// Drops dead entries (pairs whose endpoints are both matched: they can
// neither be accepted nor block an unmatched node) from the persistent
// score state and its frontiers; called between outer iterations to keep
// merges and memory proportional to the live pairs. Emission stopped
// adding such pairs once both endpoints were matched; this sweep removes
// the ones that died after their keys were stored. Nothing is parked here:
// an iteration's last round reads every level emission writes to.
void MatcherState::CompactScores() {
  RECONCILE_CHECK_EQ(parked_keys(), 0u);
  const size_t cells =
      static_cast<size_t>(kNumLevels) * static_cast<size_t>(num_shards_);
  // Tier stacks compact with an in-place filtering sweep per tier — no
  // rebuild, order preserved. The liveness predicate depends on the key
  // alone, so filtering tiers independently preserves every key's
  // cross-tier total.
  ParallelForEach(&pool_, cells, [this](size_t cell) {
    TieredCountRuns& store = runs_[cell / static_cast<size_t>(num_shards_)]
                                  [cell % static_cast<size_t>(num_shards_)];
    if (store.empty()) return;
    store.Filter([this](uint64_t key, uint32_t) {
      return map_1to2_[PairFirst(key)] == kInvalidNode ||
             map_2to1_[PairSecond(key)] == kInvalidNode;
    });
  });
}

MatchResult MatcherState::TakeResult(double total_seconds) {
  MatchResult result;
  result.seeds.assign(links_.begin(),
                      links_.begin() + static_cast<ptrdiff_t>(num_seeds_));
  result.map_1to2 = std::move(map_1to2_);
  result.map_2to1 = std::move(map_2to1_);
  result.phases = std::move(phases_);
  result.total_seconds = total_seconds;
  return result;
}

// Applies the mutual-unique-best rule over the scored pairs held in
// `units` through the shared `SelectionEngine` (`core/selection.h`), which
// commits accepted links directly into the maps and the link log.
size_t MatcherState::SelectAndCommit(const std::vector<FrontierView>& units,
                                     PhaseStats* stats) {
  SelectionContext ctx;
  ctx.pool = &pool_;
  ctx.map_1to2 = &map_1to2_;
  ctx.map_2to1 = &map_2to1_;
  ctx.links = &links_;
  return selection_.SelectAndCommit(units, ctx, stats);
}

// --- Incremental scoring ---------------------------------------------------
// Witness scores are additive over links, so each link's neighbour-pair
// contributions are emitted exactly once — when the link enters L — into
// persistent per-level score state. A bucket-j round scans levels >= j.
// This reproduces the paper's rebuild-every-round scores (the paper-literal
// oracle in tests/support/ checks it) without the per-bucket rescoring
// factor in the running time.

// Chunk size the work-stealing emission loop claims per lock acquisition.
// Per-item cost is heavy-tailed on skewed graphs (a hub link emits
// deg(hub)^2-ish pairs), so the grain aims at 64 claims per worker;
// claims are a spinlock pop, so the extra traffic is cheap.
size_t MatcherState::EmitGrain(size_t num_items) const {
  return ThreadPool::GrainSize(num_items, pool_.num_threads(), 1, 64);
}

// Emits the witness keys of links_[emitted_links_ ..) and parks them in
// their (level, shard) cells, filling `stats`' emission count and
// `emit_seconds`. Emission appends packed keys into per-(level, shard)
// producer chunks — one array store each, the shard being a precomputed
// per-node lookup. A pair whose two endpoints are both matched is dead —
// it can never be accepted, and its observations would only touch
// best-table entries of matched nodes, which the accept pass never reads —
// and matched-ness only grows within a run, so such pairs are skipped here
// instead of being sorted and merged only for `CompactScores` to drop
// them; `PhaseStats::emissions` counts the keys actually appended. The
// chunks are parked as they are; a chunk whose cell this round does not
// read (level below `bucket_exponent`) gives back its growth slack first.
void MatcherState::EmitPendingLinks(int bucket_exponent, PhaseStats* stats) {
  const size_t begin = emitted_links_;
  const size_t end = links_.size();
  if (begin == end) return;
  emitted_links_ = end;

  const NodeId dmin = static_cast<NodeId>(1u) << config_.min_bucket_exponent;
  struct RadixDelta {
    std::vector<std::vector<KeyBuffer>> keys;  // [level][shard]
    uint64_t emissions = 0;
  };
  const size_t num_items = end - begin;

  Timer emit_timer;
  auto emit_range = [this, begin, dmin](RadixDelta& delta, size_t lo,
                                        size_t hi) {
    if (delta.keys.empty()) delta.keys.resize(kNumLevels);
    auto& keys = delta.keys;
    for (size_t item = lo; item < hi; ++item) {
      const auto [a1, a2] = links_[begin + item];
      for (NodeId u : g1_.NeighborsByDegree(a1)) {
        if (g1_.degree(u) < dmin) break;  // prefix is degree-sorted
        const uint8_t lu = level1_[u];
        const uint32_t shard = radix_shard1_[u];
        const bool u_matched = map_1to2_[u] != kInvalidNode;
        for (NodeId v : g2_.NeighborsByDegree(a2)) {
          if (g2_.degree(v) < dmin) break;
          if (u_matched && map_2to1_[v] != kInvalidNode) continue;  // dead
          const uint8_t level = std::min(lu, level2_[v]);
          if (keys[level].empty()) {
            keys[level].resize(static_cast<size_t>(num_shards_));
          }
          keys[level][shard].push_back(PackPair(u, v));
          ++delta.emissions;
        }
      }
    }
  };
  std::vector<RadixDelta> deltas = ParallelProduce<RadixDelta>(
      &pool_, num_items, EmitGrain(num_items), emit_range);

  for (RadixDelta& delta : deltas) {
    stats->emissions += static_cast<size_t>(delta.emissions);
    for (size_t level = 0; level < delta.keys.size(); ++level) {
      for (size_t shard = 0; shard < delta.keys[level].size(); ++shard) {
        KeyBuffer& chunk = delta.keys[level][shard];
        if (chunk.empty()) continue;
        if (static_cast<int>(level) < bucket_exponent) chunk.ShrinkToFit();
        ParkedCell& cell = parked_[level][shard];
        cell.keys += chunk.size();
        cell.chunks.push_back(std::move(chunk));
      }
    }
  }
  stats->emit_seconds += emit_timer.Seconds();
}

SortedCountRun MatcherState::ParkedCell::Aggregate() const {
  std::vector<std::span<const uint64_t>> spans;
  spans.reserve(chunks.size());
  for (const KeyBuffer& chunk : chunks) spans.push_back(chunk.keys());
  SortedCountRun run = BuildCountRun(spans);
  MergeCountRuns(run, aggregated);
  return run;
}

// One `BuildCountRun` over the cell's chunks (merged with a snapshot's
// aggregate, if any) and one `Append` per cell; the tier stack folds that
// run into its big run only when the size-ratio rule trips.
void MatcherState::FoldCells(const std::vector<size_t>& cells) {
  const size_t shards = static_cast<size_t>(num_shards_);
  ParallelForEach(&pool_, cells.size(), [this, &cells, shards](size_t i) {
    ParkedCell& parked = parked_[cells[i] / shards][cells[i] % shards];
    runs_[cells[i] / shards][cells[i] % shards].Append(parked.Aggregate());
    parked = ParkedCell{};
  });
}

uint64_t MatcherState::parked_keys() const {
  uint64_t total = 0;
  for (const auto& level : parked_) {
    for (const ParkedCell& cell : level) total += cell.keys;
  }
  return total;
}

// --- Memory-budget enforcement -------------------------------------------
// Runs after a round's folds, before selection. Resident payload is the
// tiers held in RAM, the frontiers and the parked keys. Parked keys cannot
// be spilled, only folded into a tier that can: while the parked and
// frontier bytes alone exceed the budget, the largest parked cells fold
// (ties break on (level, shard)), so a budget below the frontier folds
// every cell each round — the schedule without deferral. Then, while the
// resident payload exceeds the budget, spill the largest resident
// tiers to the score directory (largest-first frees the most RAM per file;
// ties break on (level, shard, tier index) so the spill schedule — and
// thus the fault points any injected failure lands on — is deterministic).
// The frontiers selection reads are never spilled; later frontier lookups
// read spilled tiers through the same views, so the matching is unchanged
// by construction; only the resident footprint moves.
//
// Failure policy (the robustness contract): a failed spill leaves its tier
// resident and is worth one stderr line; after `kMaxSpillFailures` the
// store disables itself and the run continues all-resident. Running over
// budget is a degraded mode, never an error — the alternative (aborting a
// long matching because /tmp filled up) loses work for nothing.
void MatcherState::EnforceMemoryBudget(PhaseStats* stats) {
  if (spill_store_ == nullptr) return;
  constexpr size_t kMaxSpillFailures = 8;
  const uint64_t budget = config_.memory_budget_bytes;
  const size_t shards = static_cast<size_t>(num_shards_);

  if (!spill_store_->disabled()) {
    size_t unspillable = 0;
    struct ParkedCandidate {
      size_t bytes;
      size_t cell;
    };
    std::vector<ParkedCandidate> parked;
    for (size_t cell = 0; cell < runs_.size() * shards; ++cell) {
      const size_t bytes =
          parked_[cell / shards][cell % shards].keys * kParkedKeyBytes;
      unspillable += runs_[cell / shards][cell % shards].frontier_bytes() +
                     bytes;
      if (bytes > 0) parked.push_back(ParkedCandidate{bytes, cell});
    }
    std::sort(parked.begin(), parked.end(),
              [](const ParkedCandidate& a, const ParkedCandidate& b) {
                if (a.bytes != b.bytes) return a.bytes > b.bytes;
                return a.cell < b.cell;
              });
    std::vector<size_t> fold;
    for (const ParkedCandidate& c : parked) {
      if (unspillable <= budget) break;
      fold.push_back(c.cell);
      unspillable -= c.bytes;
    }
    if (!fold.empty()) {
      Timer merge_timer;
      FoldCells(fold);
      stats->merge_seconds += merge_timer.Seconds();
    }
  }

  size_t resident = 0;
  size_t spilled_bytes = 0;
  struct Candidate {
    size_t bytes;
    size_t level;
    size_t shard;
    size_t tier;
  };
  std::vector<Candidate> candidates;
  for (size_t level = 0; level < runs_.size(); ++level) {
    for (size_t shard = 0; shard < runs_[level].size(); ++shard) {
      const TieredCountRuns& store = runs_[level][shard];
      resident += store.resident_bytes() +
                  parked_[level][shard].keys * kParkedKeyBytes;
      for (size_t t = 0; t < store.num_tiers(); ++t) {
        const size_t bytes =
            TieredCountRuns::BytesForEntries(store.tier_size(t));
        if (store.tier_spilled(t)) {
          spilled_bytes += bytes;
        } else if (bytes > 0) {
          candidates.push_back(Candidate{bytes, level, shard, t});
        }
      }
    }
  }

  if (resident > budget && !spill_store_->disabled()) {
    Timer spill_timer;
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.bytes != b.bytes) return a.bytes > b.bytes;
                if (a.level != b.level) return a.level < b.level;
                if (a.shard != b.shard) return a.shard < b.shard;
                return a.tier < b.tier;
              });
    size_t next = 0;
    while (resident > budget && next < candidates.size() &&
           !spill_store_->disabled()) {
      // Plan, in candidate order, the prefix that reaches the budget if
      // every spill succeeds.
      const size_t first = next;
      std::vector<SpillPlan> plans;
      for (size_t planned = resident;
           planned > budget && next < candidates.size(); ++next) {
        plans.push_back(spill_store_->Plan());
        planned -= candidates[next].bytes;
      }
      std::vector<std::unique_ptr<SpilledRun>> written(plans.size());
      std::vector<std::string> errors(plans.size());
      ParallelForEach(&pool_, plans.size(), [&](size_t i) {
        const Candidate& c = candidates[first + i];
        written[i] = SpillStore::Write(
            plans[i], runs_[c.level][c.shard].resident_tier(c.tier),
            &errors[i]);
      });
      // Commit in candidate order. Runs written past the failure that
      // disables the store are dropped, which unlinks their files.
      for (size_t i = 0; i < plans.size(); ++i) {
        const Candidate& c = candidates[first + i];
        spill_store_->Commit(written[i].get());
        if (written[i] != nullptr) {
          runs_[c.level][c.shard].AdoptSpill(c.tier, std::move(written[i]));
          resident -= c.bytes;
          spilled_bytes += c.bytes;
          ++stats->tiers_spilled;
          continue;
        }
        std::fprintf(stderr,
                     "warning: spill of score tier (level %zu, shard %zu) "
                     "failed, keeping it resident: %s\n",
                     c.level, c.shard, errors[i].c_str());
        if (spill_store_->stats().spill_failures >= kMaxSpillFailures) {
          std::fprintf(stderr,
                       "warning: %zu spill failures; disabling the score "
                       "spill layer, continuing over budget\n",
                       spill_store_->stats().spill_failures);
          spill_store_->Disable();
          break;
        }
      }
    }
    stats->spill_seconds = spill_timer.Seconds();
  }
  stats->resident_score_bytes = resident;
  stats->spilled_score_bytes = spilled_bytes;
}

// One scoring round at bucket exponent `bucket_exponent` (candidates must
// have degree >= 2^bucket_exponent on both sides). Returns links accepted.
size_t MatcherState::Round(int iteration, int bucket_exponent) {
  Timer timer;
  PhaseStats stats;
  stats.iteration = iteration;
  stats.bucket_exponent = bucket_exponent;
  stats.links_in = links_.size();
  stats.num_threads = pool_.num_threads();

  EmitPendingLinks(bucket_exponent, &stats);
  // Fold every parked cell this round reads — also in a round that emitted
  // nothing — so each eligible cell's aggregate is complete.
  std::vector<size_t> eligible;
  for (int level = bucket_exponent; level < kNumLevels; ++level) {
    for (int shard = 0; shard < num_shards_; ++shard) {
      if (parked_[static_cast<size_t>(level)][static_cast<size_t>(shard)]
              .keys > 0) {
        eligible.push_back(static_cast<size_t>(level * num_shards_ + shard));
      }
    }
  }
  Timer merge_timer;
  FoldCells(eligible);
  stats.merge_seconds += merge_timer.Seconds();
  EnforceMemoryBudget(&stats);
  stats.parked_keys = parked_keys();

  // Selection reads only the eligible cells' threshold frontiers; empty
  // ones are skipped, which leaves the link-log order unchanged.
  std::vector<FrontierView> units;
  for (int level = bucket_exponent; level < kNumLevels; ++level) {
    for (const TieredCountRuns& store : runs_[static_cast<size_t>(level)]) {
      if (!store.frontier().empty()) units.push_back(store.frontier());
    }
  }
  size_t accepted = SelectAndCommit(units, &stats);

  stats.new_links = accepted;
  stats.seconds = timer.Seconds();
  phases_.push_back(stats);
  return accepted;
}

// --- Snapshot serialization ----------------------------------------------

bool MatcherState::SaveSnapshot(const std::string& path,
                                std::string* error) {
  // Parked keys are written as each cell's aggregate. Keeping that
  // aggregate in place of the chunks changes neither what the cell will
  // fold nor the budget's count of its keys, and spares the next snapshot
  // sorting the same keys again.
  const size_t shards = static_cast<size_t>(num_shards_);
  ParallelForEach(&pool_, runs_.size() * shards, [this, shards](size_t cell) {
    ParkedCell& parked = parked_[cell / shards][cell % shards];
    if (parked.chunks.empty()) return;
    parked.aggregated = parked.Aggregate();
    parked.chunks.clear();
  });

  SnapshotWriter writer;

  writer.BeginSection(kSectionMeta);
  writer.AppendU32(kMatcherStateVersion);
  // Graph fingerprint: a snapshot only resumes against the pair it was
  // taken from.
  writer.AppendU64(g1_.num_nodes());
  writer.AppendU64(g1_.num_edges());
  writer.AppendU64(graph_fp1_);
  writer.AppendU64(g2_.num_nodes());
  writer.AppendU64(g2_.num_edges());
  writer.AppendU64(graph_fp2_);
  // Config fingerprint: the knobs that change what the matcher computes or
  // how the score state is laid out. Execution-only knobs (threads, memory
  // budget) are matching-invariant and intentionally absent — see the
  // class comment.
  writer.AppendU32(config_.min_score);
  writer.AppendI32(config_.num_iterations);
  writer.AppendU8(config_.use_degree_bucketing ? 1 : 0);
  writer.AppendI32(config_.min_bucket_exponent);
  writer.AppendU8(config_.stop_when_stable ? 1 : 0);
  writer.AppendU8(kIncrementalEngine);
  writer.AppendU8(kRadixBackend);
  writer.AppendI32(num_shards_);
  // Round cursor.
  writer.AppendI32(iteration_);
  writer.AppendI32(current_bucket_);
  writer.AppendI32(top_exponent_);
  writer.AppendI32(bottom_exponent_);
  writer.AppendU64(new_links_this_iteration_);
  writer.AppendI32(completed_rounds_);
  writer.AppendU8(done_ ? 1 : 0);
  writer.AppendU64(num_seeds_);
  writer.AppendU64(emitted_links_);
  writer.AppendU64(links_.size());
  writer.EndSection();

  writer.BeginSection(kSectionLinks);
  writer.AppendVector(links_);
  writer.EndSection();

  writer.BeginSection(kSectionScores);
  for (size_t level = 0; level < runs_.size(); ++level) {
    for (size_t shard = 0; shard < shards; ++shard) {
      const TieredCountRuns& store = runs_[level][shard];
      writer.AppendU32(static_cast<uint32_t>(store.num_tiers()));
      // Tier contents are serialized through views, so a spilled tier
      // streams its bytes straight from the mmap and the snapshot is
      // byte-identical whether the store is resident, spilled or mixed.
      // Snapshots stay self-contained: spill files are scratch, never
      // referenced by durable state.
      store.ForEachTier([&writer](RunView tier) {
        writer.AppendU64(tier.size);
        writer.AppendBytes(tier.keys, tier.size * sizeof(uint64_t));
        writer.AppendU64(tier.size);
        writer.AppendBytes(tier.counts, tier.size * sizeof(uint32_t));
      });
      const SortedCountRun& parked = parked_[level][shard].aggregated;
      writer.AppendVector(parked.keys);
      writer.AppendVector(parked.counts);
    }
  }
  writer.EndSection();

  return writer.Commit(path, error);
}

bool MatcherState::RebuildMaps(
    const std::vector<std::pair<NodeId, NodeId>>& links,
    std::vector<NodeId>* map_1to2, std::vector<NodeId>* map_2to1,
    std::string* error) const {
  map_1to2->assign(g1_.num_nodes(), kInvalidNode);
  map_2to1->assign(g2_.num_nodes(), kInvalidNode);
  for (const auto& [u, v] : links) {
    if (u >= g1_.num_nodes() || v >= g2_.num_nodes()) {
      *error = "link (" + std::to_string(u) + ", " + std::to_string(v) +
               ") out of range";
      return false;
    }
    if ((*map_1to2)[u] != kInvalidNode || (*map_2to1)[v] != kInvalidNode) {
      *error = "link (" + std::to_string(u) + ", " + std::to_string(v) +
               ") conflicts with an earlier link";
      return false;
    }
    (*map_1to2)[u] = v;
    (*map_2to1)[v] = u;
  }
  return true;
}

bool MatcherState::LoadSnapshot(const std::string& path, std::string* error) {
  RECONCILE_CHECK(seeded_) << "LoadSnapshot before SeedLinks";

  SnapshotReader reader;
  if (!reader.Open(path, error)) return false;

  SnapshotReader::Section* meta = reader.Find(kSectionMeta);
  if (meta == nullptr) {
    *error = path + ": missing META section";
    return false;
  }

  // META: parse and validate everything before touching any member.
  uint32_t state_version = 0;
  if (!meta->ReadU32(&state_version)) {
    *error = path + ": truncated META";
    return false;
  }
  if (state_version != kMatcherStateVersion &&
      state_version != kUnparkedStateVersion) {
    *error = path + ": matcher state version " +
             std::to_string(state_version) + " (want " +
             std::to_string(kUnparkedStateVersion) + " or " +
             std::to_string(kMatcherStateVersion) + ")";
    return false;
  }
  uint64_t n1 = 0, e1 = 0, fp1 = 0, n2 = 0, e2 = 0, fp2 = 0;
  meta->ReadU64(&n1);
  meta->ReadU64(&e1);
  meta->ReadU64(&fp1);
  meta->ReadU64(&n2);
  meta->ReadU64(&e2);
  meta->ReadU64(&fp2);
  uint32_t min_score = 0;
  int32_t num_iterations = 0, min_bucket_exponent = 0, snap_shards = 0;
  uint8_t bucketing = 0, stop_when_stable = 0, incremental = 0, radix = 0;
  meta->ReadU32(&min_score);
  meta->ReadI32(&num_iterations);
  meta->ReadU8(&bucketing);
  meta->ReadI32(&min_bucket_exponent);
  meta->ReadU8(&stop_when_stable);
  meta->ReadU8(&incremental);
  meta->ReadU8(&radix);
  meta->ReadI32(&snap_shards);
  int32_t iteration = 0, current_bucket = 0, top_exponent = 0,
          bottom_exponent = 0, completed_rounds = 0;
  uint64_t new_links_this_iteration = 0, num_seeds = 0, emitted_links = 0,
           num_links = 0;
  uint8_t done = 0;
  meta->ReadI32(&iteration);
  meta->ReadI32(&current_bucket);
  meta->ReadI32(&top_exponent);
  meta->ReadI32(&bottom_exponent);
  meta->ReadU64(&new_links_this_iteration);
  meta->ReadI32(&completed_rounds);
  meta->ReadU8(&done);
  meta->ReadU64(&num_seeds);
  meta->ReadU64(&emitted_links);
  if (!meta->ReadU64(&num_links) || !meta->ok()) {
    *error = path + ": truncated META";
    return false;
  }
  if (incremental != kIncrementalEngine) {
    *error = path + ": written by the removed recompute scoring engine; "
                    "only incremental-engine snapshots resume";
    return false;
  }
  if (radix != kRadixBackend) {
    *error = path + ": written by the removed hash scoring backend; only "
                    "radix-backend snapshots resume";
    return false;
  }

  if (n1 != g1_.num_nodes() || e1 != g1_.num_edges() || fp1 != graph_fp1_ ||
      n2 != g2_.num_nodes() || e2 != g2_.num_edges() || fp2 != graph_fp2_) {
    *error = path + ": snapshot was taken against a different graph pair";
    return false;
  }
  const bool config_matches =
      min_score == config_.min_score &&
      num_iterations == config_.num_iterations &&
      (bucketing != 0) == config_.use_degree_bucketing &&
      min_bucket_exponent == config_.min_bucket_exponent &&
      (stop_when_stable != 0) == config_.stop_when_stable &&
      snap_shards == num_shards_;
  if (!config_matches) {
    *error = path +
             ": snapshot config mismatch (threshold/iterations/bucketing/"
             "shards differ from this run — resume with the configuration "
             "the checkpoint was written under, including an explicit shard "
             "count if thread counts differ)";
    return false;
  }
  const bool cursor_sane =
      top_exponent == top_exponent_ && bottom_exponent == bottom_exponent_ &&
      iteration >= 1 && iteration <= num_iterations &&
      (bucketing != 0
           ? current_bucket >= bottom_exponent && current_bucket <= top_exponent
           : current_bucket == min_bucket_exponent) &&
      completed_rounds >= 0 && num_seeds <= num_links &&
      emitted_links <= num_links;
  if (!cursor_sane) {
    *error = path + ": snapshot round cursor is inconsistent";
    return false;
  }
  if (num_seeds != num_seeds_) {
    *error = path + ": snapshot has " + std::to_string(num_seeds) +
             " seeds, this run has " + std::to_string(num_seeds_);
    return false;
  }

  // LINKS: the committed link log; its seed prefix must equal this run's
  // seeds, and the log must rebuild into a consistent one-to-one mapping.
  SnapshotReader::Section* links_section = reader.Find(kSectionLinks);
  if (links_section == nullptr) {
    *error = path + ": missing LINKS section";
    return false;
  }
  std::vector<std::pair<NodeId, NodeId>> links;
  if (!links_section->ReadVector(&links) || links.size() != num_links) {
    *error = path + ": LINKS section does not match its declared size";
    return false;
  }
  for (size_t i = 0; i < num_seeds_; ++i) {
    if (links[i] != links_[i]) {
      *error = path + ": snapshot seed links differ from this run's seeds";
      return false;
    }
  }
  std::vector<NodeId> map_1to2, map_2to1;
  if (!RebuildMaps(links, &map_1to2, &map_2to1, error)) {
    *error = path + ": " + *error;
    return false;
  }

  // SCORES: staged fully before commit.
  SnapshotReader::Section* section = reader.Find(kSectionScores);
  if (section == nullptr) {
    *error = path + ": missing SCORES section";
    return false;
  }
  // A tier or a parked aggregate must be a valid sorted count run
  // (ascending keys, positive counts): the frontier rebuild gallops
  // through tiers, and a fold merges the aggregate as a run.
  auto read_run = [section](SortedCountRun* run) {
    if (!section->ReadVector(&run->keys) ||
        !section->ReadVector(&run->counts) ||
        run->keys.size() != run->counts.size()) {
      return false;
    }
    for (size_t i = 0; i < run->size(); ++i) {
      if (run->counts[i] == 0 ||
          (i > 0 && run->keys[i] <= run->keys[i - 1])) {
        return false;
      }
    }
    return true;
  };
  // Every round reads the levels from its bucket exponent up, so a parked
  // key below the lowest bucket of the schedule would never be folded.
  const int lowest_read_level = config_.use_degree_bucketing
                                    ? bottom_exponent_
                                    : config_.min_bucket_exponent;
  std::vector<std::vector<TieredCountRuns>> runs = MakeScoreCells();
  std::vector<std::vector<ParkedCell>> parked(runs.size());
  for (size_t level = 0; level < runs.size(); ++level) {
    parked[level].resize(runs[level].size());
    for (size_t shard = 0; shard < runs[level].size(); ++shard) {
      TieredCountRuns& store = runs[level][shard];
      uint32_t num_tiers = 0;
      if (!section->ReadU32(&num_tiers)) {
        *error = path + ": truncated SCORES section";
        return false;
      }
      // Rebuild the exact tier stack (no folding): tier boundaries affect
      // when future folds run, and the resumed process must replay them
      // identically. Only a run under a retired larger tier cap could have
      // written more tiers than the store holds.
      if (num_tiers > TieredCountRuns::kMaxTiers) {
        *error = path + ": SCORES cell declares " + std::to_string(num_tiers) +
                 " tiers (at most " +
                 std::to_string(TieredCountRuns::kMaxTiers) + ")";
        return false;
      }
      for (uint32_t t = 0; t < num_tiers; ++t) {
        SortedCountRun tier;
        if (!read_run(&tier) || tier.empty()) {
          *error = path + ": SCORES tier is not a sorted count run";
          return false;
        }
        store.AppendUnfolded(std::move(tier));
      }
      if (state_version == kUnparkedStateVersion) continue;
      ParkedCell& cell = parked[level][shard];
      if (!read_run(&cell.aggregated)) {
        *error = path + ": SCORES parked keys are not a sorted count run";
        return false;
      }
      if (!cell.aggregated.empty() &&
          static_cast<int>(level) < lowest_read_level) {
        *error = path + ": SCORES parks keys at level " +
                 std::to_string(level) + ", which no round reads";
        return false;
      }
      for (uint32_t count : cell.aggregated.counts) cell.keys += count;
    }
  }
  if (!section->AtEnd()) {
    *error = path + ": trailing bytes in SCORES section";
    return false;
  }

  // Everything validated — commit.
  links_ = std::move(links);
  map_1to2_ = std::move(map_1to2);
  map_2to1_ = std::move(map_2to1);
  runs_ = std::move(runs);
  parked_ = std::move(parked);
  emitted_links_ = static_cast<size_t>(emitted_links);
  iteration_ = iteration;
  current_bucket_ = current_bucket;
  new_links_this_iteration_ = static_cast<size_t>(new_links_this_iteration);
  completed_rounds_ = completed_rounds;
  done_ = done != 0;
  phases_.clear();
  return true;
}

}  // namespace reconcile
