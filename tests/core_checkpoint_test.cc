// MatcherState as a resumable object: a snapshot taken between rounds must
// restore into a state that finishes with a matching bit-identical to the
// uninterrupted run — across pause points, multi-tier LSM stacks and shard
// counts — and every corruption or mismatch (truncation, bit flips, wrong
// graph, wrong config, wrong seeds, a snapshot of a removed scoring engine)
// must be a clean LoadSnapshot failure that leaves the state untouched.
// The threshold frontier is not serialized: a resumed run rebuilds it from
// the tiers, so every later round must scan the same frontier pairs.
#include "reconcile/core/matcher_state.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/core/matcher.h"
#include "reconcile/gen/chung_lu.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"
#include "reconcile/util/checkpoint.h"
#include "reconcile/util/tiered_store.h"

namespace reconcile {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<char> Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

struct Workload {
  RealizationPair pair;
  std::vector<std::pair<NodeId, NodeId>> seeds;
};

// Chung-Lu with hubs: several rounds of real link discovery, so mid-run
// snapshots capture a non-trivial score state.
Workload MakeWorkload(uint64_t rng_seed) {
  Graph g = GenerateChungLu(PowerLawWeights(1200, 2.2, 12.0), rng_seed);
  IndependentSampleOptions options;
  options.s1 = 0.6;
  options.s2 = 0.6;
  Workload w;
  w.pair = SampleIndependent(g, options, rng_seed + 1);
  SeedOptions seeding;
  seeding.fraction = 0.08;
  w.seeds = GenerateSeeds(w.pair, seeding, rng_seed + 2);
  return w;
}

MatchResult RunToCompletion(const Workload& w, const MatcherConfig& config) {
  MatcherState state(w.pair.g1, w.pair.g2, config);
  state.SeedLinks(w.seeds);
  while (!state.Done()) state.RunRound();
  return state.TakeResult(0.0);
}

// The central invariant: snapshot after `pause_after` rounds, restore into
// a brand-new state, run both to completion — identical matchings.
void CheckResumeEquivalence(const Workload& w, const MatcherConfig& config,
                            int pause_after, const std::string& tag) {
  const std::string path = TempPath("resume_" + tag + ".ckpt");

  MatcherState original(w.pair.g1, w.pair.g2, config);
  original.SeedLinks(w.seeds);
  for (int i = 0; i < pause_after && !original.Done(); ++i) {
    original.RunRound();
  }
  std::string error;
  ASSERT_TRUE(original.SaveSnapshot(path, &error)) << error;
  while (!original.Done()) original.RunRound();
  MatchResult uninterrupted = original.TakeResult(0.0);

  MatcherState resumed(w.pair.g1, w.pair.g2, config);
  resumed.SeedLinks(w.seeds);
  ASSERT_TRUE(resumed.LoadSnapshot(path, &error)) << error;
  while (!resumed.Done()) resumed.RunRound();
  MatchResult continued = resumed.TakeResult(0.0);

  ASSERT_EQ(continued.map_1to2, uninterrupted.map_1to2) << tag;
  ASSERT_EQ(continued.map_2to1, uninterrupted.map_2to1) << tag;
  std::remove(path.c_str());
}

TEST(MatcherStateTest, RunRoundReplaysTheDriverScheduleExactly) {
  Workload w = MakeWorkload(9001);
  MatcherConfig config;
  config.num_shards = 4;
  MatchResult via_driver = UserMatching(w.pair.g1, w.pair.g2, w.seeds, config);
  MatchResult via_state = RunToCompletion(w, config);
  ASSERT_GT(via_driver.NumNewLinks(), 0u);
  EXPECT_EQ(via_state.map_1to2, via_driver.map_1to2);
  EXPECT_EQ(via_state.map_2to1, via_driver.map_2to1);
}

TEST(MatcherStateTest, ResumeEquivalenceAcrossPausePoints) {
  Workload w = MakeWorkload(9002);
  for (int pause_after : {1, 3, 7}) {
    MatcherConfig config;
    config.num_shards = 4;
    const std::string tag = "p" + std::to_string(pause_after);
    SCOPED_TRACE(tag);
    CheckResumeEquivalence(w, config, pause_after, tag);
  }
}

// Round-by-round work must match too: per round, the same emissions, the
// same frontier pairs scanned and the same links accepted.
void ExpectSameRounds(const std::vector<PhaseStats>& actual,
                      const std::vector<PhaseStats>& expected,
                      size_t expected_offset) {
  ASSERT_EQ(actual.size() + expected_offset, expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    const PhaseStats& want = expected[expected_offset + i];
    SCOPED_TRACE("round " + std::to_string(expected_offset + i));
    EXPECT_EQ(actual[i].iteration, want.iteration);
    EXPECT_EQ(actual[i].bucket_exponent, want.bucket_exponent);
    EXPECT_EQ(actual[i].emissions, want.emissions);
    EXPECT_EQ(actual[i].candidate_pairs, want.candidate_pairs);
    EXPECT_EQ(actual[i].new_links, want.new_links);
  }
}

TEST(MatcherStateTest, ResumeAtEveryPausePointReplaysEveryRound) {
  Workload w = MakeWorkload(9003);
  MatcherConfig config;
  config.num_shards = 4;
  const MatchResult reference = RunToCompletion(w, config);
  const size_t rounds = reference.phases.size();
  ASSERT_GT(rounds, 4u);
  ASSERT_GT(reference.NumNewLinks(), 0u);
  const std::string path = TempPath("every_pause.ckpt");
  for (size_t pause = 0; pause < rounds; ++pause) {
    SCOPED_TRACE("pause after " + std::to_string(pause));
    {
      MatcherState original(w.pair.g1, w.pair.g2, config);
      original.SeedLinks(w.seeds);
      for (size_t i = 0; i < pause; ++i) original.RunRound();
      std::string error;
      ASSERT_TRUE(original.SaveSnapshot(path, &error)) << error;
    }
    MatcherState resumed(w.pair.g1, w.pair.g2, config);
    resumed.SeedLinks(w.seeds);
    std::string error;
    ASSERT_TRUE(resumed.LoadSnapshot(path, &error)) << error;
    while (!resumed.Done()) resumed.RunRound();
    const MatchResult continued = resumed.TakeResult(0.0);
    ASSERT_EQ(continued.map_1to2, reference.map_1to2);
    ASSERT_EQ(continued.map_2to1, reference.map_2to1);
    ExpectSameRounds(continued.phases, reference.phases, pause);
  }
  std::remove(path.c_str());
}

// A budget small enough to spill every tier changes where the score state
// lives, not what selection reads: the matching and every round's frontier
// match the unbudgeted run. From T = 2 up the frontier is a copy that is
// never spilled, so once all tiers are on disk the resident score bytes are
// exactly the frontier; at T = 1 the frontier is the tiers themselves, so
// nothing stays resident.
TEST(MatcherStateTest, BudgetedRunMatchesUnbudgetedRoundByRound) {
  Workload w = MakeWorkload(9009);
  for (uint32_t threshold : {1u, 2u}) {
    SCOPED_TRACE("T=" + std::to_string(threshold));
    MatcherConfig config;
    config.num_shards = 4;
    config.min_score = threshold;
    const MatchResult unbudgeted = RunToCompletion(w, config);

    const std::string dir = TempPath("budget_scores");
    MatcherConfig budgeted_config = config;
    budgeted_config.memory_budget_bytes = 1;
    budgeted_config.score_dir = dir;
    const MatchResult budgeted = RunToCompletion(w, budgeted_config);
    std::filesystem::remove_all(dir);

    ASSERT_EQ(budgeted.map_1to2, unbudgeted.map_1to2);
    ASSERT_EQ(budgeted.map_2to1, unbudgeted.map_2to1);
    ExpectSameRounds(budgeted.phases, unbudgeted.phases, 0);
    size_t spilled = 0, all_levels_rounds = 0;
    for (const PhaseStats& phase : budgeted.phases) {
      spilled += phase.tiers_spilled;
      // A bucket-0 round selects over every level, so it scans every
      // frontier entry of the store.
      if (phase.bucket_exponent == 0) {
        ++all_levels_rounds;
        EXPECT_EQ(phase.resident_score_bytes,
                  threshold > 1 ? TieredCountRuns::BytesForEntries(
                                      phase.candidate_pairs)
                                : 0u);
      }
    }
    EXPECT_GT(spilled, 0u);
    EXPECT_GT(all_levels_rounds, 0u);
  }
}

TEST(MatcherStateTest, ResumeEquivalenceWithSixShards) {
  // A shard count that is not a multiple of the default: save/load must
  // carry every (level, shard) cell, and the resumed run must stay
  // bit-identical.
  Workload w = MakeWorkload(9004);
  MatcherConfig config;
  config.num_shards = 6;
  CheckResumeEquivalence(w, config, 3, "shards6");
}

TEST(MatcherStateTest, SnapshotPortableAcrossExecutionKnobs) {
  // Execution knobs are not fingerprinted: a snapshot taken under one
  // thread count must restore under another and still produce the
  // canonical matching (shard count held fixed — it shapes the persisted
  // score state).
  Workload w = MakeWorkload(9005);
  MatcherConfig writer_config;
  writer_config.num_shards = 4;

  const std::string path = TempPath("portable.ckpt");
  MatcherState original(w.pair.g1, w.pair.g2, writer_config);
  original.SeedLinks(w.seeds);
  original.RunRound();
  original.RunRound();
  std::string error;
  ASSERT_TRUE(original.SaveSnapshot(path, &error)) << error;
  while (!original.Done()) original.RunRound();
  MatchResult uninterrupted = original.TakeResult(0.0);

  MatcherConfig reader_config = writer_config;
  reader_config.num_threads = 1;
  MatcherState resumed(w.pair.g1, w.pair.g2, reader_config);
  resumed.SeedLinks(w.seeds);
  ASSERT_TRUE(resumed.LoadSnapshot(path, &error)) << error;
  while (!resumed.Done()) resumed.RunRound();
  MatchResult continued = resumed.TakeResult(0.0);

  EXPECT_EQ(continued.map_1to2, uninterrupted.map_1to2);
  EXPECT_EQ(continued.map_2to1, uninterrupted.map_2to1);
  std::remove(path.c_str());
}

TEST(MatcherStateTest, SnapshotRoundTripsByteIdentically) {
  // The score state serializes canonically (sorted runs, explicit tier
  // boundaries), so save -> load -> save is byte-identical.
  Workload w = MakeWorkload(9006);
  MatcherConfig config;
  config.num_shards = 4;

  const std::string first = TempPath("golden_first.ckpt");
  const std::string second = TempPath("golden_second.ckpt");
  MatcherState original(w.pair.g1, w.pair.g2, config);
  original.SeedLinks(w.seeds);
  original.RunRound();
  original.RunRound();
  original.RunRound();
  std::string error;
  ASSERT_TRUE(original.SaveSnapshot(first, &error)) << error;

  MatcherState reloaded(w.pair.g1, w.pair.g2, config);
  reloaded.SeedLinks(w.seeds);
  ASSERT_TRUE(reloaded.LoadSnapshot(first, &error)) << error;
  ASSERT_TRUE(reloaded.SaveSnapshot(second, &error)) << error;

  EXPECT_EQ(Slurp(first), Slurp(second));
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(MatcherStateTest, CursorAccessorsSurviveTheRoundTrip) {
  Workload w = MakeWorkload(9007);
  MatcherConfig config;
  config.num_shards = 4;
  const std::string path = TempPath("cursor.ckpt");

  MatcherState original(w.pair.g1, w.pair.g2, config);
  original.SeedLinks(w.seeds);
  original.RunRound();
  original.RunRound();
  original.RunRound();
  std::string error;
  ASSERT_TRUE(original.SaveSnapshot(path, &error)) << error;

  MatcherState resumed(w.pair.g1, w.pair.g2, config);
  resumed.SeedLinks(w.seeds);
  ASSERT_TRUE(resumed.LoadSnapshot(path, &error)) << error;
  EXPECT_EQ(resumed.completed_rounds(), original.completed_rounds());
  EXPECT_EQ(resumed.iteration(), original.iteration());
  EXPECT_EQ(resumed.current_bucket(), original.current_bucket());
  EXPECT_EQ(resumed.num_links(), original.num_links());
  EXPECT_EQ(resumed.num_seeds(), original.num_seeds());
  std::remove(path.c_str());
}

// --- Rejection paths ------------------------------------------------------

class SnapshotRejectionTest : public testing::Test {
 protected:
  void SetUp() override {
    w_ = MakeWorkload(9008);
    config_.num_shards = 4;
    path_ = TempPath("reject.ckpt");
    MatcherState state(w_.pair.g1, w_.pair.g2, config_);
    state.SeedLinks(w_.seeds);
    state.RunRound();
    state.RunRound();
    std::string error;
    ASSERT_TRUE(state.SaveSnapshot(path_, &error)) << error;
  }
  void TearDown() override { std::remove(path_.c_str()); }

  // Loads `path` into a fresh state; on expected failure, verifies the
  // diagnostic is one line and the state is untouched by checking it
  // still finishes like a never-loaded run.
  void ExpectRejectedAndStateIntact(const std::string& path,
                                    const std::string& why_substring) {
    MatcherState state(w_.pair.g1, w_.pair.g2, config_);
    state.SeedLinks(w_.seeds);
    std::string error;
    ASSERT_FALSE(state.LoadSnapshot(path, &error));
    EXPECT_NE(error.find(why_substring), std::string::npos) << error;
    EXPECT_EQ(error.find('\n'), std::string::npos) << error;
    EXPECT_EQ(state.completed_rounds(), 0);
    EXPECT_EQ(state.num_links(), w_.seeds.size());
    while (!state.Done()) state.RunRound();
    MatchResult after_rejection = state.TakeResult(0.0);
    MatchResult reference = RunToCompletion(w_, config_);
    EXPECT_EQ(after_rejection.map_1to2, reference.map_1to2);
  }

  Workload w_;
  MatcherConfig config_;
  std::string path_;
};

TEST_F(SnapshotRejectionTest, TruncatedSnapshotRejected) {
  const std::vector<char> whole = Slurp(path_);
  const std::string cut = TempPath("reject_cut.ckpt");
  std::ofstream(cut, std::ios::binary)
      .write(whole.data(), static_cast<std::streamsize>(whole.size() / 2));
  ExpectRejectedAndStateIntact(cut, "");
  std::remove(cut.c_str());
}

TEST_F(SnapshotRejectionTest, BitFlippedSnapshotRejected) {
  std::vector<char> bytes = Slurp(path_);
  bytes[bytes.size() / 2] ^= 0x40;  // lands in a section payload
  const std::string flipped = TempPath("reject_flip.ckpt");
  std::ofstream(flipped, std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ExpectRejectedAndStateIntact(flipped, "");
  std::remove(flipped.c_str());
}

TEST_F(SnapshotRejectionTest, WrongGraphRejected) {
  Workload other = MakeWorkload(777);
  MatcherState state(other.pair.g1, other.pair.g2, config_);
  std::vector<std::pair<NodeId, NodeId>> seeds = {{0, 0}};
  state.SeedLinks(seeds);
  std::string error;
  ASSERT_FALSE(state.LoadSnapshot(path_, &error));
  EXPECT_NE(error.find("different graph"), std::string::npos) << error;
}

TEST_F(SnapshotRejectionTest, WrongConfigRejected) {
  MatcherConfig other = config_;
  other.min_score = config_.min_score + 3;
  MatcherState state(w_.pair.g1, w_.pair.g2, other);
  state.SeedLinks(w_.seeds);
  std::string error;
  ASSERT_FALSE(state.LoadSnapshot(path_, &error));
  EXPECT_NE(error.find("config mismatch"), std::string::npos) << error;
}

// Snapshots once recorded the scoring engine (incremental or recompute)
// and backend (radix or hash) in two META bytes; a snapshot naming the
// removed recompute engine or hash backend must be refused in one line.
// The test rewrites a valid snapshot with one byte changed — META is
// [state version u32][3 × u64 per graph][threshold u32][iterations i32]
// [bucketing u8][min bucket exponent i32][stop when stable u8], then the
// engine byte (offset 66) and the backend byte (offset 67).
TEST_F(SnapshotRejectionTest, RemovedEngineSnapshotsRejected) {
  constexpr uint32_t kMeta = 1, kLinks = 2, kScores = 4;
  const struct {
    size_t offset;
    const char* why;
  } cases[] = {{66, "recompute scoring engine"}, {67, "hash scoring backend"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.why);
    SnapshotReader reader;
    std::string error;
    ASSERT_TRUE(reader.Open(path_, &error)) << error;
    SnapshotWriter writer;
    for (uint32_t id : {kMeta, kLinks, kScores}) {
      SnapshotReader::Section* section = reader.Find(id);
      ASSERT_NE(section, nullptr);
      std::vector<uint8_t> payload(section->Remaining());
      ASSERT_TRUE(section->ReadBytes(payload.data(), payload.size()));
      if (id == kMeta) {
        ASSERT_EQ(payload.at(c.offset), 1u);
        payload[c.offset] = 0;
      }
      writer.BeginSection(id);
      writer.AppendBytes(payload.data(), payload.size());
      writer.EndSection();
    }
    const std::string removed = TempPath("reject_removed_engine.ckpt");
    ASSERT_TRUE(writer.Commit(removed, &error)) << error;
    ExpectRejectedAndStateIntact(removed, c.why);
    std::remove(removed.c_str());
  }
}

// Rewrites the snapshot at `from` into `to` with its first SCORES cell
// replaced by `tiers` (each a key vector and a count vector).
void RewriteFirstScoreCell(
    const std::string& from, const std::string& to,
    const std::vector<std::pair<std::vector<uint64_t>,
                                std::vector<uint32_t>>>& tiers) {
  constexpr uint32_t kMeta = 1, kLinks = 2, kScores = 4;
  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(from, &error)) << error;
  SnapshotWriter writer;
  for (uint32_t id : {kMeta, kLinks, kScores}) {
    SnapshotReader::Section* section = reader.Find(id);
    ASSERT_NE(section, nullptr);
    writer.BeginSection(id);
    if (id == kScores) {
      uint32_t num_tiers = 0;
      ASSERT_TRUE(section->ReadU32(&num_tiers));
      for (uint32_t t = 0; t < num_tiers; ++t) {
        std::vector<uint64_t> keys;
        std::vector<uint32_t> counts;
        ASSERT_TRUE(section->ReadVector(&keys));
        ASSERT_TRUE(section->ReadVector(&counts));
      }
      writer.AppendU32(static_cast<uint32_t>(tiers.size()));
      for (const auto& [keys, counts] : tiers) {
        writer.AppendVector(keys);
        writer.AppendVector(counts);
      }
    }
    std::vector<uint8_t> rest(section->Remaining());
    ASSERT_TRUE(section->ReadBytes(rest.data(), rest.size()));
    writer.AppendBytes(rest.data(), rest.size());
    writer.EndSection();
  }
  ASSERT_TRUE(writer.Commit(to, &error)) << error;
}

// A score cell holds at most two tiers (the big run plus one delta); only
// a run under the retired `max-tiers` param could have written more.
TEST_F(SnapshotRejectionTest, CellWithThreeTiersRejected) {
  const std::string three = TempPath("reject_three_tiers.ckpt");
  RewriteFirstScoreCell(path_, three,
                        {{{1}, {1}}, {{2}, {1}}, {{3}, {1}}});
  ExpectRejectedAndStateIntact(three, "declares 3 tiers");
  std::remove(three.c_str());
}

// The frontier is rebuilt by galloping through the loaded tiers, so a tier
// must be a valid sorted count run: ascending keys, positive counts.
TEST_F(SnapshotRejectionTest, TierThatIsNotASortedRunRejected) {
  const std::string bad = TempPath("reject_unsorted_tier.ckpt");
  for (const auto& tier :
       {std::pair<std::vector<uint64_t>, std::vector<uint32_t>>{{5, 3},
                                                                {1, 1}},
        {{3, 3}, {1, 1}},
        {{3, 5}, {1, 0}}}) {
    RewriteFirstScoreCell(path_, bad, {tier});
    ExpectRejectedAndStateIntact(bad, "not a sorted count run");
  }
  std::remove(bad.c_str());
}

TEST_F(SnapshotRejectionTest, WrongShardCountRejected) {
  MatcherConfig other = config_;
  other.num_shards = config_.num_shards + 1;
  MatcherState state(w_.pair.g1, w_.pair.g2, other);
  state.SeedLinks(w_.seeds);
  std::string error;
  ASSERT_FALSE(state.LoadSnapshot(path_, &error));
  EXPECT_NE(error.find("config mismatch"), std::string::npos) << error;
}

TEST_F(SnapshotRejectionTest, WrongSeedsRejected) {
  MatcherState state(w_.pair.g1, w_.pair.g2, config_);
  std::vector<std::pair<NodeId, NodeId>> seeds(w_.seeds.begin(),
                                               w_.seeds.end() - 1);
  state.SeedLinks(seeds);
  std::string error;
  ASSERT_FALSE(state.LoadSnapshot(path_, &error));
  EXPECT_NE(error.find("seed"), std::string::npos) << error;
}

TEST_F(SnapshotRejectionTest, MissingFileRejected) {
  MatcherState state(w_.pair.g1, w_.pair.g2, config_);
  state.SeedLinks(w_.seeds);
  std::string error;
  ASSERT_FALSE(state.LoadSnapshot(TempPath("no_such.ckpt"), &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace reconcile
