// SpillStore / spilled tiers: moving a tier to disk must be unobservable —
// same aggregate bytes through every read path — and every spill failure
// (torn write, ENOSPC, failed mmap, injected at every spill boundary) must
// leave the tier resident with the aggregate intact and no file behind.
#include "reconcile/util/spill_store.h"

#include <dirent.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/util/fault.h"
#include "reconcile/util/radix_sort.h"
#include "reconcile/util/rng.h"
#include "reconcile/util/tiered_store.h"
#include "support/count_run.h"
#include "support/tier_totals.h"

namespace reconcile {
namespace {

std::vector<std::vector<uint64_t>> MakeDeltaStream(uint64_t seed,
                                                   size_t num_deltas,
                                                   size_t delta_size,
                                                   uint64_t key_space) {
  Rng rng(seed);
  std::vector<std::vector<uint64_t>> deltas(num_deltas);
  for (auto& delta : deltas) {
    for (size_t i = 0; i < delta_size; ++i) {
      delta.push_back(rng.UniformInt(key_space));
    }
  }
  return deltas;
}

// Byte-exact aggregate read through the tier views: every (key, total),
// ascending.
std::vector<std::pair<uint64_t, uint32_t>> Fold(const TieredCountRuns& s) {
  return TierTotals(s);
}

// The paper's default threshold. Below 2 the frontier is the whole store
// and the store keeps a single run, so the two-tier cases run at T = 2.
constexpr uint32_t kThreshold = 2;

// A two-tier store: a big run plus a delta small enough (more than 4x
// smaller) to stay a separate tier.
TieredCountRuns MakeTwoTierStore(uint64_t seed) {
  TieredCountRuns store(kThreshold);
  store.Append(MakeRun(MakeDeltaStream(seed, 1, 2000, 100000)[0]));
  store.Append(MakeRun(MakeDeltaStream(seed + 1, 1, 50, 100000)[0]));
  return store;
}

size_t CountDirEntries(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return 0;
  size_t n = 0;
  while (dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") ++n;
  }
  ::closedir(handle);
  return n;
}

class SpillStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DisarmFaults();
    char tmpl[] = "/tmp/spill_store_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    DisarmFaults();
    // The suite asserts emptiness where it matters; sweep defensively so a
    // failed expectation doesn't leak files.
    DIR* handle = ::opendir(dir_.c_str());
    if (handle != nullptr) {
      while (dirent* entry = ::readdir(handle)) {
        const std::string name = entry->d_name;
        if (name != "." && name != "..") ::unlink((dir_ + "/" + name).c_str());
      }
      ::closedir(handle);
    }
    ::rmdir(dir_.c_str());
  }
  std::string dir_;
};

TEST_F(SpillStoreTest, SpilledRunRoundTripsExactBytes) {
  SortedCountRun run = MakeRun(MakeDeltaStream(1, 1, 5000, 1200)[0]);
  SpillStore store(dir_);
  std::string error;
  std::unique_ptr<SpilledRun> spilled = store.Spill(run, &error);
  ASSERT_NE(spilled, nullptr) << error;
  ASSERT_EQ(spilled->size(), run.size());
  for (size_t i = 0; i < run.size(); ++i) {
    ASSERT_EQ(spilled->keys()[i], run.keys[i]);
    ASSERT_EQ(spilled->counts()[i], run.counts[i]);
  }
  EXPECT_EQ(store.stats().tiers_spilled, 1u);
  EXPECT_EQ(store.stats().spill_failures, 0u);
  EXPECT_EQ(CountDirEntries(dir_), 1u);
  spilled.reset();  // dropping the run unlinks its file
  EXPECT_EQ(CountDirEntries(dir_), 0u);
}

TEST_F(SpillStoreTest, SpillingTiersIsUnobservableInTheFold) {
  const TieredCountRuns resident = MakeTwoTierStore(7);
  const auto reference = Fold(resident);
  ASSERT_EQ(resident.num_tiers(), 2u);

  // Spill every subset of tiers (bitmask) and byte-compare the fold.
  SpillStore store(dir_);
  const size_t tiers = resident.num_tiers();
  for (uint32_t mask = 1; mask < (1u << tiers); ++mask) {
    TieredCountRuns mixed = MakeTwoTierStore(7);
    std::string error;
    for (size_t t = 0; t < tiers; ++t) {
      if (mask & (1u << t)) {
        ASSERT_TRUE(mixed.SpillTier(t, store, &error)) << error;
        ASSERT_TRUE(mixed.tier_spilled(t));
      }
    }
    ASSERT_EQ(Fold(mixed), reference) << "mask=" << mask;
  }
  EXPECT_EQ(CountDirEntries(dir_), 0u) << "dropped stores must unlink";
}

TEST_F(SpillStoreTest, ResidentBytesMoveToSpilledOnSpill) {
  TieredCountRuns store = MakeTwoTierStore(3);
  ASSERT_EQ(store.num_tiers(), 2u);
  // The frontier is resident payload too, and it never spills.
  size_t frontier = 0;
  store.frontier().ForEach([&frontier](uint64_t, uint32_t) { ++frontier; });
  ASSERT_GT(frontier, 0u);
  const size_t before = store.resident_bytes();
  ASSERT_EQ(before, TieredCountRuns::BytesForEntries(store.total_entries() +
                                                     frontier));
  SpillStore spill(dir_);
  std::string error;
  ASSERT_TRUE(store.SpillTier(0, spill, &error)) << error;
  EXPECT_EQ(store.resident_bytes(),
            TieredCountRuns::BytesForEntries(store.tier_size(1) + frontier));
  EXPECT_EQ(store.num_spilled_tiers(), 1u);
  // Spilling an already-spilled tier is a successful no-op.
  ASSERT_TRUE(store.SpillTier(0, spill, &error));
  EXPECT_EQ(spill.stats().tiers_spilled, 1u);
}

TEST_F(SpillStoreTest, FilterMaterializesSpilledTiers) {
  TieredCountRuns store(kThreshold);
  store.Append(MakeRun({10, 11, 12, 12, 14, 16, 18, 20, 22, 24}));
  store.Append(MakeRun({11, 13}));
  ASSERT_EQ(store.num_tiers(), 2u);
  SpillStore spill(dir_);
  std::string error;
  ASSERT_TRUE(store.SpillTier(0, spill, &error)) << error;
  ASSERT_TRUE(store.SpillTier(1, spill, &error)) << error;
  store.Filter([](uint64_t key, uint32_t) { return key % 2 == 0; });
  EXPECT_EQ(store.num_spilled_tiers(), 0u);
  EXPECT_EQ(CountDirEntries(dir_), 0u) << "materialize must drop the files";
  const std::vector<std::pair<uint64_t, uint32_t>> expected = {
      {10, 1}, {12, 2}, {14, 1}, {16, 1}, {18, 1}, {20, 1}, {22, 1}, {24, 1}};
  EXPECT_EQ(Fold(store), expected);
}

TEST_F(SpillStoreTest, AppendFoldMaterializesSpilledTarget) {
  TieredCountRuns store(kThreshold);
  store.Append(MakeRun({1, 2, 3}));
  SpillStore spill(dir_);
  std::string error;
  ASSERT_TRUE(store.SpillTier(0, spill, &error)) << error;
  // 3 entries are within 4x of the 2-entry delta: the append folds into
  // the spilled run, which must come back resident first.
  store.Append(MakeRun({2, 4}));
  EXPECT_EQ(store.num_tiers(), 1u);
  EXPECT_EQ(store.num_spilled_tiers(), 0u);
  const std::vector<std::pair<uint64_t, uint32_t>> expected = {
      {1, 1}, {2, 2}, {3, 1}, {4, 1}};
  EXPECT_EQ(Fold(store), expected);
}

// The fault sweep: each injected failure mode, fired at every spill
// boundary of three two-tier stores (like the matcher's score cells), must
// (a) fail that one spill, (b) keep the tier resident, (c) leave no file
// behind for the failed spill, and (d) keep every fold byte-identical to
// the all-resident store.
TEST_F(SpillStoreTest, InjectedFaultsAtEveryBoundaryDegradeGracefully) {
  constexpr size_t kCells = 3;
  auto make_cells = [] {
    std::vector<TieredCountRuns> cells;
    for (size_t c = 0; c < kCells; ++c) {
      cells.push_back(MakeTwoTierStore(11 + 2 * c));
    }
    return cells;
  };
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> reference;
  for (const TieredCountRuns& cell : make_cells()) {
    ASSERT_EQ(cell.num_tiers(), 2u);
    reference.push_back(Fold(cell));
  }
  const size_t tiers = 2 * kCells;

  for (const char* fault : {"io:spill_write_fail", "io:spill_truncate",
                            "io:mmap_fail", "io:enospc_after=0"}) {
    for (size_t boundary = 1; boundary <= tiers; ++boundary) {
      SCOPED_TRACE(std::string(fault) + " at spill #" +
                   std::to_string(boundary));
      std::vector<TieredCountRuns> cells = make_cells();
      SpillStore spill(dir_);
      std::string arm_error;
      // enospc_after is a threshold point (fails every hit past N); the
      // others are hit-index points (fail exactly hit N).
      const std::string spec =
          std::string(fault) == "io:enospc_after=0"
              ? "io:enospc_after=" + std::to_string(boundary - 1)
              : std::string(fault) + "=" + std::to_string(boundary);
      ASSERT_TRUE(ArmFaults(spec, &arm_error)) << arm_error;

      size_t failures = 0;
      for (TieredCountRuns& cell : cells) {
        for (size_t t = 0; t < cell.num_tiers(); ++t) {
          std::string error;
          if (!cell.SpillTier(t, spill, &error)) {
            ++failures;
            EXPECT_FALSE(cell.tier_spilled(t)) << error;
            EXPECT_FALSE(error.empty());
          }
        }
      }
      DisarmFaults();
      EXPECT_GE(failures, 1u);
      EXPECT_EQ(spill.stats().spill_failures, failures);
      // Exactly one file per successful spill; no torn/failed leftovers.
      EXPECT_EQ(CountDirEntries(dir_), spill.stats().tiers_spilled);
      for (size_t c = 0; c < kCells; ++c) {
        EXPECT_EQ(Fold(cells[c]), reference[c]) << "cell " << c;
      }
    }
  }
}

TEST_F(SpillStoreTest, EnospcThresholdFailsEverySpillPastTheCliff) {
  std::string error;
  ASSERT_TRUE(ArmFaults("io:enospc_after=2", &error)) << error;
  SpillStore store(dir_);
  SortedCountRun run = MakeRun({1, 2, 3});
  EXPECT_NE(store.Spill(run, &error), nullptr);
  EXPECT_NE(store.Spill(run, &error), nullptr);
  // The disk is now "full": every later spill fails, not just one.
  EXPECT_EQ(store.Spill(run, &error), nullptr);
  EXPECT_EQ(store.Spill(run, &error), nullptr);
  EXPECT_EQ(store.stats().tiers_spilled, 2u);
  EXPECT_EQ(store.stats().spill_failures, 2u);
}

TEST_F(SpillStoreTest, DisableStopsSpillingWithoutTouchingDisk) {
  SpillStore store(dir_);
  store.Disable();
  SortedCountRun run = MakeRun({5, 6});
  std::string error;
  EXPECT_EQ(store.Spill(run, &error), nullptr);
  EXPECT_EQ(CountDirEntries(dir_), 0u);
}

TEST_F(SpillStoreTest, UnwritableDirectoryIsACleanFailure) {
  SpillStore store("/proc/definitely-not-writable/spill");
  SortedCountRun run = MakeRun({1});
  std::string error;
  EXPECT_EQ(store.Spill(run, &error), nullptr);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(store.stats().spill_failures, 1u);
}

}  // namespace
}  // namespace reconcile
