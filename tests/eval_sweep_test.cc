#include "reconcile/eval/sweep.h"

#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "reconcile/gen/preferential_attachment.h"
#include "reconcile/sampling/independent.h"

namespace reconcile {
namespace {

RealizationPair MakePair() {
  Graph g = GeneratePreferentialAttachment(1200, 8, 7001);
  IndependentSampleOptions options;
  options.s1 = 0.6;
  options.s2 = 0.6;
  return SampleIndependent(g, options, 7003);
}

TEST(SweepTest, GridHasOnePointPerCell) {
  RealizationPair pair = MakePair();
  SweepSpec spec;
  spec.seed_fractions = {0.05, 0.10};
  spec.thresholds = {2, 3};
  auto points = RunSweep(pair, spec);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].seed_fraction, 0.05);
  EXPECT_EQ(points[0].threshold, 2u);
  EXPECT_EQ(points[3].seed_fraction, 0.10);
  EXPECT_EQ(points[3].threshold, 3u);
}

TEST(SweepTest, SameSeedsAcrossThresholdColumns) {
  RealizationPair pair = MakePair();
  SweepSpec spec;
  spec.seed_fractions = {0.10};
  spec.thresholds = {2, 3, 5};
  auto points = RunSweep(pair, spec);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].num_seeds, points[1].num_seeds);
  EXPECT_EQ(points[1].num_seeds, points[2].num_seeds);
}

TEST(SweepTest, HigherThresholdNeverFindsMoreLinks) {
  RealizationPair pair = MakePair();
  SweepSpec spec;
  spec.seed_fractions = {0.10};
  spec.thresholds = {2, 3, 4, 5};
  auto points = RunSweep(pair, spec);
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_LE(points[i].quality.new_good + points[i].quality.new_bad,
              points[i - 1].quality.new_good + points[i - 1].quality.new_bad)
        << "T=" << points[i].threshold;
  }
}

TEST(SweepTest, DeterministicForSpecSeed) {
  RealizationPair pair = MakePair();
  SweepSpec spec;
  spec.seed_fractions = {0.05};
  spec.thresholds = {3};
  auto a = RunSweep(pair, spec);
  auto b = RunSweep(pair, spec);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a[0].quality.new_good, b[0].quality.new_good);
  EXPECT_EQ(a[0].quality.new_bad, b[0].quality.new_bad);
}

TEST(SweepTest, GoodBadTableLayout) {
  RealizationPair pair = MakePair();
  SweepSpec spec;
  spec.seed_fractions = {0.05, 0.10};
  spec.thresholds = {2, 4};
  auto points = RunSweep(pair, spec);
  Table table = SweepToGoodBadTable(points);
  EXPECT_EQ(table.num_rows(), 2u);
  std::ostringstream out;
  table.Print(out);
  EXPECT_NE(out.str().find("T=2 good"), std::string::npos);
  EXPECT_NE(out.str().find("T=4 good"), std::string::npos);
  EXPECT_NE(out.str().find("5%"), std::string::npos);
}

TEST(SweepTest, RecallTableLayout) {
  RealizationPair pair = MakePair();
  SweepSpec spec;
  spec.seed_fractions = {0.10};
  spec.thresholds = {2, 3};
  auto points = RunSweep(pair, spec);
  Table table = SweepToRecallTable(points);
  EXPECT_EQ(table.num_rows(), 1u);
  std::ostringstream out;
  table.Print(out);
  EXPECT_NE(out.str().find('%'), std::string::npos);
}

TEST(SweepTest, CsvHasHeaderAndOneLinePerPoint) {
  RealizationPair pair = MakePair();
  SweepSpec spec;
  spec.seed_fractions = {0.05};
  spec.thresholds = {2, 3};
  auto points = RunSweep(pair, spec);
  const std::string csv = SweepToCsv(points);
  size_t lines = 0;
  for (char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 1u + points.size());
  EXPECT_EQ(csv.rfind("algorithm,seed_fraction,threshold", 0), 0u);
}

TEST(SweepTest, AlgorithmDimension) {
  RealizationPair pair = MakePair();
  SweepSpec spec;
  spec.algorithms = {ReconcilerSpec("core"),
                     ReconcilerSpec("simple").Set("iterations", "1")};
  spec.seed_fractions = {0.10};
  spec.thresholds = {2, 3};
  auto points = RunSweep(pair, spec);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].algorithm, "core");
  EXPECT_EQ(points[1].algorithm, "core");
  EXPECT_EQ(points[2].algorithm, "simple:iterations=1");
  EXPECT_EQ(points[3].algorithm, "simple:iterations=1");
  EXPECT_EQ(points[0].threshold, 2u);
  EXPECT_EQ(points[1].threshold, 3u);
  // Same seed draw for every algorithm at a fraction.
  for (const SweepPoint& point : points) {
    EXPECT_EQ(point.num_seeds, points[0].num_seeds);
  }
  Table table = SweepToGoodBadTable(points);
  EXPECT_EQ(table.num_rows(), 2u);
  std::ostringstream out;
  table.Print(out);
  EXPECT_NE(out.str().find("core"), std::string::npos);
  EXPECT_NE(out.str().find("simple:iterations=1"), std::string::npos);
}

TEST(SweepTest, ThresholdFreeAlgorithmRunsOncePerFraction) {
  RealizationPair pair = MakePair();
  SweepSpec spec;
  spec.algorithms = {ReconcilerSpec("core"), ReconcilerSpec("features")};
  spec.seed_fractions = {0.10};
  spec.thresholds = {2, 3};
  auto points = RunSweep(pair, spec);
  // core contributes one point per threshold, features a single one.
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[2].algorithm, "features");
  EXPECT_EQ(points[2].threshold, 0u);
  // Tables render the partial column with a placeholder, not a crash.
  std::ostringstream out;
  SweepToGoodBadTable(points).Print(out);
  EXPECT_NE(out.str().find('-'), std::string::npos);
}

TEST(SweepTest, CsvQuotesAlgorithmLabelsContainingCommas) {
  SweepPoint point;
  point.algorithm = "core:bucketing=false,iterations=1";
  point.seed_fraction = 0.1;
  point.threshold = 2;
  const std::string csv = SweepToCsv({point});
  EXPECT_NE(csv.find("\"core:bucketing=false,iterations=1\""),
            std::string::npos);
  // 15 header commas + 15 data separators + the 1 comma inside the quotes.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), ','), 31);
}

// Tentpole acceptance: every sweep point carries a well-formed PAC
// interval, the tables render it, and the CSV exports the bounds.
TEST(SweepTest, EveryPointCarriesWellFormedIntervals) {
  RealizationPair pair = MakePair();
  SweepSpec spec;
  spec.seed_fractions = {0.05, 0.10};
  spec.thresholds = {2, 3};
  auto points = RunSweep(pair, spec);
  for (const SweepPoint& point : points) {
    EXPECT_LE(point.validation.precision.lo, point.validation.precision.point);
    EXPECT_GE(point.validation.precision.hi, point.validation.precision.point);
    EXPECT_LE(point.validation.recall.lo, point.validation.recall.point);
    EXPECT_GE(point.validation.recall.hi, point.validation.recall.point);
    // Default budget verifies everything: intervals are exact and match
    // the census metrics.
    EXPECT_TRUE(point.validation.exhaustive);
    EXPECT_DOUBLE_EQ(point.validation.precision.point,
                     point.quality.precision);
    EXPECT_DOUBLE_EQ(point.validation.recall.point, point.quality.recall_new);
  }
  std::ostringstream out;
  SweepToGoodBadTable(points).Print(out);
  EXPECT_NE(out.str().find("prec CI"), std::string::npos);
  EXPECT_NE(out.str().find('['), std::string::npos);
  const std::string csv = SweepToCsv(points);
  EXPECT_NE(csv.find("precision_lo"), std::string::npos);
  EXPECT_NE(csv.find("recall_hi"), std::string::npos);
  EXPECT_NE(csv.find("validation_delta"), std::string::npos);
}

TEST(SweepTest, BudgetedSweepWidensButStillBrackets) {
  RealizationPair pair = MakePair();
  SweepSpec spec;
  spec.seed_fractions = {0.10};
  spec.thresholds = {2};
  spec.validation.budget = 25;
  spec.validation.delta = 0.05;
  auto points = RunSweep(pair, spec);
  ASSERT_EQ(points.size(), 1u);
  const ValidationReport& v = points[0].validation;
  if (v.num_matches > 25) {
    EXPECT_FALSE(v.exhaustive);
    EXPECT_EQ(v.verified, 25u);
    EXPECT_LT(v.precision.lo, v.precision.hi);  // sampled: nonzero width
  }
  EXPECT_LE(v.precision.lo, v.precision.point);
  EXPECT_GE(v.precision.hi, v.precision.point);
}

TEST(SweepTest, UnknownAlgorithmDies) {
  RealizationPair pair = MakePair();
  SweepSpec spec;
  spec.algorithms = {ReconcilerSpec("nope")};
  EXPECT_DEATH(RunSweep(pair, spec), "nope");
}

TEST(SweepTest, EmptySpecDies) {
  RealizationPair pair = MakePair();
  SweepSpec spec;
  spec.seed_fractions = {};
  EXPECT_DEATH(RunSweep(pair, spec), "");
}

}  // namespace
}  // namespace reconcile
