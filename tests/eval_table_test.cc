#include "reconcile/eval/table.h"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace reconcile {
namespace {

TEST(TableTest, PrintsHeaderAndRows) {
  Table table({"Pr", "Good", "Bad"});
  table.AddRow({"10%", "42797", "58"});
  table.AddRow({"5%", "11091", "43"});
  std::ostringstream out;
  table.Print(out);
  std::string text = out.str();
  EXPECT_NE(text.find("Pr"), std::string::npos);
  EXPECT_NE(text.find("42797"), std::string::npos);
  EXPECT_NE(text.find("11091"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(TableTest, ColumnsAligned) {
  Table table({"A", "B"});
  table.AddRow({"x", "longvalue"});
  table.AddRow({"longervalue", "y"});
  std::ostringstream out;
  table.Print(out);
  // Every line should have the same position for column B's start.
  std::istringstream lines(out.str());
  std::string header, underline, row1, row2;
  std::getline(lines, header);
  std::getline(lines, underline);
  std::getline(lines, row1);
  std::getline(lines, row2);
  EXPECT_EQ(header.find("B"), row1.find("longvalue"));
  EXPECT_EQ(row1.find("longvalue"), row2.find("y"));
}

TEST(TableTest, EmptyTableJustHeader) {
  Table table({"Only"});
  std::ostringstream out;
  table.Print(out);
  EXPECT_NE(out.str().find("Only"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 0u);
}

TEST(TableDeathTest, WrongArityRejected) {
  Table table({"A", "B"});
  EXPECT_DEATH(table.AddRow({"only-one"}), "Check failed");
}

// The tools' --phase-table: fixed headers, then one row per round with its
// counters and its five wall times at millisecond resolution.
TEST(TableTest, PhaseTableHasOneRowPerRound) {
  PhaseStats first;
  first.iteration = 1;
  first.bucket_exponent = 4;
  first.links_in = 120;
  first.emissions = 98765;
  first.parked_keys = 4321;
  first.candidate_pairs = 77;
  first.new_links = 12;
  first.emit_seconds = 0.0124;
  first.merge_seconds = 1.5;
  first.scan_seconds = 0.25;
  first.select_seconds = 0.001;
  first.spill_seconds = 0.0;
  PhaseStats second;
  second.iteration = 2;
  const std::vector<PhaseStats> phases = {first, second};

  std::ostringstream out;
  PhaseTable(phases).Print(out);
  std::istringstream lines(out.str());
  std::string header, underline, row1, row2, extra;
  std::getline(lines, header);
  std::getline(lines, underline);
  std::getline(lines, row1);
  std::getline(lines, row2);
  EXPECT_FALSE(std::getline(lines, extra));
  EXPECT_EQ(header,
            "iter  bucket  links in  emissions  parked  frontier pairs  new  "
            "emit s  merge s  scan s  select s  spill s");
  EXPECT_EQ(underline, std::string(header.size(), '-'));
  EXPECT_EQ(row1,
            "1     4       120       98765      4321    77              12   "
            "0.012   1.500    0.250   0.001     0.000  ");
  EXPECT_EQ(row2.substr(0, 6), "2     ");

  std::ostringstream empty;
  PhaseTable({}).Print(empty);
  EXPECT_EQ(empty.str(), header + "\n" + underline + "\n");
}

TEST(FormatTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(1.0, 3), "1.000");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

TEST(FormatTest, FormatPercent) {
  EXPECT_EQ(FormatPercent(0.5), "50.00%");
  EXPECT_EQ(FormatPercent(0.99371, 1), "99.4%");
  EXPECT_EQ(FormatPercent(1.0, 0), "100%");
}

}  // namespace
}  // namespace reconcile
