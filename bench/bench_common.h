#ifndef RECONCILE_BENCH_BENCH_COMMON_H_
#define RECONCILE_BENCH_BENCH_COMMON_H_

// Shared helpers for the table/figure reproduction harnesses. Each bench is
// a deterministic, laptop-scale rerun of one experiment from the paper
// (Korula & Lattanzi, VLDB 2014); see README.md, "Reproduce the paper's
// tables", for how to build and run them.

#include <cstdio>
#include <iostream>
#include <string>

#include "reconcile/eval/experiment.h"
#include "reconcile/eval/metrics.h"
#include "reconcile/eval/table.h"

namespace reconcile {
namespace bench {

/// Scale applied to dataset stand-ins so benches finish on a laptop-class
/// machine. The paper's absolute sizes are quoted in each bench's header.
inline constexpr double kBenchScale = 0.25;

inline void PrintHeader(const std::string& title, const std::string& paper_ref,
                        const std::string& setup) {
  std::cout << "=====================================================\n"
            << title << "\n"
            << "Reproduces: " << paper_ref << "\n"
            << "Setup: " << setup << "\n"
            << "=====================================================\n";
}

inline std::string PercentCell(double fraction) {
  return FormatPercent(fraction, 2);
}

}  // namespace bench
}  // namespace reconcile

#endif  // RECONCILE_BENCH_BENCH_COMMON_H_
