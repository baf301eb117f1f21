#include "reconcile/eval/validation.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "reconcile/util/logging.h"
#include "reconcile/util/rng.h"

namespace reconcile {

namespace {

// log C(n, k) via lgamma — exact enough for tail sums at any budget size.
double LogChoose(size_t n, size_t k) {
  return std::lgamma(static_cast<double>(n) + 1.0) -
         std::lgamma(static_cast<double>(k) + 1.0) -
         std::lgamma(static_cast<double>(n - k) + 1.0);
}

// P(X >= k) for X ~ Binomial(n, p), summed in log space from the largest
// term down so the accumulation never underflows away the mass.
double BinomialTailGe(size_t k, size_t n, double p) {
  if (k == 0) return 1.0;
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 1.0;
  const double log_p = std::log(p);
  const double log_q = std::log1p(-p);
  // Peak of the summand over [k, n].
  double peak = -std::numeric_limits<double>::infinity();
  std::vector<double> terms;
  terms.reserve(n - k + 1);
  for (size_t i = k; i <= n; ++i) {
    const double t = LogChoose(n, i) + static_cast<double>(i) * log_p +
                     static_cast<double>(n - i) * log_q;
    terms.push_back(t);
    peak = std::max(peak, t);
  }
  double sum = 0.0;
  for (double t : terms) sum += std::exp(t - peak);
  const double result = std::exp(peak) * sum;
  return std::min(1.0, result);
}

// P(X <= k) = 1 - P(X >= k+1), computed directly for accuracy near 0.
double BinomialTailLe(size_t k, size_t n, double p) {
  if (k >= n) return 1.0;
  if (p <= 0.0) return 1.0;
  if (p >= 1.0) return 0.0;
  const double log_p = std::log(p);
  const double log_q = std::log1p(-p);
  double peak = -std::numeric_limits<double>::infinity();
  std::vector<double> terms;
  terms.reserve(k + 1);
  for (size_t i = 0; i <= k; ++i) {
    const double t = LogChoose(n, i) + static_cast<double>(i) * log_p +
                     static_cast<double>(n - i) * log_q;
    terms.push_back(t);
    peak = std::max(peak, t);
  }
  double sum = 0.0;
  for (double t : terms) sum += std::exp(t - peak);
  return std::min(1.0, std::exp(peak) * sum);
}

constexpr int kBisectionSteps = 80;  // halves [0,1] to ~1e-24

}  // namespace

double BinomialLowerBound(size_t successes, size_t trials, double tail) {
  RECONCILE_CHECK_GT(trials, 0u);
  RECONCILE_CHECK_LE(successes, trials);
  RECONCILE_CHECK(tail > 0.0 && tail < 1.0);
  if (successes == 0) return 0.0;
  // The p where P(X >= successes | trials, p) == tail; the tail is
  // increasing in p, so bisect.
  double lo = 0.0, hi = 1.0;
  for (int step = 0; step < kBisectionSteps; ++step) {
    const double mid = 0.5 * (lo + hi);
    if (BinomialTailGe(successes, trials, mid) < tail) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double BinomialUpperBound(size_t successes, size_t trials, double tail) {
  RECONCILE_CHECK_GT(trials, 0u);
  RECONCILE_CHECK_LE(successes, trials);
  RECONCILE_CHECK(tail > 0.0 && tail < 1.0);
  if (successes == trials) return 1.0;
  // The p where P(X <= successes | trials, p) == tail; decreasing in p.
  double lo = 0.0, hi = 1.0;
  for (int step = 0; step < kBisectionSteps; ++step) {
    const double mid = 0.5 * (lo + hi);
    if (BinomialTailLe(successes, trials, mid) > tail) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

ValidationReport ValidateMatching(const RealizationPair& pair,
                                  const MatchResult& result,
                                  const ValidationConfig& config) {
  RECONCILE_CHECK(config.delta > 0.0 && config.delta < 1.0)
      << "validation delta must be in (0, 1): " << config.delta;
  RECONCILE_CHECK_EQ(result.map_1to2.size(), pair.g1.num_nodes());

  ValidationReport report;
  report.delta = config.delta;

  const std::vector<char> is_seed = result.SeedMask1();

  // Discovered links (ascending u => a fixed population order) and the
  // recall denominator, in one pass.
  std::vector<NodeId> discovered;
  for (NodeId u = 0; u < pair.g1.num_nodes(); ++u) {
    const NodeId truth =
        u < pair.map_1to2.size() ? pair.map_1to2[u] : kInvalidNode;
    const bool identifiable = truth != kInvalidNode &&
                              pair.g1.degree(u) >= 1 &&
                              pair.g2.degree(truth) >= 1;
    if (identifiable && !is_seed[u]) ++report.num_targets;
    if (!is_seed[u] && result.map_1to2[u] != kInvalidNode) {
      discovered.push_back(u);
    }
  }
  report.num_matches = discovered.size();
  const size_t matches = discovered.size();
  const size_t targets = report.num_targets;

  const auto scale_to_recall = [&](double p) {
    return std::min(
        1.0, p * static_cast<double>(matches) / static_cast<double>(targets));
  };

  if (matches == 0) {
    // Nothing discovered: precision is vacuous, recall is exactly 0 (or
    // vacuous too, when there was nothing to find).
    report.exhaustive = true;
    report.precision = {1.0, 1.0, 1.0};
    report.recall = targets == 0 ? PacInterval{1.0, 1.0, 1.0}
                                 : PacInterval{0.0, 0.0, 0.0};
    return report;
  }

  const size_t budget = std::min(config.budget, matches);
  report.verified = budget;
  if (budget == 0) {
    // No verifications: the vacuous interval, point pinned at "no observed
    // errors" so lo <= point <= hi holds by construction.
    report.precision = {1.0, 0.0, 1.0};
    report.recall = targets == 0 ? PacInterval{1.0, 1.0, 1.0}
                                 : PacInterval{1.0, 0.0, 1.0};
    return report;
  }

  // Draw the verification sample: a budget-sized uniform subset of the
  // discovered links (partial Fisher–Yates; exhaustive budgets skip the
  // shuffle so the census is order-independent anyway).
  if (budget < matches) {
    Rng rng(config.rng_seed);
    for (size_t i = 0; i < budget; ++i) {
      const size_t j = i + static_cast<size_t>(rng.UniformInt(
                               static_cast<uint64_t>(matches - i)));
      std::swap(discovered[i], discovered[j]);
    }
  }
  for (size_t i = 0; i < budget; ++i) {
    const NodeId u = discovered[i];
    const NodeId truth =
        u < pair.map_1to2.size() ? pair.map_1to2[u] : kInvalidNode;
    if (truth != kInvalidNode && result.map_1to2[u] == truth) {
      ++report.verified_good;
    }
  }

  const double sample_precision = static_cast<double>(report.verified_good) /
                                  static_cast<double>(budget);
  report.precision.point = sample_precision;
  if (budget == matches) {
    // Census: no sampling error, the interval is the exact value.
    report.exhaustive = true;
    report.precision.lo = sample_precision;
    report.precision.hi = sample_precision;
  } else {
    const double tail = config.delta / 2.0;
    report.precision.lo =
        BinomialLowerBound(report.verified_good, budget, tail);
    report.precision.hi =
        BinomialUpperBound(report.verified_good, budget, tail);
  }

  if (targets == 0) {
    report.recall = {1.0, 1.0, 1.0};  // vacuous: nothing to find
  } else {
    report.recall.point = scale_to_recall(report.precision.point);
    report.recall.lo = scale_to_recall(report.precision.lo);
    report.recall.hi = scale_to_recall(report.precision.hi);
  }
  return report;
}

std::string FormatValidationReport(const ValidationReport& report) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "precision %.3f in [%.3f, %.3f] | recall %.3f in "
                "[%.3f, %.3f] | verified %zu/%zu (delta=%.3g%s)",
                report.precision.point, report.precision.lo,
                report.precision.hi, report.recall.point, report.recall.lo,
                report.recall.hi, report.verified, report.num_matches,
                report.delta, report.exhaustive ? ", exact" : "");
  return buffer;
}

}  // namespace reconcile
