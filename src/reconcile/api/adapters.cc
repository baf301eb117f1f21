#include "reconcile/api/adapters.h"

#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "reconcile/api/registry.h"
#include "reconcile/api/spec.h"
#include "reconcile/baseline/bp_matcher.h"
#include "reconcile/baseline/common_neighbors.h"
#include "reconcile/baseline/feature_matching.h"
#include "reconcile/baseline/percolation.h"
#include "reconcile/baseline/propagation.h"
#include "reconcile/util/fault.h"

namespace reconcile {

namespace {

// The one `Reconciler` implementation: an algorithm's entry point bound to
// its typed config. `Run` forwards verbatim.
template <typename Config>
class BoundReconciler final : public Reconciler {
 public:
  using EntryPoint = MatchResult (*)(
      const Graph&, const Graph&, std::span<const std::pair<NodeId, NodeId>>,
      const Config&);
  using DescribeFn = std::string (*)(const Config&);

  BoundReconciler(std::string_view name, EntryPoint run, DescribeFn describe,
                  bool exposes_phase_stats, Config config)
      : name_(name),
        run_(run),
        describe_(describe),
        exposes_phase_stats_(exposes_phase_stats),
        config_(std::move(config)) {}

  MatchResult Run(
      const Graph& g1, const Graph& g2,
      std::span<const std::pair<NodeId, NodeId>> seeds) const override {
    return run_(g1, g2, seeds, config_);
  }
  std::string_view name() const override { return name_; }
  std::string Describe() const override { return describe_(config_); }
  bool ExposesPhaseStats() const override { return exposes_phase_stats_; }

 private:
  std::string_view name_;  // a registry key literal
  EntryPoint run_;
  DescribeFn describe_;
  bool exposes_phase_stats_;
  Config config_;
};

template <typename Config>
std::unique_ptr<Reconciler> Bind(
    std::string_view name, typename BoundReconciler<Config>::EntryPoint run,
    typename BoundReconciler<Config>::DescribeFn describe,
    bool exposes_phase_stats, Config config) {
  return std::make_unique<BoundReconciler<Config>>(
      name, run, describe, exposes_phase_stats, std::move(config));
}

const char* OnOff(bool value) { return value ? "on" : "off"; }

std::string DescribeCore(const MatcherConfig& config) {
  std::ostringstream out;
  out << "core(threshold=" << config.min_score
      << ", iterations=" << config.num_iterations
      << ", bucketing=" << OnOff(config.use_degree_bucketing) << ")";
  return out.str();
}

std::string DescribeSimple(const SimpleMatcherConfig& config) {
  std::ostringstream out;
  out << "simple(threshold=" << config.min_score
      << ", iterations=" << config.num_iterations << ")";
  return out.str();
}

std::string DescribePropagation(const PropagationConfig& config) {
  std::ostringstream out;
  out << "ns09(theta=" << config.theta << ", max-sweeps=" << config.max_sweeps
      << ", reverse-check=" << OnOff(config.reverse_check) << ")";
  return out.str();
}

std::string DescribeFeatures(const FeatureMatcherConfig& config) {
  std::ostringstream out;
  out << "features(depth=" << config.recursion_depth
      << ", degree-band=" << config.degree_band
      << ", max-candidates=" << config.max_candidates
      << ", min-similarity=" << config.min_similarity
      << ", min-degree=" << config.min_degree << ")";
  return out.str();
}

std::string DescribeBp(const BpConfig& config) {
  std::ostringstream out;
  out << "bp(iterations=" << config.iterations
      << ", damping=" << config.damping << ", prior=" << config.prior
      << ", min-belief=" << config.min_belief
      << ", max-sweeps=" << config.max_sweeps
      << ", max-candidates=" << config.max_candidates << ")";
  return out.str();
}

std::string DescribePercolation(const PercolationConfig& config) {
  std::ostringstream out;
  out << "percolation(threshold=" << config.threshold
      << ", min-degree=" << config.min_degree << ")";
  return out.str();
}

// Bounds-checked narrowing for int-typed config fields: an out-of-range
// value is a reportable spec error, never a silent wrap.
int GetIntParam(ParamReader& reader, const std::string& key,
                int default_value) {
  const int64_t value = reader.GetInt(key, default_value);
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    reader.AddError("parameter '" + key + "' is out of range: " +
                    std::to_string(value));
    return default_value;
  }
  return static_cast<int>(value);
}

std::unique_ptr<Reconciler> MakeCore(const ReconcilerSpec& spec,
                                     std::string* error) {
  MatcherConfig config;
  ParamReader reader(spec);
  config.min_score = reader.GetUint32("threshold", config.min_score);
  config.num_iterations =
      GetIntParam(reader, "iterations", config.num_iterations);
  config.use_degree_bucketing =
      reader.GetBool("bucketing", config.use_degree_bucketing);
  config.min_bucket_exponent =
      GetIntParam(reader, "min-bucket-exponent", config.min_bucket_exponent);
  // The smallest bucket's degree floor is 2^exponent in a 32-bit NodeId.
  if (config.min_bucket_exponent < 0 || config.min_bucket_exponent > 31) {
    reader.AddError("parameter 'min-bucket-exponent' must be in [0, 31]");
  }
  config.num_threads = GetIntParam(reader, "threads", config.num_threads);
  config.num_shards = GetIntParam(reader, "shards", config.num_shards);
  config.stop_when_stable =
      reader.GetBool("stop-when-stable", config.stop_when_stable);
  if (config.num_threads < 0) {
    reader.AddError("parameter 'threads' must be >= 0 (0 = all cores)");
  }
  if (config.num_shards < 0) {
    reader.AddError("parameter 'shards' must be >= 0 (0 = max(4, threads))");
  }
  config.checkpoint_dir =
      reader.GetString("checkpoint-dir", config.checkpoint_dir);
  config.checkpoint_every_rounds = GetIntParam(
      reader, "checkpoint-every", config.checkpoint_every_rounds);
  if (config.checkpoint_every_rounds < 1) {
    reader.AddError("parameter 'checkpoint-every' must be >= 1");
  }
  config.resume = reader.GetBool("resume", config.resume);
  if (config.resume && config.checkpoint_dir.empty()) {
    reader.AddError("parameter 'resume' requires 'checkpoint-dir'");
  }
  config.checkpoint_keep =
      GetIntParam(reader, "checkpoint-keep", config.checkpoint_keep);
  if (config.checkpoint_keep < 0) {
    reader.AddError("parameter 'checkpoint-keep' must be >= 0 (0 keeps all)");
  }
  const int64_t budget = reader.GetInt(
      "memory-budget", static_cast<int64_t>(config.memory_budget_bytes));
  if (budget < 0) {
    reader.AddError("parameter 'memory-budget' must be >= 0 (0 = unbudgeted)");
  } else {
    config.memory_budget_bytes = static_cast<uint64_t>(budget);
  }
  config.score_dir = reader.GetString("score-dir", config.score_dir);
  if (config.memory_budget_bytes > 0 && config.score_dir.empty()) {
    reader.AddError("parameter 'memory-budget' requires 'score-dir'");
  }
  config.fault_spec = reader.GetString("fault", config.fault_spec);
  if (!config.fault_spec.empty()) {
    std::string fault_error;
    if (!ValidateFaultSpec(config.fault_spec, &fault_error)) {
      reader.AddError("parameter 'fault' is malformed: " + fault_error);
    }
  }
  if (config.num_iterations < 1) {
    reader.AddError("parameter 'iterations' must be >= 1");
  }
  if (!reader.Finish(error)) return nullptr;
  return MakeCoreReconciler(config);
}

std::unique_ptr<Reconciler> MakeSimple(const ReconcilerSpec& spec,
                                       std::string* error) {
  SimpleMatcherConfig config;
  ParamReader reader(spec);
  config.min_score = reader.GetUint32("threshold", config.min_score);
  config.num_iterations =
      GetIntParam(reader, "iterations", config.num_iterations);
  config.num_threads = GetIntParam(reader, "threads", config.num_threads);
  if (config.num_threads < 0) {
    reader.AddError("parameter 'threads' must be >= 0 (0 = all cores)");
  }
  if (config.num_iterations < 1) {
    reader.AddError("parameter 'iterations' must be >= 1");
  }
  if (!reader.Finish(error)) return nullptr;
  // Delegates to UserMatching (bucketing disabled), so the full per-round
  // emit/scan/select split is populated.
  return Bind("simple", SimpleCommonNeighborsMatch, DescribeSimple,
              /*exposes_phase_stats=*/true, config);
}

std::unique_ptr<Reconciler> MakePropagation(const ReconcilerSpec& spec,
                                            std::string* error) {
  PropagationConfig config;
  ParamReader reader(spec);
  config.theta = reader.GetDouble("theta", config.theta);
  config.max_sweeps = GetIntParam(reader, "max-sweeps", config.max_sweeps);
  config.reverse_check =
      reader.GetBool("reverse-check", config.reverse_check);
  if (config.max_sweeps < 1) {
    reader.AddError("parameter 'max-sweeps' must be >= 1");
  }
  if (!reader.Finish(error)) return nullptr;
  return Bind("ns09", PropagationMatch, DescribePropagation,
              /*exposes_phase_stats=*/false, config);
}

std::unique_ptr<Reconciler> MakeFeatures(const ReconcilerSpec& spec,
                                         std::string* error) {
  FeatureMatcherConfig config;
  ParamReader reader(spec);
  config.recursion_depth =
      GetIntParam(reader, "depth", config.recursion_depth);
  config.degree_band = reader.GetDouble("degree-band", config.degree_band);
  const int64_t max_candidates = reader.GetInt(
      "max-candidates", static_cast<int64_t>(config.max_candidates));
  if (max_candidates < 1) {
    reader.AddError("parameter 'max-candidates' must be >= 1");
  } else {
    config.max_candidates = static_cast<size_t>(max_candidates);
  }
  config.min_similarity =
      reader.GetDouble("min-similarity", config.min_similarity);
  config.min_degree = reader.GetUint32("min-degree", config.min_degree);
  // Pre-validate what StructuralFeatureMatch enforces fatally, so a bad
  // spec is a reportable error rather than a crash.
  if (config.recursion_depth < 0 || config.recursion_depth > 4) {
    reader.AddError("parameter 'depth' must be in [0, 4]");
  }
  if (config.degree_band < 1.0) {
    reader.AddError("parameter 'degree-band' must be >= 1");
  }
  if (!reader.Finish(error)) return nullptr;
  return Bind("features", StructuralFeatureMatch, DescribeFeatures,
              /*exposes_phase_stats=*/false, config);
}

std::unique_ptr<Reconciler> MakeBp(const ReconcilerSpec& spec,
                                   std::string* error) {
  BpConfig config;
  ParamReader reader(spec);
  config.iterations = GetIntParam(reader, "iterations", config.iterations);
  config.damping = reader.GetDouble("damping", config.damping);
  config.prior = reader.GetDouble("prior", config.prior);
  config.min_belief = reader.GetDouble("min-belief", config.min_belief);
  config.max_sweeps = GetIntParam(reader, "max-sweeps", config.max_sweeps);
  const int64_t max_candidates = reader.GetInt(
      "max-candidates", static_cast<int64_t>(config.max_candidates));
  if (max_candidates < 1) {
    reader.AddError("parameter 'max-candidates' must be >= 1");
  } else {
    config.max_candidates = static_cast<size_t>(max_candidates);
  }
  config.num_threads = GetIntParam(reader, "threads", config.num_threads);
  if (config.num_threads < 0) {
    reader.AddError("parameter 'threads' must be >= 0 (0 = all cores)");
  }
  // Pre-validate what BpMatch enforces fatally.
  if (config.iterations < 1) {
    reader.AddError("parameter 'iterations' must be >= 1");
  }
  if (config.damping < 0.0 || config.damping >= 1.0) {
    reader.AddError("parameter 'damping' must be in [0, 1)");
  }
  if (config.max_sweeps < 1) {
    reader.AddError("parameter 'max-sweeps' must be >= 1");
  }
  if (!reader.Finish(error)) return nullptr;
  return Bind("bp", BpMatch, DescribeBp, /*exposes_phase_stats=*/false,
              config);
}

std::unique_ptr<Reconciler> MakePercolation(const ReconcilerSpec& spec,
                                            std::string* error) {
  PercolationConfig config;
  ParamReader reader(spec);
  config.threshold = reader.GetUint32("threshold", config.threshold);
  config.min_degree = reader.GetUint32("min-degree", config.min_degree);
  // r <= 1 percolates the entire candidate space; PercolationMatch rejects
  // it fatally, so turn it into a spec error here.
  if (config.threshold < 2) {
    reader.AddError("parameter 'threshold' (marks r) must be >= 2");
  }
  if (!reader.Finish(error)) return nullptr;
  return Bind("percolation", PercolationMatch, DescribePercolation,
              /*exposes_phase_stats=*/false, config);
}

}  // namespace

std::unique_ptr<Reconciler> MakeCoreReconciler(const MatcherConfig& config) {
  return Bind("core", UserMatching, DescribeCore,
              /*exposes_phase_stats=*/true, config);
}

namespace internal {

void RegisterBuiltinReconcilers(Registry& registry) {
  registry.Register(
      {.key = "core",
       .summary = "User-Matching (paper §3.2): degree-bucketed witness "
                  "scoring, mutual-best selection",
       .params = "threshold, iterations, bucketing, min-bucket-exponent, "
                 "threads, shards, stop-when-stable, checkpoint-dir, "
                 "checkpoint-every, checkpoint-keep, resume, memory-budget, "
                 "score-dir, fault",
       .factory = MakeCore});
  registry.Register(
      {.key = "simple",
       .summary = "common-neighbours ablation: no degree schedule "
                  "(paper §5 Q8)",
       .params = "threshold, iterations, threads",
       .factory = MakeSimple});
  registry.Register(
      {.key = "ns09",
       .summary = "Narayanan-Shmatikov propagation: eccentricity-gated "
                  "cosine scores (S&P 2009)",
       .params = "theta, max-sweeps, reverse-check",
       .factory = MakePropagation});
  registry.Register(
      {.key = "features",
       .summary = "seed-free recursive structural features "
                  "(Henderson et al., KDD 2011)",
       .params = "depth, degree-band, max-candidates, min-similarity, "
                 "min-degree",
       .factory = MakeFeatures});
  registry.Register(
      {.key = "bp",
       .summary = "belief-propagation matching: min-sum message passing "
                  "over witness candidates (Halimi-Ayday)",
       .params = "iterations, damping, prior, min-belief, max-sweeps, "
                 "max-candidates, threads",
       .factory = MakeBp});
  registry.Register(
      {.key = "percolation",
       .summary = "bootstrap percolation matching "
                  "(Yartseva-Grossglauser, COSN 2013)",
       .params = "threshold, min-degree",
       .factory = MakePercolation});
}

}  // namespace internal

}  // namespace reconcile
