// graphgen_cli — generate any graph model supported by the library and
// write it to disk as a text or binary edge list.
//
// Examples:
//   graphgen_cli --model=pa --nodes=100000 --m=20 --out=pa.txt
//   graphgen_cli --model=er --nodes=5000 --er-p=0.004 --out=er.bin --binary
//   graphgen_cli --model=rmat --rmat-scale=18 --out=rmat18.txt
//   graphgen_cli --model=sbm --blocks=1000,1000,500 --p-in=0.02
//                --p-out=0.0005 --out=sbm.txt
//   graphgen_cli --model=facebook --scale=0.5 --out=fb.txt
//
// The flag reference lives in `kUsage` below — run with `--help` to print
// it (docs/cli.md is generated from that output by tools/gen_cli_docs.sh).

#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "reconcile/eval/datasets.h"
#include "reconcile/gen/affiliation.h"
#include "reconcile/gen/chung_lu.h"
#include "reconcile/gen/configuration.h"
#include "reconcile/gen/erdos_renyi.h"
#include "reconcile/gen/preferential_attachment.h"
#include "reconcile/gen/rmat.h"
#include "reconcile/gen/sbm.h"
#include "reconcile/gen/watts_strogatz.h"
#include "reconcile/graph/io.h"
#include "reconcile/graph/statistics.h"
#include "reconcile/util/flags.h"
#include "reconcile/util/rng.h"

namespace reconcile {
namespace {

// The --help text; docs/cli.md embeds this output verbatim (generated by
// tools/gen_cli_docs.sh, diffed in CI) — regenerate the doc after edits.
constexpr const char kUsage[] = R"(graphgen_cli — generate any graph model supported by the library and write
it to disk as a text or binary edge list.

Usage: graphgen_cli --model=<key> --out=<path> [--flag=value ...]

Flags (defaults in brackets):
  --model       er | pa | rmat | chunglu | ws | sbm | config |
                facebook | enron | dblp | gowalla | affiliation  [pa]
  --nodes       node count where applicable                      [10000]
  --m           PA edges per node                                [10]
  --er-p        ER edge probability                              [0.001]
  --rmat-scale  RMAT scale                                       [16]
  --rmat-edge-factor                                             [8]
  --exponent    Chung-Lu / config power-law exponent             [2.5]
  --avg-degree  Chung-Lu average degree                          [20]
  --ws-k --ws-beta   Watts-Strogatz ring degree / rewire prob    [10 0.1]
  --blocks      SBM comma-separated block sizes            [1000,1000]
  --p-in --p-out    SBM densities                          [0.01 0.001]
  --scale       dataset stand-in scale                           [0.25]
  --out         output path (required)
  --binary      write the compact binary format                  [false]
  --stats       print a statistics summary after generating      [false]
  --rng-seed    RNG seed                                         [42]
  --help        print this reference

Exit codes:
  0  success
  1  runtime I/O failure (unwritable output)
  2  usage error (unknown model/flag, malformed --blocks)
)";

// Parses "--blocks=1000,1000,500". Returns false (leaving `sizes` empty)
// on anything non-numeric or out of NodeId range — the caller reports a
// usage error; no exception, no silent wrap.
bool ParseBlockSizes(const std::string& spec, std::vector<NodeId>* sizes) {
  sizes->clear();
  std::string current;
  for (char c : spec + ",") {
    if (c != ',') {
      current.push_back(c);
      continue;
    }
    if (current.empty()) continue;
    uint64_t value = 0;
    for (char digit : current) {
      if (digit < '0' || digit > '9') return false;
      value = value * 10 + static_cast<uint64_t>(digit - '0');
      if (value > std::numeric_limits<NodeId>::max()) return false;
    }
    sizes->push_back(static_cast<NodeId>(value));
    current.clear();
  }
  return !sizes->empty();
}

int Run(int argc, const char* const argv[]) {
  Flags flags;
  std::string error;
  if (!flags.Parse(argc, argv, &error)) {
    std::cerr << "flag error: " << error << "\n";
    return 2;
  }

  if (flags.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }

  const std::string model = flags.GetString("model", "pa");
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  const NodeId nodes = static_cast<NodeId>(flags.GetIntInRange(
      "nodes", 10000, 1, std::numeric_limits<NodeId>::max()));
  const uint64_t rng_seed = static_cast<uint64_t>(flags.GetInt("rng-seed", 42));
  const std::string out_path = flags.GetString("out", "");
  if (out_path.empty()) {
    std::cerr << "--out is required\n";
    return 2;
  }

  // Range-checked double flags shared by several models (each fails with a
  // usage error before it reaches a generator's invariant check).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto exponent = [&flags] {
    return flags.GetDoubleInRange("exponent", 2.5, 2.0, kInf, true);
  };
  auto avg_degree = [&flags] {
    return flags.GetDoubleInRange("avg-degree", 20.0, 0.0, kInf, true);
  };
  auto scale = [&flags] {
    return flags.GetDoubleInRange("scale", 0.25, 0.0, 1.0, true);
  };

  Graph g;
  if (model == "er") {
    g = GenerateErdosRenyi(
        nodes, flags.GetDoubleInRange("er-p", 0.001, 0.0, 1.0), rng_seed);
  } else if (model == "pa") {
    g = GeneratePreferentialAttachment(
        nodes, static_cast<int>(flags.GetIntInRange("m", 10, 1, kIntMax)),
        rng_seed);
  } else if (model == "rmat") {
    RmatParams params;
    params.scale =
        static_cast<int>(flags.GetIntInRange("rmat-scale", 16, 1, 30));
    params.edge_factor =
        flags.GetDoubleInRange("rmat-edge-factor", 8.0, 0.0, kInf, true);
    g = GenerateRmat(params, rng_seed);
  } else if (model == "chunglu") {
    g = GenerateChungLu(PowerLawWeights(nodes, exponent(), avg_degree()),
                        rng_seed);
  } else if (model == "ws") {
    const int64_t k = flags.GetIntInRange("ws-k", 10, 1, kIntMax);
    if (2 * k >= static_cast<int64_t>(nodes)) {
      std::cerr << "--model=ws needs --nodes > 2 * --ws-k (got --nodes="
                << nodes << ", --ws-k=" << k << ")\n";
      return 2;
    }
    g = GenerateWattsStrogatz(nodes, static_cast<int>(k),
                              flags.GetDoubleInRange("ws-beta", 0.1, 0.0, 1.0),
                              rng_seed);
  } else if (model == "sbm") {
    SbmParams params;
    const std::string blocks = flags.GetString("blocks", "1000,1000");
    if (!ParseBlockSizes(blocks, &params.block_sizes)) {
      std::cerr << "bad --blocks=" << blocks
                << " (want comma-separated positive integers)\n";
      return 2;
    }
    params.p_in = flags.GetDoubleInRange("p-in", 0.01, 0.0, 1.0);
    params.p_out = flags.GetDoubleInRange("p-out", 0.001, 0.0, 1.0);
    g = GenerateSbm(params, rng_seed);
  } else if (model == "config") {
    // Power-law degree sequence realized exactly via the erased
    // configuration model.
    std::vector<double> weights =
        PowerLawWeights(nodes, exponent(), avg_degree());
    std::vector<NodeId> degrees(weights.size());
    size_t sum = 0;
    for (size_t i = 0; i < weights.size(); ++i) {
      degrees[i] = static_cast<NodeId>(weights[i] + 0.5);
      sum += degrees[i];
    }
    if (sum % 2 == 1) ++degrees[0];
    g = GenerateConfigurationModel(degrees, rng_seed);
  } else if (model == "facebook") {
    g = MakeFacebookStandin(scale(), rng_seed);
  } else if (model == "enron") {
    g = MakeEnronStandin(scale(), rng_seed);
  } else if (model == "dblp") {
    g = MakeDblpStandin(scale(), rng_seed);
  } else if (model == "gowalla") {
    g = MakeGowallaStandin(scale(), rng_seed);
  } else if (model == "affiliation") {
    g = MakeAffiliationStandin(scale(), rng_seed).Fold();
  } else {
    std::cerr << "unknown --model=" << model << "\n";
    return 2;
  }

  const bool binary = flags.GetBool("binary", false);
  const bool print_stats = flags.GetBool("stats", false);
  for (const std::string& key : flags.UnusedKeys()) {
    std::cerr << "warning: unused flag --" << key << "\n";
  }

  const bool ok = binary ? WriteEdgeListBinary(g, out_path)
                         : WriteEdgeListText(g, out_path);
  if (!ok) {
    std::cerr << "failed to write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << g.num_nodes() << " nodes, " << g.num_edges()
            << " edges to " << out_path << (binary ? " (binary)" : " (text)")
            << "\n";
  if (print_stats) {
    std::cout << SummarizeStatistics(ComputeStatistics(g)) << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace reconcile

int main(int argc, char** argv) { return reconcile::Run(argc, argv); }
