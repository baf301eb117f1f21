#include "reconcile/eval/match_io.h"

#include <fstream>
#include <sstream>

namespace reconcile {

bool WriteMatchingText(const MatchResult& result, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "# links=" << result.NumLinks() << " seeds=" << result.seeds.size()
      << "\n";
  const std::vector<char> is_seed = result.SeedMask1();
  for (NodeId u = 0; u < result.map_1to2.size(); ++u) {
    const NodeId v = result.map_1to2[u];
    if (v == kInvalidNode) continue;
    out << u << " " << v;
    if (is_seed[u]) out << " seed";
    out << "\n";
  }
  return static_cast<bool>(out);
}

bool ReadMatchingText(const std::string& path,
                      std::vector<std::pair<NodeId, NodeId>>* links,
                      std::vector<std::pair<NodeId, NodeId>>* seeds) {
  std::ifstream in(path);
  if (!in) return false;
  std::vector<std::pair<NodeId, NodeId>> parsed_links;
  std::vector<std::pair<NodeId, NodeId>> parsed_seeds;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    uint64_t u = 0, v = 0;
    if (!(fields >> u >> v)) return false;
    if (u >= kInvalidNode || v >= kInvalidNode) return false;
    std::string tag;
    const bool is_seed = static_cast<bool>(fields >> tag) && tag == "seed";
    parsed_links.emplace_back(static_cast<NodeId>(u),
                              static_cast<NodeId>(v));
    if (is_seed) parsed_seeds.emplace_back(parsed_links.back());
  }
  if (links != nullptr) *links = std::move(parsed_links);
  if (seeds != nullptr) *seeds = std::move(parsed_seeds);
  return true;
}

bool WriteSeedsText(const std::vector<std::pair<NodeId, NodeId>>& seeds,
                    const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "# seeds=" << seeds.size() << "\n";
  for (const auto& [u, v] : seeds) out << u << " " << v << " seed\n";
  return static_cast<bool>(out);
}

}  // namespace reconcile
