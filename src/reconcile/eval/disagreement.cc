#include "reconcile/eval/disagreement.h"

#include <sstream>
#include <vector>

#include "reconcile/util/logging.h"

namespace reconcile {

DisagreementReport CompareMatchings(const RealizationPair& pair,
                                    const MatchResult& a,
                                    const MatchResult& b) {
  const NodeId n = pair.g1.num_nodes();
  RECONCILE_CHECK_EQ(a.map_1to2.size(), n);
  RECONCILE_CHECK_EQ(b.map_1to2.size(), n);

  // A node seeded in either run is left out.
  std::vector<char> is_seed = a.SeedMask1();
  const std::vector<char> b_seed = b.SeedMask1();
  for (NodeId u = 0; u < n; ++u) is_seed[u] |= b_seed[u];

  DisagreementReport report;
  for (NodeId u = 0; u < n; ++u) {
    if (is_seed[u]) continue;
    const NodeId va = a.map_1to2[u];
    const NodeId vb = b.map_1to2[u];
    if (va != kInvalidNode) ++report.a_matched;
    if (vb != kInvalidNode) ++report.b_matched;
    if (va != kInvalidNode && vb != kInvalidNode) {
      if (va == vb) {
        ++report.agree_links;
      } else {
        ++report.conflict_links;
      }
    } else if (va != kInvalidNode) {
      ++report.a_only_links;
    } else if (vb != kInvalidNode) {
      ++report.b_only_links;
    }

    const NodeId truth =
        u < pair.map_1to2.size() ? pair.map_1to2[u] : kInvalidNode;
    const bool identifiable = truth != kInvalidNode &&
                              pair.g1.degree(u) >= 1 &&
                              pair.g2.degree(truth) >= 1;
    if (!identifiable) continue;
    ++report.num_targets;
    const bool a_good = va == truth;
    const bool b_good = vb == truth;
    if (a_good && b_good) {
      ++report.both_good;
    } else if (a_good) {
      ++report.only_a_good;
    } else if (b_good) {
      ++report.only_b_good;
    } else {
      ++report.neither_good;
    }
  }
  return report;
}

std::string FormatDisagreementReport(const DisagreementReport& report,
                                     const std::string& a_name,
                                     const std::string& b_name) {
  std::ostringstream out;
  out << "targets " << report.num_targets << ": both " << report.both_good
      << " | " << a_name << "-only " << report.only_a_good << " | " << b_name
      << "-only " << report.only_b_good << " | neither "
      << report.neither_good << "\nlinks: agree " << report.agree_links
      << ", conflict " << report.conflict_links << ", " << a_name << "-only "
      << report.a_only_links << ", " << b_name << "-only "
      << report.b_only_links << " (" << a_name << " " << report.a_matched
      << " matched, " << b_name << " " << report.b_matched << " matched)";
  return out.str();
}

}  // namespace reconcile
