#include "reconcile/util/topology.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

namespace reconcile {

namespace {

constexpr const char* kSysfsNodeRoot = "/sys/devices/system/node";

bool ParseInt(const std::string& text, int* out) {
  if (text.empty()) return false;
  int value = 0;
  for (char c : text) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
    const int digit = c - '0';
    if (value > (std::numeric_limits<int>::max() - digit) / 10) {
      return false;  // would overflow — reject like any malformed input
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

}  // namespace

bool ParseCpuList(const std::string& text, std::vector<int>* out) {
  out->clear();
  std::string trimmed;
  for (char c : text) {
    if (!std::isspace(static_cast<unsigned char>(c))) trimmed.push_back(c);
  }
  if (trimmed.empty()) return true;  // memory-only node: no CPUs
  std::stringstream stream(trimmed);
  std::string token;
  while (std::getline(stream, token, ',')) {
    const size_t dash = token.find('-');
    if (dash == std::string::npos) {
      int cpu = 0;
      if (!ParseInt(token, &cpu)) return false;
      out->push_back(cpu);
    } else {
      int lo = 0, hi = 0;
      if (!ParseInt(token.substr(0, dash), &lo) ||
          !ParseInt(token.substr(dash + 1), &hi) || lo > hi) {
        return false;
      }
      for (int cpu = lo; cpu <= hi; ++cpu) out->push_back(cpu);
    }
  }
  return true;
}

bool ParseSysfsNodeTree(const std::string& root, MachineTopology* out) {
  namespace fs = std::filesystem;
  out->domains.clear();
  std::error_code ec;
  if (!fs::is_directory(root, ec) || ec) return false;

  std::vector<std::pair<int, fs::path>> nodes;
  for (const fs::directory_entry& entry : fs::directory_iterator(root, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("node", 0) != 0) continue;
    int id = 0;
    if (!ParseInt(name.substr(4), &id)) continue;
    nodes.emplace_back(id, entry.path());
  }
  if (ec || nodes.empty()) return false;
  std::sort(nodes.begin(), nodes.end());

  for (const auto& [id, path] : nodes) {
    std::ifstream file(path / "cpulist");
    if (!file.is_open()) return false;
    std::string line;
    std::getline(file, line);
    TopologyDomain domain;
    domain.id = id;
    if (!ParseCpuList(line, &domain.cpus)) return false;
    out->domains.push_back(std::move(domain));
  }
  return !out->domains.empty();
}

MachineTopology SingleDomainTopology() {
  MachineTopology topo;
  TopologyDomain domain;
  domain.id = 0;
  const unsigned hw = std::thread::hardware_concurrency();
  const int cpus = hw == 0 ? 1 : static_cast<int>(hw);
  domain.cpus.reserve(static_cast<size_t>(cpus));
  for (int c = 0; c < cpus; ++c) domain.cpus.push_back(c);
  topo.domains.push_back(std::move(domain));
  return topo;
}

const MachineTopology& DetectTopology() {
  static const MachineTopology cached = [] {
    MachineTopology detected;
    if (ParseSysfsNodeTree(kSysfsNodeRoot, &detected) &&
        detected.num_domains() > 1) {
      // Drop memory-only nodes (no CPUs): no thread ever runs local to them.
      detected.domains.erase(
          std::remove_if(detected.domains.begin(), detected.domains.end(),
                         [](const TopologyDomain& d) { return d.cpus.empty(); }),
          detected.domains.end());
      if (detected.num_domains() > 1) return detected;
    }
    return SingleDomainTopology();
  }();
  return cached;
}

}  // namespace reconcile
