#ifndef RECONCILE_UTIL_TOPOLOGY_H_
#define RECONCILE_UTIL_TOPOLOGY_H_

#include <string>
#include <vector>

namespace reconcile {

/// One memory domain of the machine (a NUMA node / socket): an id and the
/// CPUs whose accesses to that domain's memory are local.
struct TopologyDomain {
  int id = 0;
  std::vector<int> cpus;
};

/// The machine's memory topology: a flat list of domains. Reported in host
/// fingerprints; nothing in the library schedules by it. Exactly one domain
/// is the fallback all non-Linux and single-socket hosts take.
struct MachineTopology {
  std::vector<TopologyDomain> domains;

  int num_domains() const { return static_cast<int>(domains.size()); }
};

/// Parses a sysfs-style CPU list ("0-3,8,10-11") into explicit CPU ids.
/// Returns false (leaving `*out` unspecified) on malformed input, including
/// inverted ranges. An empty/whitespace string parses to an empty list (a
/// memory-only NUMA node exposes exactly that).
bool ParseCpuList(const std::string& text, std::vector<int>* out);

/// Parses a `/sys/devices/system/node`-shaped tree rooted at `root`:
/// every `node<k>/cpulist` file becomes one domain (k need not be dense —
/// sparse node numbering survives, sorted by k). Returns false when the
/// tree yields no domains (missing directory, no node entries) or any
/// cpulist is malformed; callers fall back to `SingleDomainTopology()`.
bool ParseSysfsNodeTree(const std::string& root, MachineTopology* out);

/// The fallback topology: one domain containing every CPU
/// (`0 .. hardware_concurrency-1`).
MachineTopology SingleDomainTopology();

/// The process-wide topology, detected once and cached: the Linux sysfs
/// node tree, or (non-Linux, unreadable sysfs, or a single node) the
/// single-domain fallback.
const MachineTopology& DetectTopology();

}  // namespace reconcile

#endif  // RECONCILE_UTIL_TOPOLOGY_H_
