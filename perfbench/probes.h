#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

// Process probes: CPU time of all threads, a sampler of anonymous resident
// memory, and the host fingerprint printed in the run header.

#include <atomic>
#include <string>
#include <thread>

namespace perfbench {

// User + system CPU seconds of every thread of the process (getrusage),
// less what AnonRssSampler threads have used: the sampler's cost grows with
// wall time, not with the work measured.
double CpuSeconds();

// CPU seconds every AnonRssSampler thread has used so far.
double SamplerCpuSeconds();

// Current anonymous resident memory (RssAnon) in MiB, or -1 when
// /proc/self/status has no such line.
double AnonRssMb();

// Samples AnonRssMb on a background thread every millisecond while it
// lives and keeps the maximum. Anonymous memory only: file-backed pages
// (the spill store's mmap'd tiers) do not count, so a spilled run reports
// the heap it kept, not what the page cache held.
class AnonRssSampler {
 public:
  AnonRssSampler();
  ~AnonRssSampler();
  AnonRssSampler(const AnonRssSampler&) = delete;
  AnonRssSampler& operator=(const AnonRssSampler&) = delete;

  // Returns the peak in MiB since construction or the last call, and
  // restarts the peak from the current value.
  double TakePeak();

 private:
  std::atomic<bool> stop_{false};
  std::atomic<double> peak_mb_{0};
  std::thread thread_;
};

struct HostInfo {
  std::string cpu_model;
  int nproc = 0;
  int numa_nodes = 0;
};
HostInfo DetectHost();

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
