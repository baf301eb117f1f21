#include "probes.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>

#include "reconcile/util/topology.h"

namespace perfbench {
namespace {

// CPU seconds of all sampler threads, each adding its own as it goes.
std::atomic<double> sampler_cpu_s{0};

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double SamplerCpuSeconds() { return sampler_cpu_s.load(); }

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime) -
         sampler_cpu_s.load();
}

double AnonRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("RssAnon:", 0) == 0) {
      return std::strtod(line.c_str() + 8, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return -1;
}

AnonRssSampler::AnonRssSampler() : peak_mb_(AnonRssMb()) {
  thread_ = std::thread([this] {
    double accounted = ThreadCpuSeconds();
    while (!stop_.load(std::memory_order_relaxed)) {
      const double now = AnonRssMb();
      double peak = peak_mb_.load();
      while (now > peak && !peak_mb_.compare_exchange_weak(peak, now)) {
      }
      const double used = ThreadCpuSeconds();
      sampler_cpu_s.fetch_add(used - accounted);
      accounted = used;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

AnonRssSampler::~AnonRssSampler() {
  stop_.store(true);
  thread_.join();
}

double AnonRssSampler::TakePeak() {
  const double now = AnonRssMb();
  const double peak = peak_mb_.exchange(now);
  return std::max(peak, now);
}

HostInfo DetectHost() {
  HostInfo host;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t start = line.find_first_not_of(" \t", line.find(':') + 1);
      if (start != std::string::npos) host.cpu_model = line.substr(start);
      break;
    }
  }
  if (host.cpu_model.empty()) host.cpu_model = "unknown";
  // CPUs this process may run on, as `nproc` counts them.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  host.nproc = sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                   ? CPU_COUNT(&cpus)
                   : static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  host.numa_nodes = reconcile::DetectTopology().num_domains();
  return host;
}

}  // namespace perfbench
