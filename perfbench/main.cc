// perfbench: the reconcile library's end-to-end and per-layer benchmark.
//
//   perfbench --workload <pa-dense|rmat-scan|rmat-spill|serve-churn>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--git-sha <sha>] [--shrink]
//
// Inputs are generated in process from --seed; the same seed gives the same
// inputs and, by the library's determinism contract, the same matching (the
// printed digest, precision and recall repeat exactly). Every run checks its
// outputs. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, where metrics maps each
// metric the run measured to its value: the end-to-end metrics with
// --trace 0 and the per-layer metrics with --trace 1 (run.py turns this
// into the benchmark's result line). A traced run also writes a Chrome
// trace-event file into the work dir. Exit code: 0 when every check passed,
// 1 when one failed, 2 on a usage error.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <system_error>

#include "bench.h"
#include "probes.h"

namespace perfbench {
namespace {

constexpr char kUsage[] =
    "usage: perfbench --workload <pa-dense|rmat-scan|rmat-spill|serve-churn> "
    "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>] "
    "[--git-sha <sha>] [--shrink]\n";

// Shortest decimal that reads back as the same double.
std::string Number(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string JsonObject(const std::map<std::string, std::string>& fields) {
  std::string out = "{";
  for (const auto& [key, value] : fields) {
    if (out.size() > 1) out += ", ";
    out += JsonString(key) + ": " + value;
  }
  return out + "}";
}

bool ParseArgs(int argc, char** argv, Options* options, std::string* git_sha) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--", 0) != 0) return false;
    const std::string arg = argv[i] + 2;
    if (arg == "shrink") {
      flags.emplace(arg, "1");
      continue;
    }
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      flags[arg] = argv[++i];
    } else {
      return false;
    }
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (flags.count(required) == 0) return false;
  }
  options->workload = flags["workload"];
  char* end = nullptr;
  options->seed = std::strtoull(flags["seed"].c_str(), &end, 10);
  if (*end != '\0' || flags["seed"].empty()) return false;
  options->seconds = std::strtod(flags["seconds"].c_str(), &end);
  if (*end != '\0' || !(options->seconds > 0)) return false;
  if (flags["trace"] != "0" && flags["trace"] != "1") return false;
  options->trace = flags["trace"] == "1";
  options->shrink = flags.count("shrink") > 0;
  options->work_dir =
      flags.count("work-dir") ? flags["work-dir"] : ".bench_build/work";
  *git_sha = flags.count("git-sha") ? flags["git-sha"] : "unknown";
  for (const char* known : {"workload", "seed", "seconds", "trace", "shrink",
                            "work-dir", "git-sha"}) {
    flags.erase(known);
  }
  return flags.empty();
}

int Main(int argc, char** argv) {
  Options options;
  std::string git_sha;
  if (!ParseArgs(argc, argv, &options, &git_sha)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const bool batch = options.workload == "pa-dense" ||
                     options.workload == "rmat-scan" ||
                     options.workload == "rmat-spill";
  if (!batch && options.workload != "serve-churn") {
    std::fprintf(stderr, "unknown workload '%s'\n%s", options.workload.c_str(),
                 kUsage);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create work dir %s: %s\n",
                 options.work_dir.c_str(), ec.message().c_str());
    return 2;
  }

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr,
                 "warning: perfbench built as '%s', not Release; timings "
                 "are not comparable\n",
                 build_type.c_str());
  }
  const HostInfo host = DetectHost();
  std::printf(
      "perfbench header %s\n",
      JsonObject({{"workload", JsonString(options.workload)},
                  {"seed", std::to_string(options.seed)},
                  {"seconds", Number(options.seconds)},
                  {"trace", options.trace ? "1" : "0"},
                  {"shrink", options.shrink ? "1" : "0"},
                  {"git_sha", JsonString(git_sha)},
                  {"build_type", JsonString(build_type)},
                  {"cpu_model", JsonString(host.cpu_model)},
                  {"nproc", std::to_string(host.nproc)},
                  {"numa_nodes", std::to_string(host.numa_nodes)}})
          .c_str());
  std::fflush(stdout);

  Tracer tracer;
  Outcome outcome = batch ? RunBatchWorkload(options, tracer)
                          : RunServeChurn(options, tracer);
  if (outcome.attempted == 0) {
    std::fprintf(stderr, "workload failed before any operation ran\n");
    return 1;
  }

  std::map<std::string, std::string> run;
  for (const auto& [key, value] : outcome.header) run[key] = JsonString(value);
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(outcome.digest));
  run["digest"] = JsonString(digest);
  run["precision"] = Number(outcome.precision);
  run["recall"] = Number(outcome.recall);
  run["rss_sampler_cpu_s"] = Number(SamplerCpuSeconds());
  std::printf("perfbench run %s\n", JsonObject(run).c_str());

  if (options.trace) {
    const std::string path = options.work_dir + "/trace-" + options.workload +
                             "-" + std::to_string(options.seed) + ".json";
    std::string error;
    if (tracer.WriteChromeJson(path, &error)) {
      std::printf("perfbench trace %s (%zu spans)\n", path.c_str(),
                  tracer.num_spans());
    } else {
      std::fprintf(stderr, "cannot write trace: %s\n", error.c_str());
      outcome.correct = false;
    }
  }

  // Values only: run.py adds the units from BENCHMARK.json and checks the
  // names against it.
  const Metrics& metrics =
      options.trace ? outcome.per_layer : outcome.end_to_end;
  std::string json;
  for (const auto& [name, value] : metrics.values()) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "metric %s is not finite\n", name.c_str());
      outcome.correct = false;
      continue;
    }
    if (!json.empty()) json += ", ";
    json += JsonString(name) + ": " + Number(value);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      outcome.correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed), json.c_str());
  return outcome.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
