// The multi-process contract (DESIGN.md §2.7): the matching is a pure
// function of the inputs — bit-identical for every worker count, thread
// count and injected-failure schedule. These tests drive the real
// coordinator/worker processes end to end and byte-compare matchings
// against the single-threaded in-process run.
//
// Process discipline (same as integration_kill_resume_test): the parent
// NEVER builds a workload or runs the matcher — the coordinator forks
// workers, and forking from a threaded parent is undefined behaviour.
// Every run happens in a forked child that regenerates its inputs
// deterministically and writes its matching to a file; the parent only
// forks, waits and compares bytes.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/core/matcher.h"
#include "reconcile/eval/match_io.h"
#include "reconcile/gen/chung_lu.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"
#include "reconcile/util/checkpoint.h"

namespace reconcile {
namespace {

constexpr uint64_t kWorkloadSeed = 4242;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<char> Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

struct ChildSpec {
  MatcherConfig config;
  std::string matching_out;
};

// CHILD-ONLY code path: regenerates the workload and runs the matcher
// (which forks the worker pool itself when config.workers > 1).
void ChildMain(const ChildSpec& spec) {
  Graph g = GenerateChungLu(PowerLawWeights(1000, 2.2, 12.0), kWorkloadSeed);
  IndependentSampleOptions options;
  options.s1 = 0.6;
  options.s2 = 0.6;
  RealizationPair pair = SampleIndependent(g, options, kWorkloadSeed + 1);
  SeedOptions seeding;
  seeding.fraction = 0.08;
  auto seeds = GenerateSeeds(pair, seeding, kWorkloadSeed + 2);

  MatchResult result = UserMatching(pair.g1, pair.g2, seeds, spec.config);
  if (!spec.matching_out.empty() &&
      !WriteMatchingText(result, spec.matching_out)) {
    _exit(3);
  }
  _exit(0);
}

int RunChild(const ChildSpec& spec) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    ChildMain(spec);  // never returns
  }
  if (pid < 0) return -1;
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  if (WIFSIGNALED(status)) return -1;
  return WEXITSTATUS(status);
}

// Shards pinned to 8 so shard ids in fault specs are stable and every
// worker count in {1, 2, 4} divides the space evenly.
MatcherConfig BaseConfig() {
  MatcherConfig config;
  config.num_shards = 8;
  config.num_threads = 4;
  return config;
}

// Runs the single-threaded in-process reference once per process and
// caches its bytes.
const std::vector<char>& ReferenceBytes() {
  static const std::vector<char>* bytes = [] {
    const std::string out = TempPath("dist_ref.txt");
    ChildSpec spec;
    spec.config = BaseConfig();
    spec.config.num_threads = 1;
    spec.matching_out = out;
    EXPECT_EQ(RunChild(spec), 0);
    auto* b = new std::vector<char>(Slurp(out));
    EXPECT_FALSE(b->empty());
    std::remove(out.c_str());
    return b;
  }();
  return *bytes;
}

// One distributed run; its matching must equal the in-process reference.
void CheckIdentical(const MatcherConfig& config, const std::string& tag) {
  const std::string out = TempPath("dist_" + tag + ".txt");
  ChildSpec spec;
  spec.config = config;
  spec.matching_out = out;
  ASSERT_EQ(RunChild(spec), 0) << tag;
  EXPECT_EQ(Slurp(out), ReferenceBytes())
      << tag << ": distributed matching differs from the in-process run";
  std::remove(out.c_str());
}

TEST(DistDeterminismTest, WorkerAndThreadCountInvariance) {
  // {2, 4} workers x {1, 4} threads — every cell must reproduce the
  // single-process matching byte for byte. (The thread knob only shapes
  // the coordinator-side shard resolve; workers compute serially, so
  // nothing else may depend on it.)
  for (int workers : {2, 4}) {
    for (int threads : {1, 4}) {
      MatcherConfig config = BaseConfig();
      config.workers = workers;
      config.num_threads = threads;
      CheckIdentical(config, "w" + std::to_string(workers) + "_t" +
                                 std::to_string(threads));
    }
  }
}

TEST(DistDeterminismTest, MoreWorkersThanShardsClampsAndMatches) {
  MatcherConfig config = BaseConfig();
  config.num_shards = 2;
  config.workers = 4;  // clamped to 2
  const std::string out = TempPath("dist_clamp.txt");
  const std::string ref = TempPath("dist_clamp_ref.txt");
  ChildSpec spec;
  spec.config = config;
  spec.matching_out = out;
  ASSERT_EQ(RunChild(spec), 0);
  spec.config.workers = 1;
  spec.matching_out = ref;
  ASSERT_EQ(RunChild(spec), 0);
  EXPECT_EQ(Slurp(out), Slurp(ref));
  std::remove(out.c_str());
  std::remove(ref.c_str());
}

TEST(DistDeterminismTest, PreHandshakeWorkerDeathIsRepaired) {
  // Slot 1 dies before its handshake heartbeat: the failure detector sees
  // the EOF, respawns it (the respawn strips the one-shot fault), and the
  // round proceeds — identical bytes.
  MatcherConfig config = BaseConfig();
  config.workers = 2;
  config.fault_spec = "worker_crash:worker_start=1";
  CheckIdentical(config, "prehandshake");
}

TEST(DistDeterminismTest, MidRoundWorkerDeathIsRepaired) {
  // Death after scanning a mid shard: the respawned worker rebuilds its
  // shard slice by replaying the round history, then recomputes the round.
  MatcherConfig config = BaseConfig();
  config.workers = 2;
  config.fault_spec = "worker_crash:after_shard=2";
  CheckIdentical(config, "after_shard_mid");
}

TEST(DistDeterminismTest, DeathAfterFinalShardIsRepaired) {
  // The nastiest window: the worker finished all its scan work and died
  // before (or while) sending its RESULT. The coordinator must not count
  // any partial result and must recompute the slice.
  MatcherConfig config = BaseConfig();
  config.workers = 2;
  config.fault_spec = "worker_crash:after_shard=7";  // last shard overall
  CheckIdentical(config, "after_shard_last");
}

TEST(DistDeterminismTest, CorruptResultFrameIsRepaired) {
  // io:msg_corrupt flips a payload byte after the CRC: the coordinator
  // must treat the worker as lost (a peer that writes bad bytes cannot be
  // trusted for the rest of the round) and repair.
  MatcherConfig config = BaseConfig();
  config.workers = 2;
  config.fault_spec = "io:msg_corrupt=1";
  CheckIdentical(config, "msg_corrupt");
}

TEST(DistDeterminismTest, StalledWorkerIsDetectedByDeadline) {
  // io:msg_stall withholds a RESULT and silences the heartbeat — the
  // hung-worker shape. Only the per-request deadline can catch it.
  MatcherConfig config = BaseConfig();
  config.workers = 2;
  config.worker_timeout_ms = 300;
  config.fault_spec = "io:msg_stall=1";
  CheckIdentical(config, "msg_stall");
}

TEST(DistDeterminismTest, FourWorkerKillStormIsRepaired) {
  // Three of four workers die across different rounds/shards; survivors
  // absorb the slices (respawns permitting) and the bytes still match.
  MatcherConfig config = BaseConfig();
  config.workers = 4;
  config.fault_spec =
      "worker_crash:worker_start=2;worker_crash:after_shard=1;"
      "worker_crash:after_shard=6";
  CheckIdentical(config, "kill_storm");
}

TEST(DistDeterminismTest, RetryExhaustionDegradesToInProcess) {
  // Zero retry budget and both workers dead: the distributed run must
  // give up gracefully and the in-process fallback must produce the
  // identical matching with exit 0 — never a crash, never a wrong result.
  MatcherConfig config = BaseConfig();
  config.workers = 2;
  config.worker_retry = 0;
  config.fault_spec = "worker_crash:worker_start=1;worker_crash:worker_start=2";
  CheckIdentical(config, "exhaustion");
}

TEST(DistDeterminismTest, UnsupportedConfigFallsBackInProcess) {
  // Checkpointed runs cannot run distributed; the gate must warn and fall
  // back, still byte-identical to the same config without workers.
  MatcherConfig config = BaseConfig();
  config.workers = 2;
  config.checkpoint_dir = TempPath("dist_gate_ckpt");
  const std::string out = TempPath("dist_gate.txt");
  const std::string ref = TempPath("dist_gate_ref.txt");
  ChildSpec spec;
  spec.config = config;
  spec.matching_out = out;
  ASSERT_EQ(RunChild(spec), 0);
  spec.config.workers = 1;
  spec.matching_out = ref;
  ASSERT_EQ(RunChild(spec), 0);
  EXPECT_EQ(Slurp(out), Slurp(ref));
  EXPECT_EQ(Slurp(out), ReferenceBytes());
  for (const CheckpointFile& file : ListCheckpoints(config.checkpoint_dir)) {
    std::remove(file.path.c_str());
  }
  ::rmdir(config.checkpoint_dir.c_str());
  std::remove(out.c_str());
  std::remove(ref.c_str());
}

}  // namespace
}  // namespace reconcile
