#include "reconcile/dist/coordinator.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "reconcile/core/best_table.h"
#include "reconcile/core/matcher_state.h"
#include "reconcile/dist/wire.h"
#include "reconcile/dist/worker.h"
#include "reconcile/util/fault.h"
#include "reconcile/util/logging.h"
#include "reconcile/util/shutdown.h"
#include "reconcile/util/thread_pool.h"
#include "reconcile/util/timer.h"

namespace reconcile::dist {

namespace {

int64_t NowMs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return int64_t(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

struct WorkerProc {
  pid_t pid = -1;
  int fd = -1;
  bool alive = false;
  int retries_used = 0;
  std::vector<uint32_t> shards;  // current assignment, ascending
  uint64_t synced_links = 0;     // log prefix the worker is known to hold
  int64_t last_heard_ms = 0;
  bool has_result = false;
  RoundResult result;
};

// The coordinator: a single-threaded replica of the round cursor, link log
// and node maps (so forks hand every worker a consistent snapshot for
// free, copy-on-write), plus the failure detector and the per-round merge.
// It keeps NO score state — that lives only in the workers, and a lost
// worker's slice is rebuilt there from the log + round history.
class Coordinator {
 public:
  Coordinator(const Graph& g1, const Graph& g2, const MatcherConfig& config,
              int num_workers)
      : g1_(g1),
        g2_(g2),
        config_(config),
        num_shards_(config.num_shards),
        procs_(size_t(num_workers)) {}

  ~Coordinator() { KillAll(); }

  bool Run(std::span<const std::pair<NodeId, NodeId>> seeds,
           MatchResult* result);

 private:
  bool SpawnWorker(int slot, bool respawn);
  void MarkLost(int slot, const char* why);
  bool SendRoundTo(int slot, PhaseStats* stats);
  bool RepairLoss(int slot, PhaseStats* stats);
  bool CollectRound(PhaseStats* stats);
  bool AllResultsIn() const;
  size_t MergeAndCommit(PhaseStats* stats);
  void ShutdownWorkers();
  void KillAll();
  int LiveCount() const {
    int n = 0;
    for (const WorkerProc& p : procs_) n += p.alive ? 1 : 0;
    return n;
  }

  const Graph& g1_;
  const Graph& g2_;
  MatcherConfig config_;
  int num_shards_;
  std::vector<WorkerProc> procs_;

  // Replicated matching state (what `MatcherState` holds in-process).
  std::vector<std::pair<NodeId, NodeId>> links_;
  std::vector<NodeId> map_1to2_;
  std::vector<NodeId> map_2to1_;
  std::vector<RoundMeta> history_;
  std::vector<PhaseStats> phases_;
  size_t num_seeds_ = 0;
  size_t emitted_links_ = 0;
  uint32_t round_ = 0;  // 1-based id of the in-flight round
  int iteration_ = 1;
  int current_bucket_ = 0;

  // best2 merge scratch, round-stamped so no per-round clear is needed.
  std::vector<uint32_t> score2_;
  std::vector<uint32_t> ties2_;
  std::vector<uint32_t> stamp2_;
};

bool Coordinator::SpawnWorker(int slot, bool respawn) {
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    std::fprintf(stderr, "dist: socketpair failed: %s\n", strerror(errno));
    return false;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::fprintf(stderr, "dist: fork failed: %s\n", strerror(errno));
    close(sv[0]);
    close(sv[1]);
    return false;
  }
  if (pid == 0) {
    // Worker child: inherits the graphs, link log and round history
    // copy-on-write — nothing heavyweight ever crosses the wire. Drop the
    // coordinator ends of every socket so sibling EOFs stay meaningful.
    close(sv[0]);
    for (const WorkerProc& p : procs_) {
      if (p.fd >= 0) close(p.fd);
    }
    _exit(WorkerMain(sv[1], slot, g1_, g2_, config_, links_, history_,
                     respawn));
  }
  close(sv[1]);
  WorkerProc& proc = procs_[size_t(slot)];
  proc.pid = pid;
  proc.fd = sv[0];
  proc.alive = true;
  proc.synced_links = links_.size();
  proc.last_heard_ms = NowMs();
  proc.has_result = false;
  return true;
}

void Coordinator::MarkLost(int slot, const char* why) {
  WorkerProc& proc = procs_[size_t(slot)];
  if (!proc.alive) return;
  std::fprintf(stderr, "dist: worker %d lost (%s)\n", slot + 1, why);
  kill(proc.pid, SIGKILL);
  waitpid(proc.pid, nullptr, 0);
  close(proc.fd);
  proc.fd = -1;
  proc.pid = -1;
  proc.alive = false;
  proc.has_result = false;
}

bool Coordinator::SendRoundTo(int slot, PhaseStats* stats) {
  WorkerProc& proc = procs_[size_t(slot)];
  RoundOrder order;
  order.round = round_;
  order.bucket_exponent = current_bucket_;
  order.meta = history_.back();
  order.delta_start = proc.synced_links;
  order.delta.assign(links_.begin() + ptrdiff_t(proc.synced_links),
                     links_.begin() + ptrdiff_t(order.meta.emit_end));
  order.shards = proc.shards;
  const std::vector<uint8_t> payload = EncodeRound(order);
  std::string error;
  if (!SendFrame(proc.fd, MsgType::kRound, payload, &error)) return false;
  proc.synced_links = order.meta.emit_end;
  proc.has_result = false;
  ++stats->dist_messages_sent;
  stats->dist_bytes_sent += payload.size() + 16;
  return true;
}

// Repairs the loss of `slot`'s shard slice: respawn with exponential
// backoff while the slot's retry budget lasts, then hand the slice to the
// survivor with the fewest shards (ties to the lowest slot — the
// reassignment must be deterministic only for bookkeeping; the *matching*
// is partition-independent either way). False only when no process is
// left to own the shards.
bool Coordinator::RepairLoss(int slot, PhaseStats* stats) {
  for (;;) {
    WorkerProc& lost = procs_[size_t(slot)];
    if (lost.shards.empty()) return true;  // nothing was owed
    int target = -1;
    if (lost.retries_used < config_.worker_retry) {
      ++lost.retries_used;
      ++stats->dist_worker_retries;
      const int backoff_ms =
          std::min(500, 20 << std::min(5, lost.retries_used - 1));
      usleep(useconds_t(backoff_ms) * 1000);
      if (SpawnWorker(slot, /*respawn=*/true)) target = slot;
      // A failed spawn burns the retry and loops (eventually reassigning).
      if (target < 0) continue;
    } else {
      for (int i = 0; i < int(procs_.size()); ++i) {
        const WorkerProc& p = procs_[size_t(i)];
        if (!p.alive) continue;
        if (target < 0 ||
            p.shards.size() < procs_[size_t(target)].shards.size()) {
          target = i;
        }
      }
      if (target < 0) return false;  // everyone is gone
      WorkerProc& survivor = procs_[size_t(target)];
      survivor.shards.insert(survivor.shards.end(), lost.shards.begin(),
                             lost.shards.end());
      std::sort(survivor.shards.begin(), survivor.shards.end());
      stats->dist_shards_reassigned += lost.shards.size();
      std::fprintf(stderr,
                   "dist: reassigning %zu shard(s) of worker %d to worker "
                   "%d (retry budget spent)\n",
                   lost.shards.size(), slot + 1, target + 1);
      lost.shards.clear();
      survivor.has_result = false;
    }
    if (SendRoundTo(target, stats)) return true;
    MarkLost(target, "send failed");
    slot = target;
  }
}

bool Coordinator::AllResultsIn() const {
  size_t covered = 0;
  for (const WorkerProc& p : procs_) {
    if (!p.alive) continue;
    if (!p.has_result) return false;
    covered += p.shards.size();
  }
  if (LiveCount() == 0) return false;
  RECONCILE_CHECK_EQ(covered, size_t(num_shards_))
      << "dist: kept results do not partition the shard space";
  return true;
}

// The failure-detecting event loop of one round: wait until every live
// worker's (current-assignment) result is in, repairing losses as they
// surface. A worker is lost on EOF, a corrupt or over-deadline frame, or
// `worker_timeout_ms` of total silence (heartbeats count as liveness).
bool Coordinator::CollectRound(PhaseStats* stats) {
  for (;;) {
    if (AllResultsIn()) return true;
    const int64_t now = NowMs();
    int64_t next_deadline = now + config_.worker_timeout_ms;
    for (int slot = 0; slot < int(procs_.size()); ++slot) {
      WorkerProc& proc = procs_[size_t(slot)];
      if (!proc.alive || proc.has_result) continue;
      const int64_t deadline = proc.last_heard_ms + config_.worker_timeout_ms;
      if (now >= deadline) {
        MarkLost(slot, "deadline exceeded");
        if (!RepairLoss(slot, stats)) return false;
      } else {
        next_deadline = std::min(next_deadline, deadline);
      }
    }
    if (AllResultsIn()) return true;
    if (LiveCount() == 0) return false;

    std::vector<pollfd> pfds;
    std::vector<int> slots;
    for (int slot = 0; slot < int(procs_.size()); ++slot) {
      if (!procs_[size_t(slot)].alive) continue;
      pfds.push_back(pollfd{procs_[size_t(slot)].fd, POLLIN, 0});
      slots.push_back(slot);
    }
    const int wait_ms = int(std::clamp<int64_t>(next_deadline - NowMs(), 5,
                                                200));
    const int ready = poll(pfds.data(), nfds_t(pfds.size()), wait_ms);
    if (ready < 0 && errno != EINTR) {
      std::fprintf(stderr, "dist: poll failed: %s\n", strerror(errno));
      return false;
    }
    if (ready <= 0) continue;

    for (size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const int slot = slots[i];
      WorkerProc& proc = procs_[size_t(slot)];
      if (!proc.alive) continue;  // lost while handling an earlier fd
      Frame frame;
      std::string error;
      const RecvStatus status =
          RecvFrame(proc.fd, config_.worker_timeout_ms, &frame, &error);
      if (status != RecvStatus::kOk) {
        MarkLost(slot, RecvStatusName(status));
        if (!RepairLoss(slot, stats)) return false;
        continue;
      }
      proc.last_heard_ms = NowMs();
      ++stats->dist_messages_received;
      stats->dist_bytes_received += frame.payload.size() + 16;
      if (frame.type != MsgType::kResult) continue;  // heartbeat
      RoundResult result;
      if (!DecodeResult(frame.payload, &result, &error)) {
        MarkLost(slot, "undecodable result");
        if (!RepairLoss(slot, stats)) return false;
        continue;
      }
      // Keep only a result for the current round computed under the
      // worker's *current* assignment; a result that raced a reassignment
      // is superseded by the recomputation already ordered.
      if (result.round != round_ || int(result.worker_slot) != slot ||
          result.shards != proc.shards) {
        continue;
      }
      proc.result = std::move(result);
      proc.has_result = true;
    }
  }
}

// Merges the kept results — an exact partition of the shard space — and
// commits accepted links in the in-process engine's order: units
// level-major, entries in ascending key order. The g1-side unique-best
// test was exact in the workers; the g2-side test resolves here against
// the merged best2 table (max + saturating tie counts, a commutative
// exact merge across partials).
size_t Coordinator::MergeAndCommit(PhaseStats* stats) {
  std::vector<const RoundResult*> kept;
  for (const WorkerProc& p : procs_) {
    if (p.alive && p.has_result) kept.push_back(&p.result);
  }

  for (const RoundResult* r : kept) {
    stats->emissions += size_t(r->emissions);
    stats->candidate_pairs += size_t(r->scanned_pairs);
    for (const Best2Entry& e : r->best2) {
      RECONCILE_CHECK_LT(e.v, g2_.num_nodes());
      if (stamp2_[e.v] != round_) {
        stamp2_[e.v] = round_;
        score2_[e.v] = e.score;
        ties2_[e.v] = e.ties;
      } else if (e.score > score2_[e.v]) {
        score2_[e.v] = e.score;
        ties2_[e.v] = e.ties;
      } else if (e.score == score2_[e.v]) {
        ties2_[e.v] = uint32_t(std::min<uint64_t>(
            best_internal::kTieSaturation, uint64_t(ties2_[e.v]) + e.ties));
      }
    }
  }

  // Unit grid: at most one block per (level, shard) across the partition.
  std::vector<const UnitBlock*> grid(
      size_t(kScoreLevels) * size_t(num_shards_), nullptr);
  for (const RoundResult* r : kept) {
    for (const UnitBlock& unit : r->units) {
      RECONCILE_CHECK_LT(int(unit.level), kScoreLevels);
      RECONCILE_CHECK_LT(int(unit.shard), num_shards_);
      const size_t cell =
          size_t(unit.level) * size_t(num_shards_) + unit.shard;
      RECONCILE_CHECK(grid[cell] == nullptr)
          << "dist: duplicate unit block for (level, shard)";
      grid[cell] = &unit;
    }
  }

  size_t accepted = 0;
  for (int level = current_bucket_; level < kScoreLevels; ++level) {
    for (int shard = 0; shard < num_shards_; ++shard) {
      const UnitBlock* unit =
          grid[size_t(level) * size_t(num_shards_) + size_t(shard)];
      if (unit == nullptr) continue;
      for (const Candidate& c : unit->entries) {
        if (stamp2_[c.v] != round_ || score2_[c.v] != c.score ||
            ties2_[c.v] != 1) {
          continue;  // beaten or tied somewhere else in the partition
        }
        RECONCILE_CHECK_EQ(map_1to2_[c.u], kInvalidNode);
        RECONCILE_CHECK_EQ(map_2to1_[c.v], kInvalidNode);
        map_1to2_[c.u] = c.v;
        map_2to1_[c.v] = c.u;
        links_.emplace_back(c.u, c.v);
        ++accepted;
      }
    }
  }
  return accepted;
}

void Coordinator::ShutdownWorkers() {
  for (int slot = 0; slot < int(procs_.size()); ++slot) {
    WorkerProc& proc = procs_[size_t(slot)];
    if (!proc.alive) continue;
    std::string error;
    SendFrame(proc.fd, MsgType::kShutdown, {}, &error);
    close(proc.fd);
    proc.fd = -1;
    // Workers exit promptly on SHUTDOWN (or the EOF from the close); the
    // SIGKILL after the grace window is belt-and-braces.
    bool reaped = false;
    for (int i = 0; i < 200 && !reaped; ++i) {
      if (waitpid(proc.pid, nullptr, WNOHANG) != 0) {
        reaped = true;
        break;
      }
      usleep(10 * 1000);
    }
    if (!reaped) {
      kill(proc.pid, SIGKILL);
      waitpid(proc.pid, nullptr, 0);
    }
    proc.alive = false;
    proc.pid = -1;
  }
}

void Coordinator::KillAll() {
  for (WorkerProc& proc : procs_) {
    if (!proc.alive) continue;
    kill(proc.pid, SIGKILL);
    waitpid(proc.pid, nullptr, 0);
    if (proc.fd >= 0) close(proc.fd);
    proc.fd = -1;
    proc.alive = false;
  }
}

bool Coordinator::Run(std::span<const std::pair<NodeId, NodeId>> seeds,
                      MatchResult* result) {
  Timer timer;
  map_1to2_.assign(g1_.num_nodes(), kInvalidNode);
  map_2to1_.assign(g2_.num_nodes(), kInvalidNode);
  num_seeds_ = seeds.size();
  for (const auto& [u, v] : seeds) {
    RECONCILE_CHECK_LT(u, g1_.num_nodes());
    RECONCILE_CHECK_LT(v, g2_.num_nodes());
    RECONCILE_CHECK_EQ(map_1to2_[u], kInvalidNode)
        << "duplicate seed for g1 node " << u;
    RECONCILE_CHECK_EQ(map_2to1_[v], kInvalidNode)
        << "duplicate seed for g2 node " << v;
    map_1to2_[u] = v;
    map_2to1_[v] = u;
    links_.emplace_back(u, v);
  }
  score2_.assign(g2_.num_nodes(), 0);
  ties2_.assign(g2_.num_nodes(), 0);
  stamp2_.assign(g2_.num_nodes(), 0);

  const int top_exponent = TopBucketExponent(g1_, g2_, config_);
  const int bottom_exponent =
      std::min(config_.min_bucket_exponent, top_exponent);
  current_bucket_ = config_.use_degree_bucketing
                        ? top_exponent
                        : config_.min_bucket_exponent;

  // Spawn the pool, then partition the shard range contiguously across
  // whatever actually came up.
  const int want = int(procs_.size());
  for (int slot = 0; slot < want; ++slot) SpawnWorker(slot, false);
  std::vector<int> live;
  for (int slot = 0; slot < want; ++slot) {
    if (procs_[size_t(slot)].alive) live.push_back(slot);
  }
  if (live.empty()) {
    std::fprintf(stderr, "dist: no worker process could be spawned\n");
    return false;
  }
  for (size_t i = 0; i < live.size(); ++i) {
    const uint32_t begin = uint32_t(i * size_t(num_shards_) / live.size());
    const uint32_t end =
        uint32_t((i + 1) * size_t(num_shards_) / live.size());
    for (uint32_t s = begin; s < end; ++s) {
      procs_[size_t(live[i])].shards.push_back(s);
    }
  }

  bool done = false;
  bool compact_next = false;
  size_t new_links_this_iteration = 0;
  int completed_rounds = 0;
  while (!done) {
    ++round_;
    history_.push_back(
        RoundMeta{compact_next, emitted_links_, links_.size()});
    compact_next = false;
    emitted_links_ = links_.size();

    Timer round_timer;
    PhaseStats stats;
    stats.iteration = iteration_;
    stats.bucket_exponent = current_bucket_;
    stats.links_in = links_.size();
    stats.num_threads = 1;  // workers compute serially

    for (int slot = 0; slot < want; ++slot) {
      if (!procs_[size_t(slot)].alive) continue;
      if (SendRoundTo(slot, &stats)) continue;
      MarkLost(slot, "send failed");
      if (!RepairLoss(slot, &stats)) return false;
    }
    if (!CollectRound(&stats)) return false;

    const size_t accepted = MergeAndCommit(&stats);
    stats.new_links = accepted;
    stats.dist_workers = LiveCount();
    stats.seconds = round_timer.Seconds();
    phases_.push_back(stats);
    ++completed_rounds;
    new_links_this_iteration += accepted;
    FaultValuePoint("after_round", completed_rounds);

    // The in-process cursor, verbatim (`MatcherState::AdvanceCursor`);
    // `compact_next` stands in for the between-iteration CompactScores,
    // which the workers execute at the next round's start.
    if (config_.use_degree_bucketing && current_bucket_ > bottom_exponent) {
      --current_bucket_;
    } else if ((config_.stop_when_stable && new_links_this_iteration == 0) ||
               iteration_ >= config_.num_iterations) {
      done = true;
    } else {
      compact_next = true;
      ++iteration_;
      new_links_this_iteration = 0;
      current_bucket_ = config_.use_degree_bucketing
                            ? top_exponent
                            : config_.min_bucket_exponent;
    }
    // A graceful stop (SIGTERM/SIGINT or the stop: fault) finishes the
    // in-flight round and returns the partial matching — the in-process
    // contract.
    if (GracefulStopRequested() && !done) break;
  }
  ShutdownWorkers();

  result->seeds.assign(links_.begin(),
                       links_.begin() + ptrdiff_t(num_seeds_));
  result->map_1to2 = std::move(map_1to2_);
  result->map_2to1 = std::move(map_2to1_);
  result->phases = std::move(phases_);
  result->total_seconds = timer.Seconds();
  return true;
}

}  // namespace

bool DistUserMatching(const Graph& g1, const Graph& g2,
                      std::span<const std::pair<NodeId, NodeId>> seeds,
                      const MatcherConfig& config, MatchResult* result) {
  if (config.workers <= 1) return false;
  if (!config.checkpoint_dir.empty() || config.resume) {
    std::fprintf(stderr,
                 "warning: --workers does not combine with checkpoint/"
                 "resume; running in-process\n");
    return false;
  }
  if (config.memory_budget_bytes > 0) {
    std::fprintf(stderr,
                 "warning: --workers does not combine with --memory-budget; "
                 "running in-process\n");
    return false;
  }
  // A dead worker's socket must surface as an error, not a process kill.
  signal(SIGPIPE, SIG_IGN);

  // Resolve the shard count once so the coordinator and every worker
  // (present and respawned) agree on the partition.
  MatcherConfig resolved = config;
  resolved.num_shards = ResolveShardCount(
      config, config.num_threads > 0 ? config.num_threads
                                     : ThreadPool::DefaultThreads());
  const int workers = std::min(config.workers, resolved.num_shards);

  Coordinator coordinator(g1, g2, resolved, workers);
  if (!coordinator.Run(seeds, result)) {
    std::fprintf(stderr,
                 "warning: distributed run failed (workers lost, retry "
                 "budget spent); degrading to the in-process path\n");
    return false;
  }
  return true;
}

}  // namespace reconcile::dist
