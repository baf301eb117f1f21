#ifndef RECONCILE_UTIL_FAULT_H_
#define RECONCILE_UTIL_FAULT_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace reconcile {

/// Deterministic fault injection for crash-safety testing.
///
/// Code under test declares *named fault points*; a process-global injector
/// is armed with a spec naming which points misbehave and when. Nothing
/// fires unless armed, and every firing is deterministic (keyed on an
/// explicit value or a per-point hit counter), so a killed-and-resumed run
/// can be replayed bit for bit.
///
/// Spec grammar — entries separated by `;` or `,`, each `kind:point[=value]`:
///
///   crash:after_round=3        kill the process (`_exit(kFaultCrashExitCode)`)
///                              when value point "after_round" is reached
///                              with value 3
///   stop:after_round=2         request a graceful stop (see
///                              `util/shutdown.h`) at that point — a
///                              deterministic stand-in for SIGTERM
///   io:checkpoint_write_fail   fail the 1st hit of that io point
///   io:checkpoint_truncate=2   fire on the 2nd hit (1-based) instead
///   io:enospc_after=4          threshold io point (`FaultPointExhausted`):
///                              fires on every hit *after* the 4th — the
///                              shape of a disk filling up, where every
///                              write past the cliff fails, not just one
///
/// Arming sources, in precedence order: `MatcherConfig::fault_spec` (armed
/// by `UserMatching` when non-empty) overrides the `RECONCILE_FAULT`
/// environment variable (read once, at first injector use).
///
/// Known points (grep for the literals to find the hooks):
///   after_round            value point; value = completed round count
///   checkpoint_write_fail  io point in `SnapshotWriter::Commit` — the
///                          commit reports failure without writing
///   checkpoint_truncate    io point in `SnapshotWriter::Commit` — the
///                          commit writes only half the file but reports
///                          success (simulates a torn write on a
///                          non-atomic filesystem)
///   spill_write_fail       io point in `SpillStore::Spill` — writing a
///                          tier's backing file fails outright
///   spill_truncate         io point in `SpillStore::Spill` — the backing
///                          file is written half-length but the write
///                          reports success (torn spill; caught by the
///                          post-write size validation)
///   mmap_fail              io point in `SpillStore::Spill` — the write
///                          succeeds but mapping the file back fails
///   enospc_after           threshold io point in `SpillStore::Spill` —
///                          after N successful spill writes every later
///                          one fails as if the disk ran out of space
///   spill_commit           value point fired after each successful spill
///                          (value = spills completed so far this
///                          process) — `crash:spill_commit=k` kills the
///                          process in the middle of a budget-enforcement
///                          pass
///   serve_apply            value point in `IncrementalMatcher::ApplyBatch`
///                          (value = 1-based batch number, the initial
///                          match counting as batch 1), fired after the
///                          overlays absorbed the deltas but before the
///                          matcher reran — the graphs hold the batch, the
///                          served matching does not
///   after_batch            value point in `reconcile_serve` between
///                          rerunning the matcher and writing the batch's
///                          checkpoint — a crash here loses exactly one
///                          batch, which the resume re-applies from the
///                          delta stream

/// Exit code of a `crash:` fault (distinguishable from aborts and clean
/// exits in kill/resume harnesses).
inline constexpr int kFaultCrashExitCode = 42;

/// Replaces the armed fault set with `spec` (empty spec = disarm all).
/// Returns false and fills `*error` on a malformed spec, leaving the
/// previously armed set untouched.
bool ArmFaults(const std::string& spec, std::string* error);

/// Parses `spec` without arming anything — for config validation layers
/// that want to reject a malformed spec early with a good diagnostic.
bool ValidateFaultSpec(const std::string& spec, std::string* error);

/// Disarms every fault and resets all hit counters.
void DisarmFaults();

/// The currently armed spec in canonical form ("" when disarmed).
std::string ArmedFaultSpec();

/// IO fault point: increments the point's hit counter and returns true when
/// an armed `io:` entry for `point` fires on this hit. Call sites treat
/// `true` as the injected failure.
bool FaultPointHit(std::string_view point);

/// Threshold io fault point: increments the point's hit counter and returns
/// true when an armed `io:` entry for `point` has a value *smaller* than
/// this hit's 1-based index — i.e. `io:point=N` lets the first N hits
/// through and fails every one after (N = 0 fails every hit). Models
/// resource exhaustion (ENOSPC), which does not clear after one failure.
bool FaultPointExhausted(std::string_view point);

/// Value fault point: fires armed `crash:` entries (terminating the process
/// via `_exit(kFaultCrashExitCode)` after flushing a diagnostic) and
/// `stop:` entries (calling `RequestGracefulStop()`) whose armed value
/// equals `value`.
void FaultValuePoint(std::string_view point, int64_t value);

}  // namespace reconcile

#endif  // RECONCILE_UTIL_FAULT_H_
