#ifndef RECONCILE_UTIL_SPILL_STORE_H_
#define RECONCILE_UTIL_SPILL_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace reconcile {

struct SortedCountRun;

/// Out-of-core backing store for the LSM-tiered score state.
///
/// At the paper's target scale the persistent per-(level, shard) sorted runs
/// dominate RAM. `SpillStore` moves cold tiers to disk: a tier is written as
/// one flat file under a score directory and mapped back read-only, so the
/// matcher keeps only a pointer-sized view resident while every consumer
/// (the threshold frontier's lookups, snapshot serialization, tier
/// compaction) reads the same bytes it would have read from the resident
/// vectors, so matchings are bit-identical to the all-resident run by
/// construction. Snapshots and folds stream a spilled tier sequentially;
/// frontier lookups gallop through it in ascending key order.
///
/// File format (host-endian, same-architecture scratch — spill files are
/// transient per-process state, not durable interchange):
///
///   [magic u64][entry count u64][keys u64 × n][counts u32 × n]
///
/// A spill takes three steps. `Plan` is serial: it names the file and draws
/// the injected faults, so a caller that plans its spills in a fixed order puts
/// every injected fault on the same tier whatever the thread count. `Write`
/// is thread-safe and does the I/O: it reserves the file's blocks with
/// `fallocate(FALLOC_FL_KEEP_SIZE)`, so a full disk fails the reservation
/// (ENOSPC) instead of a later writeback, writes the run, validates the
/// on-disk length and maps the file back. It does not fsync: spill files
/// are scratch that no recovery reads. Only where the filesystem cannot
/// reserve blocks (EOPNOTSUPP) does it fsync after the write, so ENOSPC
/// still surfaces before the mapping. The reservation leaves the file size
/// alone, so a torn or short file is still caught by the size check and is
/// a clean spill failure, never a wrong view. `Commit`, serial again,
/// counts the outcome and fires the `spill_commit` value point. Every
/// failure mode — create/write failure, ENOSPC, a torn write, a failed
/// mmap — makes `Write` return null with a diagnostic and leaves no file
/// behind; the caller keeps the resident copy (graceful degradation: losing
/// the spill only costs memory headroom, never correctness). Injectable
/// faults (see `util/fault.h`): `io:spill_write_fail`, `io:spill_truncate`,
/// `io:mmap_fail`, `io:enospc_after=N`, and the `spill_commit` value point
/// for `crash:` kills mid-enforcement.
///
/// Files are named `spill-<pid>-<seq>.spill`; the store unlinks every file
/// it created on destruction (and each file as its tier is unspilled), so a
/// clean exit — including a graceful SIGINT/SIGTERM stop — leaves the score
/// directory empty. Only a hard crash leaves scratch behind, and a resumed
/// process never reads stale spill files: checkpoints inline the tier
/// payloads, so spill files are never part of durable state.

/// A read-only, file-backed sorted `(key, count)` run: the spilled form of
/// one LSM tier. Owns the mapping and the backing file (unlinked on
/// destruction). Move-only.
class SpilledRun {
 public:
  ~SpilledRun();
  SpilledRun(const SpilledRun&) = delete;
  SpilledRun& operator=(const SpilledRun&) = delete;

  const uint64_t* keys() const { return keys_; }
  const uint32_t* counts() const { return counts_; }
  size_t size() const { return size_; }
  /// Bytes of the backing file (what the spill freed, modulo page cache).
  size_t file_bytes() const { return file_bytes_; }
  const std::string& path() const { return path_; }

 private:
  friend class SpillStore;
  SpilledRun() = default;

  const uint64_t* keys_ = nullptr;
  const uint32_t* counts_ = nullptr;
  size_t size_ = 0;
  size_t file_bytes_ = 0;
  void* map_base_ = nullptr;
  size_t map_length_ = 0;
  std::string path_;
};

/// Running totals of a store's spill activity (monotonic per store).
struct SpillStats {
  size_t tiers_spilled = 0;   ///< Successful spills.
  size_t bytes_spilled = 0;   ///< Sum of backing-file bytes written.
  size_t spill_failures = 0;  ///< Spills that fell back to resident.
};

/// The serial half of one spill: the file it writes and the injected faults
/// drawn for it.
struct SpillPlan {
  std::string path;
  /// Set when the spill fails before any I/O: the directory could not be
  /// created, or an injected write failure or ENOSPC was drawn.
  std::string error;
  bool truncate = false;   ///< io:spill_truncate: write half the keys.
  bool mmap_fail = false;  ///< io:mmap_fail: mapping the file back fails.
};

/// Creates, tracks and cleans up the spill files of one matcher run.
/// `Plan`, `Commit` and `Disable` are for one thread at a time;
/// `Write` may run on many threads at once, each with its own plan (and
/// readers of the returned `SpilledRun` views are lock-free and may be
/// many).
class SpillStore {
 public:
  /// Does not touch the filesystem; the directory is created lazily on the
  /// first spill (a run that never exceeds its budget never does I/O).
  explicit SpillStore(std::string dir);
  ~SpillStore();

  SpillStore(const SpillStore&) = delete;
  SpillStore& operator=(const SpillStore&) = delete;

  /// Names the next spill file (creating the directory on first use) and
  /// draws its injected faults.
  SpillPlan Plan();

  /// Carries out `plan` for `run`: reserves, writes, validates and maps the
  /// file. Returns null with `*error` set on any failure, leaving no file
  /// behind. Touches no store state, so concurrent calls with distinct
  /// plans are safe.
  static std::unique_ptr<SpilledRun> Write(const SpillPlan& plan,
                                           const SortedCountRun& run,
                                           std::string* error);

  /// Counts the outcome of one `Write` (`spilled` null on failure) and,
  /// on success, fires the `spill_commit` value point. A caller that drops
  /// a written run without committing it leaves the stats untouched.
  void Commit(const SpilledRun* spilled);

  /// Permanently stops spilling for this store (graceful degradation after
  /// repeated failures — the run continues all-resident). The caller
  /// checks `disabled()` before planning.
  void Disable() { disabled_ = true; }
  bool disabled() const { return disabled_; }

  const SpillStats& stats() const { return stats_; }

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  bool dir_ready_ = false;
  bool disabled_ = false;
  uint64_t next_id_ = 0;
  SpillStats stats_;
};

}  // namespace reconcile

#endif  // RECONCILE_UTIL_SPILL_STORE_H_
