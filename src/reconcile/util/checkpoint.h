#ifndef RECONCILE_UTIL_CHECKPOINT_H_
#define RECONCILE_UTIL_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

namespace reconcile {

/// Binary snapshot substrate for crash-safe checkpoint/resume.
///
/// A snapshot is a single file of typed *sections*, each independently
/// CRC32-checksummed, behind a magic + format-version header:
///
///   [magic u64][format version u32][section count u32]
///   per section: [id u32][payload length u64][payload crc32 u32][payload]
///
/// (host-endian; v1 targets same-architecture resume). The reader verifies
/// the header, walks the section table bounds-checked, and recomputes every
/// CRC before handing out a single byte — a truncated, bit-flipped or
/// version-skewed file is a clean `Open` failure with a diagnostic, never a
/// crash or a silent partial load. Payload cursors are bounds-checked too,
/// and vector reads cap their allocation by the bytes actually present, so
/// a corrupt length field cannot trigger an absurd allocation.
///
/// `SnapshotWriter::Commit` is atomic: payload goes to `<path>.tmp`, is
/// fsync'd, then renamed over `path` (and the directory fsync'd), so a
/// crash mid-write never leaves a half-written snapshot under the final
/// name. Commit honors the `checkpoint_write_fail` / `checkpoint_truncate`
/// fault points (see `util/fault.h`) so recovery paths are testable.

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320). `crc` chains calls.
uint32_t Crc32(const void* data, size_t size, uint32_t crc = 0);

inline constexpr uint64_t kSnapshotMagic = 0x31504b4345525350ULL;  // "PSRECKP1"
inline constexpr uint32_t kSnapshotFormatVersion = 1;

class SnapshotWriter {
 public:
  /// Opens a new section. Sections may not nest.
  void BeginSection(uint32_t id);
  void EndSection();

  void AppendBytes(const void* data, size_t size);
  void AppendU8(uint8_t value) { AppendBytes(&value, sizeof(value)); }
  void AppendU32(uint32_t value) { AppendBytes(&value, sizeof(value)); }
  void AppendU64(uint64_t value) { AppendBytes(&value, sizeof(value)); }
  void AppendI32(int32_t value) { AppendBytes(&value, sizeof(value)); }

  /// Element count (u64) followed by the raw element bytes. `T` must be
  /// trivially copyable.
  template <typename T>
  void AppendVector(const std::vector<T>& values) {
    AppendU64(values.size());
    AppendBytes(values.data(), values.size() * sizeof(T));
  }

  /// Assembles the snapshot and writes it atomically. Returns false with a
  /// diagnostic in `*error` on any I/O failure (the final path is left
  /// untouched — at worst a stale `<path>.tmp` remains).
  bool Commit(const std::string& path, std::string* error) const;

 private:
  struct Section {
    uint32_t id;
    std::vector<uint8_t> payload;
  };
  std::vector<Section> sections_;
  bool in_section_ = false;
};

class SnapshotReader {
 public:
  /// Read-only cursor over one section's payload. All reads are
  /// bounds-checked: a read past the end returns false and poisons the
  /// cursor (`ok()` turns false) without touching the output.
  class Section {
   public:
    bool ReadBytes(void* out, size_t size);
    bool ReadU8(uint8_t* out) { return ReadBytes(out, sizeof(*out)); }
    bool ReadU32(uint32_t* out) { return ReadBytes(out, sizeof(*out)); }
    bool ReadU64(uint64_t* out) { return ReadBytes(out, sizeof(*out)); }
    bool ReadI32(int32_t* out) { return ReadBytes(out, sizeof(*out)); }

    /// Counterpart of `SnapshotWriter::AppendVector`. Fails (without
    /// allocating) if the declared element count does not fit in the
    /// remaining payload bytes.
    template <typename T>
    bool ReadVector(std::vector<T>* out) {
      uint64_t count = 0;
      if (!ReadU64(&count)) return false;
      if (count > Remaining() / sizeof(T)) {
        ok_ = false;
        return false;
      }
      out->resize(static_cast<size_t>(count));
      return ReadBytes(out->data(), static_cast<size_t>(count) * sizeof(T));
    }

    size_t Remaining() const { return payload_.size() - cursor_; }
    bool AtEnd() const { return cursor_ == payload_.size(); }
    bool ok() const { return ok_; }
    uint32_t id() const { return id_; }

   private:
    friend class SnapshotReader;
    uint32_t id_ = 0;
    std::vector<uint8_t> payload_;
    size_t cursor_ = 0;
    bool ok_ = true;
  };

  /// Loads and fully validates `path` (magic, version, section bounds, every
  /// CRC). Returns false with a diagnostic on any defect.
  bool Open(const std::string& path, std::string* error);

  /// Cursor for the first section with `id`, or nullptr if absent. The
  /// cursor is owned by the reader and reset on each call.
  Section* Find(uint32_t id);

  size_t num_sections() const { return sections_.size(); }

 private:
  std::vector<Section> sections_;
};

/// Checkpoint series: a family of snapshots in one directory, named
/// `dir`/<prefix>NNNNNN.ckpt by a six-digit zero-padded counter (the batch
/// matcher counts completed rounds under "state-round-", `reconcile_serve`
/// applied batches under "serve-batch-"). Families with different prefixes
/// share a directory without touching each other's files.
std::string CheckpointPath(const std::string& dir, const std::string& prefix,
                           int n);

struct CheckpointFile {
  int round = 0;
  std::string path;
};

/// The `prefix` checkpoints in `dir`, ascending by counter. Unparseable
/// names are skipped; a missing/unreadable dir yields an empty list.
std::vector<CheckpointFile> ListCheckpoints(const std::string& dir,
                                            const std::string& prefix);

/// Retention: deletes all but the newest `keep` `prefix` checkpoints in
/// `dir` (`keep` <= 0 is a no-op — keep everything). Returns the number of
/// files removed; an unlink failure skips that file and fills `*error` with
/// the first diagnostic (callers treat prune failures as non-fatal — the
/// extra snapshot costs disk, not correctness).
size_t PruneCheckpoints(const std::string& dir, const std::string& prefix,
                        int keep, std::string* error);

/// Loads or saves one snapshot at `path`; false with a diagnostic in
/// `*error` on failure.
using CheckpointIo =
    std::function<bool(const std::string& path, std::string* error)>;

/// Resume: tries the `prefix` checkpoints in `dir` newest first and returns
/// the path of the first one `load` accepts, or "" if none does. Each
/// rejected file is one warning and recovery falls back to the previous
/// file; no surviving file is one more warning, and then nothing is pruned.
/// With retention (`keep` > 0), a successful resume prunes to
/// max(keep, newer + 1), where `newer` counts the rejected files above the
/// restored one: a killed run can leave more than `keep` files (prunes run
/// only after successful writes), and the restored file must survive even
/// when newer, rejected files hold the newest slots.
std::string ResumeCheckpoint(const std::string& dir, const std::string& prefix,
                             int keep, const CheckpointIo& load);

/// Writes checkpoint `n` of the `prefix` series in `dir` through `save`,
/// then prunes to the newest `keep`. Prunes only after a successful save,
/// so a bad write cannot shrink the set of usable recovery points. A failed
/// save or prune is one warning, never fatal: the caller keeps running and
/// loses only this recovery point. Returns whether the save succeeded.
bool WriteCheckpoint(const std::string& dir, const std::string& prefix, int n,
                     int keep, const CheckpointIo& save);

/// mkdir -p. Returns false with a diagnostic if a component cannot be
/// created.
bool EnsureDir(const std::string& dir, std::string* error);

}  // namespace reconcile

#endif  // RECONCILE_UTIL_CHECKPOINT_H_
