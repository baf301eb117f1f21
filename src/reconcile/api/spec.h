#ifndef RECONCILE_API_SPEC_H_
#define RECONCILE_API_SPEC_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace reconcile {

/// Value type naming one algorithm instance: a registry key plus a string
/// parameter bag. This is the lingua franca between user-facing surfaces
/// (CLI flags, config files) and `Registry::Create`: every
/// algorithm, whatever its native config struct, is constructible from a
/// `ReconcilerSpec`, so "add a `--param`" needs no per-algorithm code.
///
/// Textual form (`Parse` / `ToString`):
///
///   algorithm[:key=value[,key=value...]]
///
/// e.g. "core", "core:threshold=3,iterations=1", "ns09:theta=1". Parameters
/// are stored sorted by key, so `ToString` is canonical and specs
/// round-trip: `Parse(s).ToString()` normalizes parameter order only.
/// Typing (int / double / bool) is applied by the consuming factory via
/// `ParamReader`, which also rejects unknown keys with a clear error.
struct ReconcilerSpec {
  std::string algorithm;
  std::map<std::string, std::string> params;

  ReconcilerSpec() = default;
  explicit ReconcilerSpec(std::string algorithm_key)
      : algorithm(std::move(algorithm_key)) {}

  /// Sets (or overwrites) one parameter; returns *this for chaining.
  ReconcilerSpec& Set(const std::string& key, const std::string& value);

  /// Parses the textual form above. On failure returns false, leaves *out
  /// untouched and fills *error (if non-null) with the reason.
  static bool Parse(std::string_view text, ReconcilerSpec* out,
                    std::string* error);

  /// Merges a bare "key=value[,key=value...]" list (no algorithm prefix)
  /// into `params`, later entries overriding earlier ones. Same error
  /// contract as `Parse`.
  bool MergeParams(std::string_view text, std::string* error);

  /// Canonical textual form; `Parse` accepts everything `ToString` emits.
  std::string ToString() const;

  friend bool operator==(const ReconcilerSpec&,
                         const ReconcilerSpec&) = default;
};

/// Typed, error-accumulating reader over a `ReconcilerSpec`'s parameter bag.
/// Factories call the typed getters for every parameter they understand,
/// then `Finish()`, which fails if any parameter was left unread (catching
/// typos and wrong-algorithm parameters). Errors never abort the process —
/// they accumulate so `Registry::Create` can report them to the caller.
///
///   ParamReader reader(spec);
///   config.min_score = reader.GetUint32("threshold", config.min_score);
///   ...
///   if (!reader.Finish(error)) return nullptr;
class ParamReader {
 public:
  explicit ParamReader(const ReconcilerSpec& spec);

  /// Typed getters: return the parsed value, or `default_value` when the
  /// key is absent or its value malformed (recording an error for the
  /// latter).
  std::string GetString(const std::string& key,
                        const std::string& default_value);
  int64_t GetInt(const std::string& key, int64_t default_value);
  uint32_t GetUint32(const std::string& key, uint32_t default_value);
  double GetDouble(const std::string& key, double default_value);
  bool GetBool(const std::string& key, bool default_value);

  /// Records a custom validation error (e.g. a value out of range).
  void AddError(const std::string& message);

  /// True while no error has been recorded.
  bool ok() const { return errors_.empty(); }

  /// Final check: fails if any error was recorded or any parameter was
  /// never consumed by a getter. On failure fills *error (if non-null)
  /// with all accumulated messages, semicolon-joined.
  bool Finish(std::string* error);

 private:
  const ReconcilerSpec& spec_;
  std::map<std::string, bool> read_;
  std::vector<std::string> errors_;
};

}  // namespace reconcile

#endif  // RECONCILE_API_SPEC_H_
