#ifndef RECONCILE_UTIL_FLAGS_H_
#define RECONCILE_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace reconcile {

/// Minimal `--key=value` command-line parser for the CLI tools. Flags may
/// also be written `--key value`; bare `--key` sets the value "true".
/// Unknown positional arguments are collected separately.
class Flags {
 public:
  /// Parses argv[1..argc). Returns false (and fills *error) on malformed
  /// input such as an empty flag name.
  bool Parse(int argc, const char* const argv[], std::string* error);

  bool Has(const std::string& key) const;

  /// Typed getters with defaults. A present value that is not a number or
  /// a boolean, or is out of range for the type, is a usage error: the
  /// getter prints one stderr line and exits the process with status 2.
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& key, int64_t default_value) const;
  /// `GetInt` that also rejects a present value outside [lo, hi] as a usage
  /// error, so callers can narrow the result without a silent wrap.
  int64_t GetIntInRange(const std::string& key, int64_t default_value,
                        int64_t lo, int64_t hi) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Keys that were provided but never read by any getter; used to warn
  /// about typos.
  std::vector<std::string> UnusedKeys() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> read_;
  std::vector<std::string> positional_;
};

}  // namespace reconcile

#endif  // RECONCILE_UTIL_FLAGS_H_
