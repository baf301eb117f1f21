#ifndef RECONCILE_API_REGISTRY_H_
#define RECONCILE_API_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "reconcile/api/reconciler.h"
#include "reconcile/api/spec.h"

namespace reconcile {

/// String-keyed factory registry mapping algorithm keys to `Reconciler`
/// builders. `Registry::Global()` comes pre-populated with the library's
/// six algorithms (adapters.h): "core", "simple", "ns09", "features",
/// "percolation", "bp".
///
/// Extension recipe — a new algorithm gets every harness surface (CLI
/// `--algorithm`, `RunExperiment`, metrics) for free:
///
///   1. implement `Reconciler` (wrap your config struct + entry point);
///   2. register a factory once at startup:
///        Registry::Global().Register({.key = "mine",
///                                     .summary = "one-line description",
///                                     .params = "threshold, iterations",
///                                     .factory = MakeMineFromSpec});
///   3. done: `reconcile_cli --algorithm=mine --param k=v` now accepts it.
class Registry {
 public:
  /// Builds a configured instance from `spec`'s parameter bag. Returns
  /// nullptr and fills *error (malformed values, unknown keys, out-of-range
  /// settings) instead of aborting — the CLI turns these into exit codes.
  using Factory = std::function<std::unique_ptr<Reconciler>(
      const ReconcilerSpec& spec, std::string* error)>;

  struct Entry {
    std::string key;
    /// One-line summary shown by `DescribeAll` (CLI --help).
    std::string summary;
    /// Comma-separated names of the parameters the factory accepts, also
    /// shown by `DescribeAll` — keep it next to the factory so the help
    /// text cannot rot out of sync.
    std::string params;
    Factory factory;
  };

  /// The process-wide registry, with the built-in algorithms registered on
  /// first use. Registration is not synchronized: register extensions from
  /// one thread during startup, before concurrent `Create` calls.
  static Registry& Global();

  /// Registers an algorithm. Fatal on a duplicate or empty key or a null
  /// factory (registration bugs, not user input).
  void Register(Entry entry);

  bool Has(const std::string& key) const;

  /// Registered keys, sorted.
  std::vector<std::string> Keys() const;

  /// Entry for `key`, or nullptr if unknown.
  const Entry* Find(const std::string& key) const;

  /// Builds a configured reconciler from `spec`. Unknown algorithm keys and
  /// factory failures return nullptr with *error filled (if non-null).
  std::unique_ptr<Reconciler> Create(const ReconcilerSpec& spec,
                                     std::string* error) const;

  /// `Create` that treats failure as fatal — for tests and benches where a
  /// bad spec is a programming error.
  std::unique_ptr<Reconciler> CreateOrDie(const ReconcilerSpec& spec) const;

  /// Multi-line "key — summary" listing of every registered algorithm, for
  /// --help output.
  std::string DescribeAll() const;

 private:
  std::map<std::string, Entry> entries_;
};

}  // namespace reconcile

#endif  // RECONCILE_API_REGISTRY_H_
