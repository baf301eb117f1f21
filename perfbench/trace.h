#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for traced runs. Spans are kept in a vector and
// written once, at exit, as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). While disabled, every call is a no-op and
// Begin returns -1, so untraced code paths pay one branch per span.

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Args = std::vector<std::pair<std::string, double>>;

  Tracer();

  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Seconds since the tracer was created.
  double Now() const;

  // Opens a span under `parent` (-1: a root) and returns its id, or -1
  // when disabled.
  int Begin(const std::string& name, int parent = -1);
  // Closes span `id`; ignores -1.
  void End(int id);
  // Adds a closed span with explicit times; returns its id or -1.
  int Add(const std::string& name, double start_s, double duration_s,
          int parent, Args args = {});
  // Attaches counters to span `id`; ignores -1.
  void Annotate(int id, Args args);

  size_t num_spans() const { return spans_.size(); }

  // Writes every span as a Chrome trace-event "complete" event. Returns
  // false with *error set when the file cannot be written.
  bool WriteChromeJson(const std::string& path, std::string* error) const;

 private:
  struct Span {
    std::string name;
    double start_s = 0;
    double end_s = 0;
    int parent = -1;
    Args args;
  };

  std::chrono::steady_clock::time_point origin_;
  bool enabled_ = false;
  std::vector<Span> spans_;
};

// `text` as a JSON string literal, quotes included.
std::string JsonString(const std::string& text);

// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, int parent = -1)
      : tracer_(tracer), id_(tracer.Begin(name, parent)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
