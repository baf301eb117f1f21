#include "trace.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int Tracer::Begin(const std::string& name, int parent) {
  if (!enabled_) return -1;
  const double now = Now();
  spans_.push_back(Span{name, now, now, parent, {}});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_s = Now();
}

int Tracer::Add(const std::string& name, double start_s, double duration_s,
                int parent, Args args) {
  if (!enabled_) return -1;
  spans_.push_back(
      Span{name, start_s, start_s + duration_s, parent, std::move(args)});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::Annotate(int id, Args args) {
  if (id < 0) return;
  Args& dst = spans_[static_cast<size_t>(id)].args;
  dst.insert(dst.end(), args.begin(), args.end());
}

bool Tracer::WriteChromeJson(const std::string& path,
                             std::string* error) const {
  std::ofstream out(path);
  if (!out) {
    *error = "cannot open " + path;
    return false;
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char times[96];
    std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                  s.start_s * 1e6, (s.end_s - s.start_s) * 1e6);
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":" << JsonString(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1," << times
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent;
    for (const auto& [key, value] : s.args) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      out << "," << JsonString(key) << ":" << buf;
    }
    out << "}}";
  }
  out << "\n]}\n";
  out.close();
  if (!out) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

}  // namespace perfbench
