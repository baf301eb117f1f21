#include "reconcile/util/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace reconcile {

namespace {

// A malformed numeric or boolean flag is a usage error (exit 2, like an
// unknown model), not an internal invariant failure.
[[noreturn]] void UsageError(const std::string& key, const char* problem,
                             const std::string& value) {
  std::fprintf(stderr, "flag --%s %s: %s\n", key.c_str(), problem,
               value.c_str());
  std::exit(2);
}

}  // namespace

bool Flags::Parse(int argc, const char* const argv[], std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) {
      if (error != nullptr) *error = "empty flag name: " + arg;
      return false;
    }
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      std::string key = body.substr(0, eq);
      if (key.empty()) {
        if (error != nullptr) *error = "empty flag name: " + arg;
        return false;
      }
      values_[key] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
  return true;
}

bool Flags::Has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string Flags::GetString(const std::string& key,
                             const std::string& default_value) const {
  read_[key] = true;
  auto it = values_.find(key);
  return it == values_.end() ? default_value : it->second;
}

int64_t Flags::GetInt(const std::string& key, int64_t default_value) const {
  read_[key] = true;
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  if (it->second.empty() || *end != '\0') {
    UsageError(key, "is not an integer", it->second);
  }
  if (errno == ERANGE) UsageError(key, "is out of range", it->second);
  return value;
}

int64_t Flags::GetIntInRange(const std::string& key, int64_t default_value,
                             int64_t lo, int64_t hi) const {
  const int64_t value = GetInt(key, default_value);
  if (value < lo || value > hi) {
    UsageError(key,
               ("is out of range [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "]")
                   .c_str(),
               std::to_string(value));
  }
  return value;
}

double Flags::GetDouble(const std::string& key, double default_value) const {
  read_[key] = true;
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(it->second.c_str(), &end);
  if (it->second.empty() || *end != '\0') {
    UsageError(key, "is not a number", it->second);
  }
  if (errno == ERANGE) UsageError(key, "is out of range", it->second);
  return value;
}

bool Flags::GetBool(const std::string& key, bool default_value) const {
  read_[key] = true;
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  UsageError(key, "is not a boolean", v);
}

std::vector<std::string> Flags::UnusedKeys() const {
  std::vector<std::string> unused;
  for (const auto& [key, value] : values_) {
    (void)value;
    if (!read_.count(key)) unused.push_back(key);
  }
  return unused;
}

}  // namespace reconcile
