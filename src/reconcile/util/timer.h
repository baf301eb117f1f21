#ifndef RECONCILE_UTIL_TIMER_H_
#define RECONCILE_UTIL_TIMER_H_

#include <chrono>

namespace reconcile {

/// Wall-clock stopwatch used by the experiment harness and benchmarks.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace reconcile

#endif  // RECONCILE_UTIL_TIMER_H_
