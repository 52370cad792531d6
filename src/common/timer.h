// Wall-clock stopwatch: the clock shim for benches and for obs/metrics.h
// (ScopedTimer spans record Stopwatch::ElapsedNanos into histograms).

#ifndef WFM_COMMON_TIMER_H_
#define WFM_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace wfm {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Seconds elapsed since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Integer nanoseconds elapsed — the unit obs histograms record in.
  std::int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace wfm

#endif  // WFM_COMMON_TIMER_H_
