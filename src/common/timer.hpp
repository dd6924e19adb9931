// Wall-clock timing for the run-time figures (paper Figures 7-8).
#pragma once

#include <chrono>
#include <string>

namespace hgr {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  double milliseconds() const { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Format seconds as a human-readable string ("12.3 ms", "4.56 s").
std::string format_seconds(double s);

}  // namespace hgr
