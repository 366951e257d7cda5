// Monotonic wall-clock helper shared by the pipeline phases and the
// benches — the one place steady_clock arithmetic lives, so timing
// code reads the same everywhere.
#pragma once

#include <chrono>
#include <cstdint>

namespace dtaint::obs {

class Stopwatch {
 public:
  using Clock = std::chrono::steady_clock;

  Stopwatch() : start_(Clock::now()) {}

  /// Seconds elapsed since construction (or the last Restart).
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Nanoseconds elapsed — what obs::Phase records.
  uint64_t Nanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

  void Restart() { start_ = Clock::now(); }

 private:
  Clock::time_point start_;
};

}  // namespace dtaint::obs
