// Wall-clock timing utilities used by the bench harness, the examples,
// and the observability flight recorder.
//
// Everything in the repo that timestamps measures against ONE clock:
// `TimingClock` (std::chrono::steady_clock) with a process-wide origin
// fixed on first use (`timing_origin()`). `Timer` (bench phase timing,
// time_best_of) and the flight recorder's record timestamps
// (`micros_since_origin()`) both read it, so a bench phase duration and
// the trace spans recorded inside it are directly comparable — no
// cross-clock skew, no duplicated clock arithmetic.
#pragma once

#include <chrono>
#include <cstdint>

namespace pargreedy {

/// The one monotonic clock every pargreedy timing reads (bench Timer,
/// time_best_of, obs flight-recorder records).
using TimingClock = std::chrono::steady_clock;

/// The fixed process-wide time origin. First call pins it; every later
/// call returns the same point, so timestamps from different threads and
/// subsystems share one zero.
inline TimingClock::time_point timing_origin() noexcept {
  static const TimingClock::time_point origin = TimingClock::now();
  return origin;
}

/// Microseconds elapsed since timing_origin() — the timestamp unit of the
/// Chrome trace_event format the obs flight recorder emits.
inline uint64_t micros_since_origin() noexcept {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          TimingClock::now() - timing_origin())
          .count());
}

/// Monotonic wall-clock timer with second-resolution doubles.
///
/// Usage:
///   Timer t;            // starts immediately
///   ... work ...
///   double s = t.elapsed_seconds();
class Timer {
 public:
  using Clock = TimingClock;

  Timer() : start_(Clock::now()) {}

  /// Restart the timer.
  void reset() { start_ = Clock::now(); }

  /// Seconds since construction or the last reset().
  [[nodiscard]] double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds since construction or the last reset().
  [[nodiscard]] double elapsed_ms() const { return elapsed_seconds() * 1e3; }

 private:
  Clock::time_point start_;
};

/// Runs `fn` and returns the wall-clock seconds it took.
template <typename Fn>
double time_seconds(Fn&& fn) {
  Timer t;
  fn();
  return t.elapsed_seconds();
}

/// Runs `fn` `reps` times and returns the *minimum* wall-clock seconds of a
/// single run — the standard noise-robust estimator for microbenchmarks.
template <typename Fn>
double time_best_of(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    double s = time_seconds(fn);
    if (s < best) best = s;
  }
  return best;
}

}  // namespace pargreedy
