// The benchmark's workloads. Each fills `report` and writes its spans to
// opt.spans_path when traced; the return value is the process exit code
// (non-zero when a final audit disagrees with its oracle).
#pragma once

#include <string>
#include <vector>

#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

int run_static_solve(const Options& opt, Report& report);
int run_serve(const Options& opt, Report& report);

/// Repetitions behind every baseline probe.
inline constexpr int kProbeReps = 3;

/// Median over kProbeReps runs of `fn()`'s wall time in milliseconds.
template <typename Fn>
double probe_ms(Fn&& fn) {
  std::vector<double> ms;
  for (int r = 0; r < kProbeReps; ++r) {
    const int64_t t0 = now_ns();
    fn();
    ms.push_back(double(now_ns() - t0) * 1e-6);
  }
  return median(std::move(ms));
}

/// Writes `spans` to `path` as write_spans() does (no-op for an empty
/// path).
void write_span_file(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
