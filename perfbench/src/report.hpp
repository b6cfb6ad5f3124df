// Results of one benchmark run: every metric with its unit and sample
// count, the run context, and the failure accounting behind
// `error_share`. The C++ side measures and fills a Report; run.py picks
// the metrics BENCHMARK.json names out of the JSON it writes.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string spans_path;  ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t n = 1;    ///< samples behind the value
  std::string note;  ///< how it was taken (percentile, ratio base, ...)
};

class Report {
 public:
  void add(std::string name, double value, std::string unit, uint64_t n = 1,
           std::string note = {});

  /// Adds a percentile scaled by `scale` (e.g. 1e-3 for ns -> us); the
  /// note states its sample count and how many samples lie beyond it.
  void add_quantile(std::string name, const Quantile& q, std::string unit,
                    double scale, const char* which);

  void set_context(std::string key, std::string value);

  /// Counts one attempted operation, failed or not.
  void attempt(uint64_t count = 1) { attempted_ += count; }

  /// Records a failed operation (already counted by attempt()).
  void fail(const std::string& what);

  [[nodiscard]] uint64_t attempted() const { return attempted_; }
  [[nodiscard]] uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

  /// Human-readable context and metric ledger.
  void print(std::ostream& out) const;

  /// {"correct", "attempted", "failed", "context", "metrics": {name:
  /// {value, unit, n, note}}}.
  void write_json(std::ostream& out) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Process peak resident set (VmHWM) in bytes, 0 if unavailable.
uint64_t peak_rss_bytes();

/// Current resident set (VmRSS) in bytes, 0 if unavailable.
uint64_t current_rss_bytes();

/// Size in bytes of the cache at `level` as the OS reports it for CPU 0,
/// 0 if unavailable.
uint64_t cache_bytes(int level);

/// Adds nproc, caches, build type and the obs compile flag to `report`.
void add_common_context(Report& report, const Options& opt);

}  // namespace perfbench
