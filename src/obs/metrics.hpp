// MetricsRegistry: named counters, gauges, and log-bucketed histograms,
// lock-free on the writer's hot path and snapshottable without blocking
// the writer.
//
// The split that makes both ends cheap:
//
//   * metric OBJECTS are plain relaxed atomics — add()/set()/record()
//     never take a lock, never allocate, never touch the registry;
//   * the REGISTRY maps names to objects under a mutex that only
//     registration (cold: once per call site, cached in a static) and
//     snapshot iteration take. Writers holding a metric reference never
//     contend with a reader snapshotting, and a snapshot never blocks a
//     writer — it reads the same atomics with relaxed loads, so every
//     value it reports was true at some instant during the snapshot.
//
// This is deliberately weaker than a consistent cut: counters bumped from
// the single-writer thread (the only writers in this repo — see the
// concurrency contract in docs/STATIC_ANALYSIS.md) ARE mutually
// consistent between writer calls, which is when the service reads them.
//
// Histograms are log2-bucketed: bucket 0 holds the value 0, bucket i >= 1
// holds [2^(i-1), 2^i - 1]. Percentiles are the upper bound of the bucket
// containing the requested rank — exact for the repo's power-law-ish
// distributions' purposes (round depths, cone sizes), never off by more
// than 2x, and computable from 65 atomic counters.
//
// Everything here is always thread-safe; the PARGREEDY_OBS compile seam
// and the runtime switch live in obs/obs.hpp — instrumentation sites gate
// themselves, the registry does not.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pargreedy::obs {

/// Monotonic event counter. add() is one relaxed fetch_add.
class Counter {
 public:
  void add(uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  [[nodiscard]] uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  /// Zeroes the counter (registry reset; not a hot-path operation).
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written value (queue depths, ring retention, overlay fraction in
/// parts-per-million). set() is one relaxed store.
class Gauge {
 public:
  void set(int64_t value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }

  [[nodiscard]] int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Point-in-time summary of a Histogram (computed by snapshot readers;
/// the histogram itself stores only bucket counts).
struct HistogramSummary {
  uint64_t count = 0;  ///< samples recorded
  uint64_t sum = 0;    ///< sum of sample values
  uint64_t p50 = 0;    ///< bucket upper bound at the 50th percentile
  uint64_t p95 = 0;    ///< same at the 95th
  uint64_t p99 = 0;    ///< same at the 99th
  uint64_t max = 0;    ///< upper bound of the highest non-empty bucket
};

/// Log2-bucketed histogram of uint64 samples. record() is three relaxed
/// fetch_adds (bucket, count, sum).
class Histogram {
 public:
  /// Bucket 0 plus one bucket per possible bit width of a uint64.
  static constexpr int kBuckets = 65;

  /// Bucket index of a sample: 0 for 0, otherwise its bit width (so
  /// bucket i >= 1 covers [2^(i-1), 2^i - 1]).
  [[nodiscard]] static constexpr int bucket_index(uint64_t value) noexcept {
    return std::bit_width(value);
  }

  /// Largest sample value bucket i can hold (its percentile
  /// representative): 0 for bucket 0, 2^i - 1 otherwise.
  [[nodiscard]] static constexpr uint64_t bucket_upper(int bucket) noexcept {
    if (bucket <= 0) return 0;
    if (bucket >= 64) return ~uint64_t{0};
    return (uint64_t{1} << bucket) - 1;
  }

  void record(uint64_t value) noexcept {
    buckets_[static_cast<std::size_t>(bucket_index(value))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  [[nodiscard]] uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

  /// Upper bound of the bucket containing the q-quantile (q in [0, 1]),
  /// from a relaxed read of the buckets; 0 when empty.
  [[nodiscard]] uint64_t quantile(double q) const;

  /// count/sum/p50/p95/p99/max from ONE bucket read, so the three
  /// percentiles are mutually consistent.
  [[nodiscard]] HistogramSummary summary() const;

  void reset() noexcept;

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// One metric's identity and value in a registry snapshot. `name` is the
/// full registry key, label suffix included — split_labels() separates
/// the base name from the label part for export writers.
struct MetricSample {
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  uint64_t counter = 0;          ///< kCounter
  int64_t gauge = 0;             ///< kGauge
  HistogramSummary histogram{};  ///< kHistogram
};

/// Canonical registry key of a labeled metric: `name{key="value"}`.
/// Labeled series are ADDITIVE: call sites that label keep bumping the
/// unlabeled base series too, so existing totals (and the tests pinned
/// to them) are unchanged — a label refines, it never replaces.
std::string labeled_name(const std::string& name, const std::string& key,
                         const std::string& value);

/// Splits a registry key into {base name, label part}: the label part is
/// the `key="value",...` text between the braces, "" when unlabeled.
std::pair<std::string, std::string> split_labels(const std::string& key);

/// Name -> metric map (see file comment for the locking split). Metric
/// references returned by counter()/gauge()/histogram() are stable for
/// the registry's lifetime — cache them at the call site (function-local
/// static) so the hot path never re-resolves the name.
class MetricsRegistry {
 public:
  /// The counter named `name`, registering it on first use.
  Counter& counter(const std::string& name);

  /// The gauge named `name`, registering it on first use.
  Gauge& gauge(const std::string& name);

  /// The histogram named `name`, registering it on first use.
  Histogram& histogram(const std::string& name);

  /// Labeled variant: the counter keyed `name{key="value"}`. An
  /// uncached lookup (one mutex + map find) — for cold per-batch paths;
  /// hot paths keep using the unlabeled static-cached macros.
  Counter& counter(const std::string& name, const std::string& key,
                   const std::string& value) {
    return counter(labeled_name(name, key, value));
  }

  /// Relaxed-read snapshot of every registered metric, name-sorted.
  /// Never blocks writers (they do not take the registry mutex).
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

  /// Current value of the counter named `name`, or 0 when unregistered —
  /// the delta-measurement helper tests and benches use.
  [[nodiscard]] uint64_t counter_value(const std::string& name) const;

  /// One-object JSON rendering of snapshot():
  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  /// {"count","sum","p50","p95","p99","max"}}}. Machine-first (the
  /// service's structured stats dump); no trailing newline.
  void write_json(std::ostream& out) const;

  /// Human-readable "name  value" lines of snapshot().
  void print(std::ostream& out) const;

  /// Zeroes every registered metric (names stay registered, references
  /// stay valid). For tests and between bench series; not hot-path.
  void reset();

  /// The process-wide registry all built-in instrumentation reports to.
  static MetricsRegistry& global();

 private:
  template <typename Metric>
  Metric& intern(std::map<std::string, std::unique_ptr<Metric>>& metrics,
                 const std::string& name);

  // Guards the maps only: registration and snapshot iteration. Metric
  // mutation never takes it.
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace pargreedy::obs
