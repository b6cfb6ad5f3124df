#include "obs/metrics.hpp"

#include <algorithm>
#include <ostream>

namespace pargreedy::obs {

namespace {

// Loads all buckets once so the percentiles computed from them agree on
// one total.
struct BucketRead {
  uint64_t buckets[Histogram::kBuckets];
  uint64_t total = 0;

  explicit BucketRead(const std::atomic<uint64_t> (&src)[Histogram::kBuckets]) {
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      buckets[i] = src[i].load(std::memory_order_relaxed);
      total += buckets[i];
    }
  }

  // Upper bound of the bucket where the cumulative count first reaches
  // ceil(q * total); 0 when empty.
  [[nodiscard]] uint64_t quantile(double q) const {
    if (total == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    auto rank = static_cast<uint64_t>(q * static_cast<double>(total));
    if (rank < 1) rank = 1;
    if (rank > total) rank = total;
    uint64_t seen = 0;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      seen += buckets[i];
      if (seen >= rank) return Histogram::bucket_upper(i);
    }
    return Histogram::bucket_upper(Histogram::kBuckets - 1);
  }

  [[nodiscard]] uint64_t max_upper() const {
    for (int i = Histogram::kBuckets - 1; i >= 0; --i) {
      if (buckets[i] != 0) return Histogram::bucket_upper(i);
    }
    return 0;
  }
};

void write_histogram_json(std::ostream& out, const HistogramSummary& h) {
  out << "{\"count\": " << h.count << ", \"sum\": " << h.sum
      << ", \"p50\": " << h.p50 << ", \"p95\": " << h.p95
      << ", \"p99\": " << h.p99 << ", \"max\": " << h.max << "}";
}

// Metric names are [a-z0-9._]+ by convention (lint-visible call sites),
// but escape anyway so write_json always emits valid JSON.
void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

// Label values are escaped so the canonical key (and the JSON/Prometheus
// renderings derived from it) stays parseable whatever the value holds.
std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string labeled_name(const std::string& name, const std::string& key,
                         const std::string& value) {
  std::string out = name;
  out += '{';
  out += key;
  out += "=\"";
  out += escape_label_value(value);
  out += "\"}";
  return out;
}

std::pair<std::string, std::string> split_labels(const std::string& key) {
  const std::size_t brace = key.find('{');
  if (brace == std::string::npos || key.back() != '}') return {key, ""};
  return {key.substr(0, brace),
          key.substr(brace + 1, key.size() - brace - 2)};
}

uint64_t Histogram::quantile(double q) const {
  return BucketRead(buckets_).quantile(q);
}

HistogramSummary Histogram::summary() const {
  BucketRead read(buckets_);
  HistogramSummary s;
  s.count = read.total;
  s.sum = sum_.load(std::memory_order_relaxed);
  s.p50 = read.quantile(0.50);
  s.p95 = read.quantile(0.95);
  s.p99 = read.quantile(0.99);
  s.max = read.max_upper();
  return s;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

template <typename Metric>
Metric& MetricsRegistry::intern(
    std::map<std::string, std::unique_ptr<Metric>>& metrics,
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = metrics.find(name);
  if (it == metrics.end()) {
    it = metrics.emplace(name, std::make_unique<Metric>()).first;
  }
  return *it->second;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return intern(counters_, name);
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return intern(gauges_, name);
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return intern(histograms_, name);
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::vector<MetricSample> out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kCounter;
    s.counter = c->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kGauge;
    s.gauge = g->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kHistogram;
    s.histogram = h->summary();
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

void MetricsRegistry::write_json(std::ostream& out) const {
  auto samples = snapshot();
  out << "{\"counters\": {";
  const char* sep = "";
  for (const auto& s : samples) {
    if (s.kind != MetricSample::Kind::kCounter) continue;
    out << sep;
    write_json_string(out, s.name);
    out << ": " << s.counter;
    sep = ", ";
  }
  out << "}, \"gauges\": {";
  sep = "";
  for (const auto& s : samples) {
    if (s.kind != MetricSample::Kind::kGauge) continue;
    out << sep;
    write_json_string(out, s.name);
    out << ": " << s.gauge;
    sep = ", ";
  }
  out << "}, \"histograms\": {";
  sep = "";
  for (const auto& s : samples) {
    if (s.kind != MetricSample::Kind::kHistogram) continue;
    out << sep;
    write_json_string(out, s.name);
    out << ": ";
    write_histogram_json(out, s.histogram);
    sep = ", ";
  }
  out << "}}";
}

void MetricsRegistry::print(std::ostream& out) const {
  for (const auto& s : snapshot()) {
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        out << s.name << "  " << s.counter << "\n";
        break;
      case MetricSample::Kind::kGauge:
        out << s.name << "  " << s.gauge << "\n";
        break;
      case MetricSample::Kind::kHistogram:
        out << s.name << "  count=" << s.histogram.count
            << " sum=" << s.histogram.sum << " p50=" << s.histogram.p50
            << " p95=" << s.histogram.p95 << " p99=" << s.histogram.p99
            << " max=" << s.histogram.max << "\n";
        break;
    }
  }
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace pargreedy::obs
