// The benchmark's own arithmetic: percentiles under the ten-beyond rule,
// span self time and unattributed time, and the error share.
//
// Kept free of any pargreedy dependency so selftest.cpp can check it in
// isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Samples a percentile must leave beyond itself before it is reported
/// as trustworthy.
inline constexpr uint64_t kMinBeyond = 10;

/// A nearest-rank percentile together with the sample count behind it.
struct Quantile {
  double value = std::numeric_limits<double>::quiet_NaN();
  uint64_t n = 0;       ///< samples the percentile was taken over
  uint64_t beyond = 0;  ///< samples strictly above its rank
  /// True when at least kMinBeyond samples lie beyond the percentile.
  [[nodiscard]] bool ok() const { return n > 0 && beyond >= kMinBeyond; }
};

/// Nearest-rank percentile `p` in (0, 1] of `samples`: the value at
/// 1-based rank ceil(p * n) of the sorted samples.
inline Quantile percentile(std::vector<double> samples, double p) {
  Quantile q;
  q.n = samples.size();
  if (samples.empty()) return q;
  auto rank = static_cast<uint64_t>(std::ceil(p * static_cast<double>(q.n)));
  rank = std::clamp<uint64_t>(rank, 1, q.n);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  q.value = samples[rank - 1];
  q.beyond = q.n - rank;
  return q;
}

/// Median of `samples` (NaN when empty).
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5).value;
}

/// Sum of `samples`.
inline double total(const std::vector<double>& samples) {
  double s = 0;
  for (const double x : samples) s += x;
  return s;
}

/// Failed operations over attempted ones; 0 when nothing was attempted.
inline double error_share(uint64_t failed, uint64_t attempted) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

/// One recorded span: [t0, t1) in nanoseconds on one thread. `parent` is
/// the id of the enclosing span on the same thread, 0 for a root.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;  ///< tick / read / solve id the span belongs to
  uint32_t name = 0;
  uint32_t thread = 0;
  int64_t t0 = 0;
  int64_t t1 = 0;

  [[nodiscard]] int64_t duration() const { return t1 - t0; }
};

/// Self time of every span, indexed like `spans`: its duration minus the
/// part of its interval that its children cover. Children are clipped to
/// the parent interval and overlapping children are counted once, so a
/// self time is never negative.
inline std::vector<int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const int64_t a = std::max(s.t0, p.t0);
    const int64_t b = std::min(s.t1, p.t1);
    if (a < b) children[it->second].emplace_back(a, b);
  }
  std::vector<int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& cs = children[i];
    std::sort(cs.begin(), cs.end());
    int64_t covered = 0;
    int64_t end = std::numeric_limits<int64_t>::min();
    for (const auto& [a, b] : cs) {
      const int64_t from = std::max(a, end);
      if (b > from) covered += b - from;
      end = std::max(end, b);
    }
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

}  // namespace perfbench
