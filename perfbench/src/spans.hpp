// In-memory span recording for the traced run.
//
// Each thread owns one SpanLog; a Scope records one span around a call
// into the library. Logs are preallocated and never shared, so recording
// costs two clock reads and a store. With tracing off every Scope is a
// single untaken branch. Logs are merged and written out once, after the
// timed phases end.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Keeps `value` (and the work that produced it) from being optimized
/// away.
template <typename T>
inline void do_not_optimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Span names. The enum order is the order of kSpanNames.
enum SpanName : uint32_t {
  kSolveMis,
  kSolveMm,
  kOrder,
  kMisPrefix,
  kMmPrefix,
  kMisBatch,
  kMmBatch,
  kMisBegin,
  kMisApply,
  kMisCommit,
  kMisAbort,
  kMmBegin,
  kMmApply,
  kMmCommit,
  kMmAbort,
  kBareMisApply,
  kBareMmApply,
  kRead,
  kReadAcquire,
  kReadLookup,
  kReadCopyMis,
  kReadCopyMm,
  kRoute,
  kShardMisApply,
  kShardMmApply,
  kShardMisWhatIf,
  kShardMmWhatIf,
  kShardRead,
  kSpanNameCount
};

inline constexpr const char* kSpanNames[kSpanNameCount] = {
    "mis.solve",         "mm.solve",          "core.order",
    "core.mis_prefix",   "core.mm_prefix",    "mis.batch",
    "mm.batch",          "txn.mis.begin",     "txn.mis.apply",
    "txn.mis.commit",    "txn.mis.abort",     "txn.mm.begin",
    "txn.mm.apply",      "txn.mm.commit",     "txn.mm.abort",
    "dynamic.mis.apply", "dynamic.mm.apply",  "read",
    "read.acquire",      "read.lookup",       "read.copy.mis",
    "read.copy.mm",      "shard.route",       "shard.mis.apply",
    "shard.mm.apply",    "shard.mis.whatif",  "shard.mm.whatif",
    "shard.read"};

/// One thread's spans (see file comment).
class SpanLog {
 public:
  /// `thread` must be unique per log; `capacity` spans are reserved up
  /// front and spans beyond it are counted in dropped().
  SpanLog(uint32_t thread, bool on, std::size_t capacity)
      : thread_(thread), on_(on) {
    spans_.reserve(capacity);
  }

  [[nodiscard]] bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  /// Opens a span of `name` for `request`, nested in the innermost open
  /// span. Returns a handle for close(), 0 when nothing was recorded.
  std::size_t open(SpanName name, uint64_t request) {
    if (!on_) return 0;
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return 0;
    }
    Span s;
    s.id = (uint64_t{thread_} << 40) | (spans_.size() + 1);
    s.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
    s.request = request;
    s.name = name;
    s.thread = thread_;
    stack_.push_back(spans_.size());
    spans_.push_back(s);
    spans_.back().t0 = now_ns();
    return spans_.size();
  }

  void close(std::size_t handle) {
    if (handle == 0) return;
    spans_[handle - 1].t1 = now_ns();
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] uint64_t dropped() const { return dropped_; }

 private:
  uint32_t thread_;
  bool on_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  uint64_t dropped_ = 0;
};

/// RAII span around one call.
class Scope {
 public:
  Scope(SpanLog& log, SpanName name, uint64_t request)
      : log_(log), handle_(log.open(name, request)) {}
  ~Scope() { log_.close(handle_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  std::size_t handle_;
};

/// Durations in microseconds of the spans called `name`.
inline std::vector<double> span_us(const std::vector<Span>& spans,
                                   SpanName name) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (s.name == name) out.push_back(double(s.duration()) * 1e-3);
  return out;
}

/// Self times in microseconds of the spans called `name`; `self` is
/// self_times(spans).
inline std::vector<double> self_us(const std::vector<Span>& spans,
                                   const std::vector<int64_t>& self,
                                   SpanName name) {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == name) out.push_back(double(self[i]) * 1e-3);
  return out;
}

/// For every span called `parent`, in order, the summed duration in
/// microseconds of its direct children called `child`.
inline std::vector<double> child_sum_us(const std::vector<Span>& spans,
                                        SpanName parent, SpanName child) {
  std::unordered_map<uint64_t, std::size_t> slot;
  std::vector<double> out;
  for (const Span& s : spans)
    if (s.name == parent) {
      slot[s.id] = out.size();
      out.push_back(0);
    }
  for (const Span& s : spans)
    if (s.name == child) {
      const auto it = slot.find(s.parent);
      if (it != slot.end()) out[it->second] += double(s.duration()) * 1e-3;
    }
  return out;
}

/// Writes spans as tab-separated lines: id parent request thread name
/// t0_ns t1_ns.
inline void write_spans(std::ostream& out, const std::vector<Span>& spans) {
  out << "id\tparent\trequest\tthread\tname\tt0_ns\tt1_ns\n";
  for (const Span& s : spans)
    out << s.id << '\t' << s.parent << '\t' << s.request << '\t' << s.thread
        << '\t' << kSpanNames[s.name] << '\t' << s.t0 << '\t' << s.t1 << '\n';
}

}  // namespace perfbench
