#include "obs/events.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <ostream>

#include "obs/metrics.hpp"
#include "support/env.hpp"
#include "support/timing.hpp"

namespace pargreedy::obs {

namespace detail {

Correlation& correlation() noexcept {
  thread_local Correlation ctx;
  return ctx;
}

uint64_t next_batch_id() noexcept {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::atomic<int> g_spans_armed{-1};

bool resolve_spans_armed() noexcept {
  const bool on =
      enabled() && !env_string("PARGREEDY_TRACE_DIR", "").empty();
  // First resolver wins; a concurrent arm/disarm store also wins —
  // either way the flag is settled after this.
  int expected = -1;
  g_spans_armed.compare_exchange_strong(expected, on ? 1 : 0,
                                        std::memory_order_relaxed);
  return g_spans_armed.load(std::memory_order_relaxed) != 0;
}

}  // namespace detail

namespace {

// Indexed by EventKind: keep the rows in enumerator order.
constexpr KindInfo kKinds[] = {
    {"batch.begin", "engine", {"batch_size", nullptr}, false},
    {"batch.end", "engine", {"rounds", "changed"}, false},
    {"repro.round", "repro", {"frontier", "flipped"}, false},
    {"txn.begin", "txn", {nullptr, nullptr}, false},
    {"txn.commit", "txn", {"journal_records", nullptr}, false},
    {"txn.abort", "txn", {"explicit", nullptr}, false},
    {"txn.epoch_fail", "txn", {"seen", "expected"}, false},
    {"shard.apply", "shard", {"batch_size", nullptr}, false},
    {"shard.exchange_round", "shard", {"round", "forcing"}, false},
    {"shard.forcing", "shard", {"round", "size"}, false},
    {"shard.conflict_retry", "shard", {"round", nullptr}, false},
    {"shard.cert_fail", "shard", {"round", nullptr}, false},
    {"shard.arbitrate", "shard", {"soft_cap", nullptr}, false},
    {"events.dump", "obs", {nullptr, nullptr}, false},
    {"apply_batch", "mis", {"batch_size", "rounds"}, true},
    {"apply_batch", "matching", {"batch_size", "rounds"}, true},
    {"repropagate", "repro", {"seeds", "rounds"}, true},
    {"decide", "repro", {"round", "frontier"}, true},
    {"commit", "repro", {"round", "flipped"}, true},
    {"expand", "repro", {"round", "next_frontier"}, true},
    {"compact", "overlay", {"live_edges", "extra"}, true},
    {"txn.begin", "txn", {nullptr, nullptr}, true},
    {"txn.apply", "txn", {"batch_size", nullptr}, true},
    {"txn.rollback_to", "txn", {nullptr, nullptr}, true},
    {"txn.commit", "txn", {"journal_records", nullptr}, true},
    {"txn.abort", "txn", {"journal_records", nullptr}, true},
    {"run_exchange", "shard", {nullptr, "rounds"}, true},
    {"exchange_batch", "shard", {"batch_size", nullptr}, true},
};
static_assert(std::size(kKinds) ==
                  static_cast<std::size_t>(EventKind::kKindCount),
              "one kind-table row per EventKind");

// Kind names, categories and arg names are literals from the table
// above, so the writer emits them verbatim; registry metric names go
// through the same minimal escape metrics.cpp uses.
void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

void write_record(std::ostream& out, const EventRecord& r) {
  const KindInfo& info = kind_info(static_cast<EventKind>(r.kind));
  out << "{\"name\": \"" << info.name << "\", \"cat\": \"" << info.cat
      << "\", \"ph\": \"" << (info.span ? 'X' : 'i') << "\", \"ts\": "
      << r.ts_us;
  if (info.span) {
    out << ", \"dur\": " << r.dur_us;
  } else {
    out << ", \"s\": \"t\"";
  }
  out << ", \"pid\": 1, \"tid\": " << r.tid
      << ", \"args\": {\"batch_id\": " << r.batch_id
      << ", \"txn_id\": " << r.txn_id;
  if (r.shard_id != kNoShard) out << ", \"shard_id\": " << r.shard_id;
  const uint64_t value[2] = {r.arg0, r.arg1};
  for (int i = 0; i < 2; ++i) {
    if (info.arg[i] != nullptr)
      out << ", \"" << info.arg[i] << "\": " << value[i];
  }
  out << "}}";
}

void write_metadata(std::ostream& out, const char* what, uint32_t tid,
                    const std::string& value) {
  out << "{\"name\": \"" << what << "\", \"ph\": \"M\", \"ts\": 0"
      << ", \"pid\": 1, \"tid\": " << tid << ", \"args\": {\"name\": ";
  write_json_string(out, value);
  out << "}}";
}

void write_counter(std::ostream& out, const std::string& name, uint64_t value,
                   uint64_t ts_us) {
  out << "{\"name\": ";
  write_json_string(out, name);
  out << ", \"cat\": \"metrics\", \"ph\": \"C\", \"ts\": " << ts_us
      << ", \"pid\": 1, \"tid\": 0, \"args\": {\"value\": " << value << "}}";
}

}  // namespace

const KindInfo& kind_info(EventKind kind) noexcept {
  return kKinds[static_cast<std::size_t>(kind)];
}

bool arm_spans() noexcept {
  if (!enabled()) return false;
  detail::g_spans_armed.store(1, std::memory_order_relaxed);
  return true;
}

void disarm_spans() noexcept {
  detail::g_spans_armed.store(0, std::memory_order_relaxed);
}

uint64_t EventRecorder::record(EventKind kind, uint64_t arg0,
                               uint64_t arg1) noexcept {
  Ring& ring = thread_ring();
  // Only the owning thread writes seq, so the load-modify-store below is
  // single-writer; relaxed publication is all a quiescent merge needs.
  const uint64_t seq = ring.seq.load(std::memory_order_relaxed);
  EventRecord& slot = ring.slots[seq & (kRingCapacity - 1)];
  const detail::Correlation& c = detail::correlation();
  slot.ts_us = micros_since_origin();
  slot.dur_us = 0;
  slot.batch_id = c.batch_id;
  slot.txn_id = c.txn_id;
  slot.arg0 = arg0;
  slot.arg1 = arg1;
  slot.shard_id = c.shard_id;
  slot.kind = static_cast<uint16_t>(kind);
  slot.tid = ring.tid;
  ring.seq.store(seq + 1, std::memory_order_relaxed);
  return seq;
}

void EventRecorder::close_span(uint64_t seq, uint64_t arg1) noexcept {
  Ring& ring = thread_ring();
  // Record `seq` is overwritten by record seq + kRingCapacity; from then
  // on its slot belongs to a later record. (A clear() since the open
  // makes the difference wrap around and skips the fill too.)
  if (ring.seq.load(std::memory_order_relaxed) - seq > kRingCapacity) return;
  EventRecord& slot = ring.slots[seq & (kRingCapacity - 1)];
  slot.dur_us = micros_since_origin() - slot.ts_us;
  slot.arg1 = arg1;
}

std::vector<EventRecord> EventRecorder::merged() const {
  std::vector<EventRecord> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& ring : rings_) {
      const uint64_t seq = ring->seq.load(std::memory_order_relaxed);
      const uint64_t kept = std::min<uint64_t>(seq, kRingCapacity);
      // Oldest retained record first: when the ring has wrapped, that is
      // the slot the NEXT record would overwrite.
      for (uint64_t i = 0; i < kept; ++i) {
        const uint64_t idx = (seq - kept + i) & (kRingCapacity - 1);
        out.push_back(ring->slots[idx]);
      }
    }
  }
  // Stable: records from one ring are already in recording order, which
  // is timestamp order (a span records at open), so ties (coarse
  // timestamps) keep per-thread order and the merge of a driver-thread-
  // only workload is bit-reproducible.
  std::stable_sort(out.begin(), out.end(),
                   [](const EventRecord& a, const EventRecord& b) {
                     return a.ts_us < b.ts_us;
                   });
  return out;
}

std::size_t EventRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& ring : rings_) {
    n += static_cast<std::size_t>(std::min<uint64_t>(
        ring->seq.load(std::memory_order_relaxed), kRingCapacity));
  }
  return n;
}

uint64_t EventRecorder::overwritten() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t n = 0;
  for (const auto& ring : rings_) {
    const uint64_t seq = ring->seq.load(std::memory_order_relaxed);
    n += seq - std::min<uint64_t>(seq, kRingCapacity);
  }
  return n;
}

void EventRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& ring : rings_) ring->seq.store(0, std::memory_order_relaxed);
}

void EventRecorder::write_json(std::ostream& out,
                               const std::string& reason) const {
  const uint64_t now_us = micros_since_origin();
  out << "{\"traceEvents\": [\n  ";
  write_metadata(out, "process_name", 0, "pargreedy");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& ring : rings_) {
      out << ",\n  ";
      write_metadata(out, "thread_name", ring->tid,
                     "obs-thread-" + std::to_string(ring->tid));
    }
  }
  for (const EventRecord& r : merged()) {
    out << ",\n  ";
    write_record(out, r);
  }
  // Counter end-state rides along so every export is self-describing:
  // one Chrome "C" event per registered counter, stamped at merge time.
  for (const auto& s : MetricsRegistry::global().snapshot()) {
    if (s.kind != MetricSample::Kind::kCounter) continue;
    out << ",\n  ";
    write_counter(out, s.name, s.counter, now_us);
  }
  out << "\n], \"displayTimeUnit\": \"ms\", \"reason\": ";
  write_json_string(out, reason);
  out << ", \"overwritten\": " << overwritten() << "}\n";
}

bool EventRecorder::write_file(const std::string& path,
                               const std::string& reason) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    write_json(out, reason);
    out.flush();
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

bool EventRecorder::dump_failure(const char* reason) noexcept {
  try {
    const std::string dir = env_string("PARGREEDY_EVENTS_DIR", "");
    if (dir.empty()) return false;
    const uint64_t seq =
        failure_dumps_.fetch_add(1, std::memory_order_relaxed);
    if (seq >= kMaxFailureDumps) return false;
    record(EventKind::kDump);
    return write_file(dir + "/EVENTS_failure_" + reason + "_" +
                          std::to_string(seq) + ".json",
                      reason);
  } catch (...) {
    return false;  // dumping is best-effort; never mask the real failure
  }
}

EventRecorder& EventRecorder::global() {
  static EventRecorder* recorder = new EventRecorder();
  return *recorder;
}

EventRecorder::Ring& EventRecorder::thread_ring() {
  // global() is the only instance, so one pointer per thread suffices.
  thread_local Ring* cached = nullptr;
  if (cached != nullptr) return *cached;
  std::lock_guard<std::mutex> lock(mutex_);
  auto ring = std::make_unique<Ring>();
  ring->tid = static_cast<uint16_t>(rings_.size());
  ring->slots.resize(kRingCapacity);
  cached = ring.get();
  rings_.push_back(std::move(ring));
  return *cached;
}

}  // namespace pargreedy::obs
