#include "obs/events.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>

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

}  // namespace detail

const char* event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kBatchBegin:
      return "batch.begin";
    case EventKind::kBatchEnd:
      return "batch.end";
    case EventKind::kReproRound:
      return "repro.round";
    case EventKind::kTxnBegin:
      return "txn.begin";
    case EventKind::kTxnCommit:
      return "txn.commit";
    case EventKind::kTxnAbort:
      return "txn.abort";
    case EventKind::kTxnEpochFail:
      return "txn.epoch_fail";
    case EventKind::kShardApply:
      return "shard.apply";
    case EventKind::kExchangeRound:
      return "shard.exchange_round";
    case EventKind::kForcing:
      return "shard.forcing";
    case EventKind::kConflictRetry:
      return "shard.conflict_retry";
    case EventKind::kCertFail:
      return "shard.cert_fail";
    case EventKind::kArbitrate:
      return "shard.arbitrate";
    case EventKind::kDump:
      return "events.dump";
    case EventKind::kKindCount:
      break;
  }
  return "unknown";
}

void EventRecorder::record(EventKind kind, uint64_t arg0,
                           uint64_t arg1) noexcept {
  Ring& ring = thread_ring();
  // Only the owning thread writes seq, so the load-modify-store below is
  // single-writer; relaxed publication is all a quiescent merge needs.
  const uint64_t seq = ring.seq.load(std::memory_order_relaxed);
  EventRecord& slot = ring.slots[seq & (kRingCapacity - 1)];
  const detail::Correlation& c = detail::correlation();
  slot.ts_us = micros_since_origin();
  slot.batch_id = c.batch_id;
  slot.txn_id = c.txn_id;
  slot.arg0 = arg0;
  slot.arg1 = arg1;
  slot.shard_id = c.shard_id;
  slot.kind = static_cast<uint16_t>(kind);
  slot.tid = ring.tid;
  ring.seq.store(seq + 1, std::memory_order_relaxed);
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
  // Stable: records from one ring are already in recording order, so ties
  // (coarse timestamps) keep per-thread order and the merge of a
  // driver-thread-only workload is bit-reproducible.
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
  out << "{\"schema\": \"pargreedy-events-v1\", \"reason\": \"";
  for (char ch : reason) {
    if (ch == '"' || ch == '\\') out << '\\';
    out << ch;
  }
  out << "\", \"overwritten\": " << overwritten() << ", \"events\": [\n";
  const char* sep = "";
  for (const EventRecord& e : merged()) {
    out << sep << "  {\"ts\": " << e.ts_us << ", \"tid\": " << e.tid
        << ", \"kind\": \"" << event_kind_name(static_cast<EventKind>(e.kind))
        << "\", \"batch_id\": " << e.batch_id << ", \"txn_id\": " << e.txn_id
        << ", \"shard_id\": "
        << (e.shard_id == kNoShard ? int64_t{-1}
                                   : static_cast<int64_t>(e.shard_id))
        << ", \"arg0\": " << e.arg0 << ", \"arg1\": " << e.arg1 << "}";
    sep = ",\n";
  }
  out << "\n]}\n";
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
  // Keyed by recorder so tests can exercise a local EventRecorder without
  // their records landing in global()'s rings. Steady state is a scan of
  // a one-entry (rarely two) thread-local vector — still lock-free.
  thread_local std::vector<std::pair<const EventRecorder*, Ring*>> cache;
  for (const auto& [recorder, ring] : cache) {
    if (recorder == this) return *ring;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto ring = std::make_unique<Ring>();
  ring->tid = static_cast<uint16_t>(rings_.size());
  ring->slots.resize(kRingCapacity);
  Ring* raw = ring.get();
  rings_.push_back(std::move(ring));
  cache.emplace_back(this, raw);
  return *raw;
}

}  // namespace pargreedy::obs
