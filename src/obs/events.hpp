// Flight recorder: the obs layer's one record store, a lock-free
// per-thread ring of fixed-size records, and its one export format.
//
// Metrics (obs/metrics.hpp) answer "how much". The recorder answers "what
// happened just before, and how long did each step take": every
// instrumented site writes one 56-byte record (timestamp, duration,
// thread, kind, correlation ids, two payload words) into its thread's
// fixed-capacity ring, newest overwriting oldest, so each thread's last
// kRingCapacity records are always available. One table (kind_info())
// gives every kind its name, category and argument names, and one writer
// (write_json()) renders the merged rings as Chrome trace_event JSON —
// on demand (`dynamic_service stats --trace-out/--events-out`, bench
// capture) or on failure paths, right before they throw (engine
// epoch-guard, a matching certificate still violated after arbitration,
// exchange divergence), via dump_failure() when PARGREEDY_EVENTS_DIR is
// set, numbered per process and capped at kMaxFailureDumps files.
// Arbitration itself is the exchange's designed slow path, not a failure:
// its shard.arbitrate event marks it, and it dumps nothing.
//
// Two kinds of record share the rings:
//   * events (PG_OBS_EVENT*) record whenever obs::enabled(); the JSON
//     renders them as instants ("ph": "i");
//   * spans (PG_OBS_SPAN*, the RAII TraceSpan) record only while spans are
//     armed (PARGREEDY_TRACE_DIR in the environment, or arm_spans()).
//     A span writes its record at open and fills in the duration and its
//     second arg at close, so each ring stays in timestamp order; when
//     the ring wrapped past the record before the close, the fill is
//     skipped. The JSON renders them as complete events ("ph": "X").
//     Unarmed, a span costs one relaxed load: recording every span would
//     add two clock reads per span to the untraced path.
//
// Cost contract: a record is a handful of plain stores into memory only
// the owning thread writes, published by ONE relaxed store of the ring's
// sequence counter. No locks, no allocation after the ring exists.
// Records observe, never steer: nothing here feeds back into algorithm
// state.
//
// Correlation: records carry (batch_id, txn_id, shard_id) read from a
// thread-local context maintained by the RAII scopes below
// (PG_OBS_BATCH_SCOPE / PG_OBS_TXN_SCOPE / PG_OBS_SHARD_SCOPE).
// BatchScope assigns a fresh process-unique id only when none is open,
// so ShardedEngine's outer scope is inherited by the per-shard engine
// applies it drives — one UpdateBatch is one batch_id across every
// shard, which is what makes a dump followable.
//
// Merge contract: merged()/write_json()/clear() assume quiescence — no
// other thread recording concurrently, and no span open across a clear().
// Failure dumps from a throwing driver thread satisfy this in practice
// (workers only record inside driver-synchronous regions); a span still
// open on the dumping thread renders with dur 0, and a dump racing a
// recorder would at worst read one torn record, never corrupt the rings.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/runtime.hpp"

namespace pargreedy::obs {

/// What happened. kind_info() gives each kind its name, category and
/// argument names; the payload columns below name arg0/arg1.
enum class EventKind : uint16_t {
  // Events: one record whenever obs::enabled().
  kBatchBegin = 0,    ///< engine apply_batch entered (batch_size)
  kBatchEnd,          ///< engine apply_batch done (rounds, changed)
  kReproRound,        ///< one repropagation round (frontier, flipped)
  kTxnBegin,          ///< transaction opened (its id is the txn_id)
  kTxnCommit,         ///< transaction committed (journal_records)
  kTxnAbort,          ///< transaction aborted (explicit: 1, destructor: 0)
  kTxnEpochFail,      ///< epoch guard tripped (seen, expected)
  kShardApply,        ///< user sub-batch routed to a shard (batch_size)
  kExchangeRound,     ///< one shard's view of one exchange round
                      ///< (round, forcing-batch size)
  kForcing,           ///< a forcing batch applied (round, size)
  kConflictRetry,     ///< savepoint rollback + re-force (round)
  kCertFail,          ///< matching boundary certificate rejected a fixpoint
                      ///< (round)
  kArbitrate,         ///< priority-order arbitration ran (soft_cap: 1,
                      ///< certificate failure: 0)
  kDump,              ///< a failure dump was requested (marks the dump point)
  // Spans: one record per scope while spans are armed.
  kApplyBatchMis,     ///< DynamicMis::apply_batch (batch_size, rounds)
  kApplyBatchMm,      ///< DynamicMatching::apply_batch (same args)
  kRepropagate,       ///< one repropagate() call (seeds, rounds)
  kDecide,            ///< a round's decide phase (round, frontier)
  kCommit,            ///< a round's commit phase (round, flipped)
  kExpand,            ///< a round's expand phase (round, next_frontier)
  kCompact,           ///< overlay compaction (live_edges, extra)
  kTxnBeginSpan,      ///< Transaction::begin
  kTxnApplySpan,      ///< Transaction::apply (batch_size)
  kTxnRollbackToSpan, ///< Transaction::rollback_to
  kTxnCommitSpan,     ///< Transaction::commit (journal_records)
  kTxnAbortSpan,      ///< Transaction abort (journal_records)
  kRunExchange,       ///< ShardedEngine boundary exchange (-, rounds)
  kExchangeBatch,     ///< ShardedEngine apply_batch (batch_size)
  kKindCount,         ///< sentinel — not a recordable kind
};

/// One row of the kind table.
struct KindInfo {
  const char* name;     ///< the JSON record's "name"
  const char* cat;      ///< the JSON record's "cat"
  const char* arg[2];   ///< names of arg0/arg1 in "args"; nullptr: unused
  bool span;            ///< complete event with a duration, else an instant
};

/// The table row of `kind` (kind < kKindCount).
const KindInfo& kind_info(EventKind kind) noexcept;

/// shard_id value meaning "not inside any shard's scope".
inline constexpr uint32_t kNoShard = ~uint32_t{0};

/// One fixed-size flight-recorder record (56 bytes).
struct EventRecord {
  uint64_t ts_us = 0;           ///< micros_since_origin() at record time
                                ///< (a span's open)
  uint64_t dur_us = 0;          ///< span duration, filled at close; 0 else
  uint64_t batch_id = 0;        ///< correlation: 0 = outside any batch
  uint64_t txn_id = 0;          ///< correlation: 0 = outside any transaction
  uint64_t arg0 = 0;            ///< kind-specific payload (see EventKind)
  uint64_t arg1 = 0;            ///< kind-specific payload
  uint32_t shard_id = kNoShard; ///< correlation: kNoShard = none
  uint16_t kind = 0;            ///< EventKind
  uint16_t tid = 0;             ///< recorder-assigned thread index
};
static_assert(sizeof(EventRecord) <= 64, "a record fits one cache line");

namespace detail {

/// The calling thread's correlation context (maintained by the scopes).
struct Correlation {
  uint64_t batch_id = 0;
  uint64_t txn_id = 0;
  uint32_t shard_id = kNoShard;
};
Correlation& correlation() noexcept;

/// Next process-unique batch id (first call returns 1).
uint64_t next_batch_id() noexcept;

// -1 = not yet resolved from the environment, else 0/1. Mirrors
// runtime.hpp's g_enabled so an unarmed span is one relaxed load.
extern std::atomic<int> g_spans_armed;
bool resolve_spans_armed() noexcept;

}  // namespace detail

/// The batch id of the innermost open BatchScope on this thread (0 when
/// none).
inline uint64_t current_batch_id() noexcept {
  return detail::correlation().batch_id;
}

/// Opens a batch correlation scope: assigns a fresh process-unique
/// batch_id only when the thread has none open, so nested scopes (a
/// sharded engine driving per-shard engines) inherit the outermost id.
class BatchScope {
 public:
  BatchScope() noexcept {
    auto& c = detail::correlation();
    if (c.batch_id == 0 && enabled()) {
      c.batch_id = detail::next_batch_id();
      owned_ = true;
    }
  }
  BatchScope(const BatchScope&) = delete;
  BatchScope& operator=(const BatchScope&) = delete;
  ~BatchScope() {
    if (owned_) detail::correlation().batch_id = 0;
  }

 private:
  bool owned_ = false;
};

/// Sets the thread's txn correlation id for the scope (restores on exit).
class TxnScope {
 public:
  explicit TxnScope(uint64_t txn_id) noexcept
      : prev_(detail::correlation().txn_id) {
    detail::correlation().txn_id = txn_id;
  }
  TxnScope(const TxnScope&) = delete;
  TxnScope& operator=(const TxnScope&) = delete;
  ~TxnScope() { detail::correlation().txn_id = prev_; }

 private:
  uint64_t prev_;
};

/// Sets the thread's shard correlation id for the scope (restores on exit).
class ShardScope {
 public:
  explicit ShardScope(uint32_t shard_id) noexcept
      : prev_(detail::correlation().shard_id) {
    detail::correlation().shard_id = shard_id;
  }
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;
  ~ShardScope() { detail::correlation().shard_id = prev_; }

 private:
  uint32_t prev_;
};

/// True while spans record. One relaxed load after first resolution
/// (which arms spans when PARGREEDY_TRACE_DIR is set and obs::enabled()).
inline bool spans_armed() noexcept {
  int v = detail::g_spans_armed.load(std::memory_order_relaxed);
  if (v < 0) return detail::resolve_spans_armed();
  return v != 0;
}

/// Arms span recording. Refuses (returns false) when the obs runtime
/// switch is off (PARGREEDY_OBS=0 in the environment).
bool arm_spans() noexcept;

/// Stops span recording; recorded spans stay in the rings.
void disarm_spans() noexcept;

/// Owns the per-thread rings and the merge/export path. record() and
/// close_span() are the hot path; everything else assumes quiescence (see
/// file comment).
class EventRecorder {
 public:
  /// Slots per recording thread (power of two; ~448 KiB/thread).
  static constexpr std::size_t kRingCapacity = std::size_t{1} << 13;

  /// Records one record into the calling thread's ring: plain stores into
  /// owner-written memory + one relaxed publication store. Correlation
  /// ids and timestamp are filled in here. Returns the record's sequence
  /// number in that ring (for close_span()).
  uint64_t record(EventKind kind, uint64_t arg0 = 0,
                  uint64_t arg1 = 0) noexcept;

  /// Closes the span the calling thread recorded as number `seq`: sets its
  /// duration and arg1, unless the ring has since overwritten it.
  void close_span(uint64_t seq, uint64_t arg1) noexcept;

  /// Every retained record across threads, oldest first (stable-sorted by
  /// timestamp, so one thread's records keep their recording order).
  [[nodiscard]] std::vector<EventRecord> merged() const;

  /// Retained records across threads (= min(recorded, capacity) per ring).
  [[nodiscard]] std::size_t event_count() const;

  /// Records lost to ring wrap-around across threads: per ring,
  /// recorded-ever minus retained.
  [[nodiscard]] uint64_t overwritten() const;

  /// Forgets all retained records (threads keep their rings).
  void clear();

  /// merged() as Chrome trace_event JSON (opens in Perfetto):
  /// {"traceEvents": [...], "displayTimeUnit": "ms", "reason": ...,
  ///  "overwritten": N}. traceEvents holds process/thread metadata ("M"),
  /// spans ("X") and events ("i") with their batch_id/txn_id (and
  /// shard_id inside a shard scope) and named args in "args", then one
  /// counter ("C") per registered obs counter, so every export carries
  /// the counter end-state (txn.abort & co.). scripts/validate_trace_json.py
  /// checks the shape.
  void write_json(std::ostream& out,
                  const std::string& reason = "on_demand") const;

  /// write_json() to `path` via temp file + rename, so a reader never sees
  /// a torn file. False on I/O failure.
  bool write_file(const std::string& path,
                  const std::string& reason = "on_demand") const;

  /// Failure dumps one process writes at most, so a caller that keeps
  /// retrying a failing call cannot fill the disk.
  static constexpr uint64_t kMaxFailureDumps = 16;

  /// The failure-path dump: when PARGREEDY_EVENTS_DIR is set, records a
  /// kDump marker and writes EVENTS_failure_<reason>_<seq>.json there,
  /// where <seq> numbers this process's dumps from 0 (so a repeated
  /// failure keeps the first dump) up to kMaxFailureDumps; no-op (false)
  /// otherwise or past the cap. Never throws — safe to call while
  /// unwinding. `reason` must be filename-safe ([a-z0-9_]).
  bool dump_failure(const char* reason) noexcept;

  /// The process-wide recorder every PG_OBS_EVENT* and PG_OBS_SPAN*
  /// records into (the only instance: rings are cached per thread).
  static EventRecorder& global();

 private:
  EventRecorder() = default;

  struct Ring {
    std::vector<EventRecord> slots;  // capacity kRingCapacity, owner-written
    std::atomic<uint64_t> seq{0};    // records ever; published after the slot
    uint16_t tid = 0;
  };

  // The calling thread's ring, registering it on first call.
  Ring& thread_ring();

  // Guards registration and merge iteration only; recording threads
  // touch their own ring without it.
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::atomic<uint64_t> failure_dumps_{0};  // dump_failure() calls so far
};

/// What PG_OBS_EVENT* expands to: one relaxed load when the runtime
/// switch is off, one ring record when on.
inline void record_event(EventKind kind, uint64_t arg0 = 0,
                         uint64_t arg1 = 0) noexcept {
  if (enabled()) EventRecorder::global().record(kind, arg0, arg1);
}

/// RAII span: one record of a span kind, written at construction while
/// spans are armed and closed (duration, arg1) at destruction. arg0 and
/// arg1 describe the scope's input; set_arg1() replaces arg1 with an
/// output measured inside the scope.
class TraceSpan {
 public:
  explicit TraceSpan(EventKind kind, uint64_t arg0 = 0,
                     uint64_t arg1 = 0) noexcept
      : arg1_(arg1) {
    if (spans_armed()) {
      seq_ = EventRecorder::global().record(kind, arg0, arg1);
      armed_ = true;
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (armed_) EventRecorder::global().close_span(seq_, arg1_);
  }

  /// Replaces the second arg's value (an output of the scope).
  void set_arg1(uint64_t value) noexcept { arg1_ = value; }

 private:
  uint64_t seq_ = 0;
  uint64_t arg1_;
  bool armed_ = false;  // spans were armed at construction
};

}  // namespace pargreedy::obs
