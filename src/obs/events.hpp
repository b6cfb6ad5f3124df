// Flight recorder: an always-on, lock-free per-thread ring of fixed-size
// structured event records — the post-mortem half of the obs layer.
//
// Metrics (obs/metrics.hpp) answer "how much"; traces (obs/trace.hpp)
// answer "how long" when explicitly armed. The flight recorder answers
// "what happened just before", all the time: every instrumented site
// drops one 48-byte record (timestamp, thread, kind, correlation ids,
// two payload words) into its thread's fixed-capacity ring, newest
// overwriting oldest, so the last ~64k events are always available for a
// merged JSON dump — on demand (`dynamic_service stats --events-out`,
// bench capture) or automatically on failure paths (engine epoch-guard
// throws, matching certificate arbitration, exchange divergence) via
// dump_failure() when PARGREEDY_EVENTS_DIR is set, numbered per process
// and capped at kMaxFailureDumps files.
//
// Cost contract: a record is a handful of plain stores into memory only
// the owning thread writes, published by ONE relaxed store of the ring's
// sequence counter. No locks, no allocation after the ring exists, no
// branches beyond the obs::enabled() check the PG_OBS_EVENT* macros
// (obs/obs.hpp) already do. Events observe, never steer: nothing here
// feeds back into algorithm state.
//
// Correlation: records carry (batch_id, txn_id, shard_id) read from a
// thread-local context maintained by the RAII scopes below
// (PG_OBS_BATCH_SCOPE / PG_OBS_TXN_SCOPE / PG_OBS_SHARD_SCOPE).
// BatchScope assigns a fresh process-unique id only when none is open,
// so ShardedEngine's outer scope is inherited by the per-shard engine
// applies it drives — one UpdateBatch is one batch_id across every
// shard, which is what makes a dump followable.
//
// Merge contract (same as Tracer's): merged()/write_json()/clear()
// assume quiescence — no thread recording concurrently. Failure dumps
// from a throwing driver thread satisfy this in practice (workers only
// record inside driver-synchronous regions); a dump racing a recorder
// would at worst read one torn record, never corrupt the rings.
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

/// What happened. Names (event_kind_name) are the dotted strings the
/// JSON dump and scripts/validate_events_json.py agree on.
enum class EventKind : uint16_t {
  kBatchBegin = 0,    ///< engine apply_batch entered (arg0 = batch size)
  kBatchEnd,          ///< engine apply_batch done (arg0 = rounds, arg1 = changed)
  kReproRound,        ///< one repropagation round (arg0 = frontier, arg1 = flipped)
  kTxnBegin,          ///< transaction opened (arg0 = txn id)
  kTxnCommit,         ///< transaction committed (arg0 = journal records)
  kTxnAbort,          ///< transaction aborted (arg0 = 1 explicit, 0 destructor)
  kTxnEpochFail,      ///< epoch guard tripped (arg0 = seen, arg1 = expected)
  kShardApply,        ///< user sub-batch routed to a shard (arg0 = size)
  kExchangeRound,     ///< one shard's view of one exchange round
                      ///< (arg0 = round, arg1 = forcing-batch size)
  kForcing,           ///< a forcing batch applied (arg0 = round, arg1 = size)
  kConflictRetry,     ///< savepoint rollback + re-force (arg0 = round)
  kCertFail,          ///< matching boundary certificate rejected a fixpoint
  kArbitrate,         ///< priority-order arbitration ran (arg0 = 1 soft-cap,
                      ///< 0 certificate failure)
  kDump,              ///< a failure dump was requested (marks the dump point)
  kKindCount,         ///< sentinel — not a recordable kind
};

/// The dotted-string name of `kind` ("txn.begin", "shard.cert_fail", ...).
const char* event_kind_name(EventKind kind) noexcept;

/// shard_id value meaning "not inside any shard's scope".
inline constexpr uint32_t kNoShard = ~uint32_t{0};

/// One fixed-size flight-recorder record (48 bytes).
struct EventRecord {
  uint64_t ts_us = 0;           ///< micros_since_origin() at record time
  uint64_t batch_id = 0;        ///< correlation: 0 = outside any batch
  uint64_t txn_id = 0;          ///< correlation: 0 = outside any transaction
  uint64_t arg0 = 0;            ///< kind-specific payload (see EventKind)
  uint64_t arg1 = 0;            ///< kind-specific payload
  uint32_t shard_id = kNoShard; ///< correlation: kNoShard = none
  uint16_t kind = 0;            ///< EventKind
  uint16_t tid = 0;             ///< recorder-assigned thread index
};

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

}  // namespace detail

/// The batch id of the innermost open BatchScope on this thread (0 when
/// none) — span call sites attach it so traces and events correlate.
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

/// Owns the per-thread rings and the merge/export path. record() is the
/// hot path; everything else assumes quiescence (see file comment).
class EventRecorder {
 public:
  /// Slots per recording thread (power of two; ~384 KiB/thread). With the
  /// repo's typical 1–8 recording threads the recorder retains the last
  /// ~8k–64k events process-wide.
  static constexpr std::size_t kRingCapacity = std::size_t{1} << 13;

  /// Records one event into the calling thread's ring: plain stores into
  /// owner-written memory + one relaxed publication store. Correlation
  /// ids and timestamp are filled in here.
  void record(EventKind kind, uint64_t arg0 = 0, uint64_t arg1 = 0) noexcept;

  /// Every retained record across threads, oldest first (stable-sorted by
  /// timestamp, so one thread's records keep their recording order).
  [[nodiscard]] std::vector<EventRecord> merged() const;

  /// Retained records across threads (= min(recorded, capacity) per ring).
  [[nodiscard]] std::size_t event_count() const;

  /// Records lost to ring wrap-around across threads — the drop
  /// accounting: per ring, recorded-ever minus retained.
  [[nodiscard]] uint64_t overwritten() const;

  /// Forgets all retained records (threads keep their rings).
  void clear();

  /// One-object JSON dump of merged():
  /// {"schema": "pargreedy-events-v1", "reason": ..., "overwritten": N,
  ///  "events": [{"ts","tid","kind","batch_id","txn_id","shard_id",
  ///  "arg0","arg1"}, ...]} — the shape scripts/validate_events_json.py
  /// checks. shard_id is emitted as -1 when the record had none.
  void write_json(std::ostream& out,
                  const std::string& reason = "on_demand") const;

  /// write_json() to `path` via temp file + rename (same torn-artifact
  /// protection as Tracer::write_file). False on I/O failure.
  bool write_file(const std::string& path,
                  const std::string& reason = "on_demand") const;

  /// Failure dumps one recorder writes at most, so a caller that keeps
  /// retrying a failing call cannot fill the disk.
  static constexpr uint64_t kMaxFailureDumps = 16;

  /// The failure-path dump: when PARGREEDY_EVENTS_DIR is set, records a
  /// kDump marker and writes EVENTS_failure_<reason>_<seq>.json there,
  /// where <seq> numbers this recorder's dumps from 0 (so a repeated
  /// failure keeps the first dump) up to kMaxFailureDumps; no-op (false)
  /// otherwise or past the cap. Never throws — safe to call while
  /// unwinding. `reason` must be filename-safe ([a-z0-9_]).
  bool dump_failure(const char* reason) noexcept;

  /// The process-wide recorder every PG_OBS_EVENT* records into.
  static EventRecorder& global();

 private:
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

}  // namespace pargreedy::obs
