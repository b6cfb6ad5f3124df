// The observability seam: one header every instrumentation site
// includes, and the ONLY spelling instrumentation is allowed to use
// (scripts/lint_invariants.py `obs-confined` enforces this — no ad-hoc
// Timer + fprintf telemetry in src/).
//
// Two gates compose:
//
//   compile time — the PARGREEDY_OBS macro (default 1; CMake option
//   PARGREEDY_OBS=OFF defines it to 0 on the whole build). At 0 every
//   PG_OBS_* macro below expands to ((void)0): no atomics, no statics,
//   no clock reads, no code. The acceptance bar is that a disabled
//   build's deterministic bench counters are byte-identical to an
//   enabled build's — instrumentation can never steer the algorithms.
//
//   run time — obs::enabled() (env PARGREEDY_OBS, obs/runtime.hpp) and,
//   for spans, obs::spans_armed() (env PARGREEDY_TRACE_DIR or
//   obs::arm_spans(), obs/events.hpp). Both are one relaxed load when
//   off.
//
// Metric name constants live at the bottom so call sites, docs
// (docs/OBSERVABILITY.md), tests, and the CI trace validator agree on
// one catalog.
#pragma once

#ifndef PARGREEDY_OBS
#define PARGREEDY_OBS 1
#endif

#include <cstdint>

#include "obs/runtime.hpp"

#if PARGREEDY_OBS
#include "obs/events.hpp"
#include "obs/metrics.hpp"

// Bump the named counter by `delta`. The Counter reference is resolved
// once per call site (function-local static), so the steady state is
// one relaxed load (enabled?) + one relaxed fetch_add.
#define PG_OBS_COUNT(name, delta)                                \
  do {                                                           \
    if (::pargreedy::obs::enabled()) {                           \
      static ::pargreedy::obs::Counter& pg_obs_counter_ =        \
          ::pargreedy::obs::MetricsRegistry::global().counter(   \
              name);                                             \
      pg_obs_counter_.add(static_cast<uint64_t>(delta));         \
    }                                                            \
  } while (0)

// Set the named gauge to `value`.
#define PG_OBS_GAUGE(name, value)                                \
  do {                                                           \
    if (::pargreedy::obs::enabled()) {                           \
      static ::pargreedy::obs::Gauge& pg_obs_gauge_ =            \
          ::pargreedy::obs::MetricsRegistry::global().gauge(     \
              name);                                             \
      pg_obs_gauge_.set(static_cast<int64_t>(value));            \
    }                                                            \
  } while (0)

// Record `value` into the named log-bucketed histogram.
#define PG_OBS_HIST(name, value)                                 \
  do {                                                           \
    if (::pargreedy::obs::enabled()) {                           \
      static ::pargreedy::obs::Histogram& pg_obs_hist_ =         \
          ::pargreedy::obs::MetricsRegistry::global().histogram( \
              name);                                             \
      pg_obs_hist_.record(static_cast<uint64_t>(value));         \
    }                                                            \
  } while (0)

// Open an RAII span named `var` for the rest of the enclosing scope: one
// flight-recorder record while spans are armed. `kind` is an UNQUALIFIED
// span EventKind enumerator (kDecide, kTxnCommitSpan, ...); its args are
// named by the kind table (obs/events.hpp).
#define PG_OBS_SPAN(var, kind) \
  ::pargreedy::obs::TraceSpan var(::pargreedy::obs::EventKind::kind)
#define PG_OBS_SPAN1(var, kind, a0)                                 \
  ::pargreedy::obs::TraceSpan var(::pargreedy::obs::EventKind::kind, \
                                  static_cast<uint64_t>(a0))
#define PG_OBS_SPAN2(var, kind, a0, a1)                             \
  ::pargreedy::obs::TraceSpan var(::pargreedy::obs::EventKind::kind, \
                                  static_cast<uint64_t>(a0),         \
                                  static_cast<uint64_t>(a1))
// Set a live PG_OBS_SPAN*'s second arg (an output) before it closes.
#define PG_OBS_SPAN_ARG(var, a1) var.set_arg1(static_cast<uint64_t>(a1))

// Labeled counter bump: the `name{lkey="lval"}` series. Uncached (one
// mutex + map lookup) — for cold per-batch paths only; labeled call
// sites ALSO keep bumping the unlabeled base series, so labels refine
// the catalog totals without replacing them.
#define PG_OBS_COUNT_L(name, lkey, lval, delta)                    \
  do {                                                             \
    if (::pargreedy::obs::enabled()) {                             \
      ::pargreedy::obs::MetricsRegistry::global()                  \
          .counter(name, lkey, lval)                               \
          .add(static_cast<uint64_t>(delta));                      \
    }                                                              \
  } while (0)

// Flight-recorder event (obs/events.hpp): one fixed-size record into the
// calling thread's ring. `kind` is an UNQUALIFIED event EventKind
// enumerator (kTxnBegin, kExchangeRound, ...); one relaxed load when the
// runtime switch is off, plain owner-thread stores + one relaxed
// publication store when on.
#define PG_OBS_EVENT(kind) \
  ::pargreedy::obs::record_event(::pargreedy::obs::EventKind::kind)
#define PG_OBS_EVENT1(kind, a0)                                      \
  ::pargreedy::obs::record_event(::pargreedy::obs::EventKind::kind,  \
                                 static_cast<uint64_t>(a0))
#define PG_OBS_EVENT2(kind, a0, a1)                                  \
  ::pargreedy::obs::record_event(::pargreedy::obs::EventKind::kind,  \
                                 static_cast<uint64_t>(a0),          \
                                 static_cast<uint64_t>(a1))

// Failure-path flight-recorder dump: when PARGREEDY_EVENTS_DIR is set,
// writes EVENTS_failure_<reason>_<seq>.json there (reason: a
// filename-safe string literal; seq: this process's dump count, capped
// at EventRecorder::kMaxFailureDumps). Call where the failure is
// DETECTED, before throwing, so the ring still holds the lead-up. Never
// throws.
#define PG_OBS_EVENT_DUMP(reason)                                  \
  do {                                                             \
    if (::pargreedy::obs::enabled()) {                             \
      ::pargreedy::obs::EventRecorder::global().dump_failure(      \
          reason);                                                 \
    }                                                              \
  } while (0)

// Correlation scopes (obs/events.hpp): RAII thread-local context every
// event records. BATCH assigns a fresh id only when none is open (inner
// engines inherit a sharded driver's id); TXN/SHARD set-and-restore.
#define PG_OBS_BATCH_SCOPE(var) ::pargreedy::obs::BatchScope var
#define PG_OBS_TXN_SCOPE(var, id) \
  ::pargreedy::obs::TxnScope var(static_cast<uint64_t>(id))
#define PG_OBS_SHARD_SCOPE(var, shard) \
  ::pargreedy::obs::ShardScope var(static_cast<uint32_t>(shard))

#else  // !PARGREEDY_OBS — every site compiles to nothing.

#define PG_OBS_COUNT(name, delta) ((void)0)
#define PG_OBS_GAUGE(name, value) ((void)0)
#define PG_OBS_HIST(name, value) ((void)0)
#define PG_OBS_SPAN(var, kind) ((void)0)
#define PG_OBS_SPAN1(var, kind, a0) ((void)0)
#define PG_OBS_SPAN2(var, kind, a0, a1) ((void)0)
#define PG_OBS_SPAN_ARG(var, a1) ((void)0)
#define PG_OBS_COUNT_L(name, lkey, lval, delta) ((void)0)
#define PG_OBS_EVENT(kind) ((void)0)
#define PG_OBS_EVENT1(kind, a0) ((void)0)
#define PG_OBS_EVENT2(kind, a0, a1) ((void)0)
#define PG_OBS_EVENT_DUMP(reason) ((void)0)
#define PG_OBS_BATCH_SCOPE(var) ((void)0)
#define PG_OBS_TXN_SCOPE(var, id) ((void)0)
#define PG_OBS_SHARD_SCOPE(var, shard) ((void)0)

#endif  // PARGREEDY_OBS

namespace pargreedy::obs {

// ---- Metric catalog (docs/OBSERVABILITY.md is the prose version) ----
// Engine batch rollups (subsume BatchStats via accumulate()):
inline constexpr char kEngineBatches[] = "engine.batches";
inline constexpr char kEngineInserted[] = "engine.inserted";
inline constexpr char kEngineDeleted[] = "engine.deleted";
inline constexpr char kEngineActivated[] = "engine.activated";
inline constexpr char kEngineDeactivated[] = "engine.deactivated";
inline constexpr char kEngineReweighted[] = "engine.reweighted";
inline constexpr char kEngineSeeds[] = "engine.seeds";
inline constexpr char kEngineRounds[] = "engine.rounds";
inline constexpr char kEngineRecomputed[] = "engine.recomputed";
inline constexpr char kEngineChanged[] = "engine.changed";
inline constexpr char kEngineCompacted[] = "engine.compacted";
// Repropagation wavefront:
inline constexpr char kReproBatchRounds[] = "repro.batch_rounds";
inline constexpr char kReproRoundFrontier[] = "repro.round_frontier";
inline constexpr char kReproRoundFlipped[] = "repro.round_flipped";
inline constexpr char kReproConeFanout[] = "repro.cone_fanout";
// Overlay maintenance:
inline constexpr char kOverlayCompactions[] = "overlay.compactions";
inline constexpr char kOverlaySlotsGrown[] = "overlay.slots_grown";
inline constexpr char kOverlaySlotsRevived[] = "overlay.slots_revived";
// Transaction life cycle:
inline constexpr char kTxnBegin[] = "txn.begin";
inline constexpr char kTxnApply[] = "txn.apply";
inline constexpr char kTxnSavepoint[] = "txn.savepoint";
inline constexpr char kTxnRollbackTo[] = "txn.rollback_to";
inline constexpr char kTxnCommit[] = "txn.commit";
inline constexpr char kTxnAbort[] = "txn.abort";
inline constexpr char kTxnAbortExplicit[] = "txn.abort.explicit";
inline constexpr char kTxnAbortDestructor[] = "txn.abort.destructor";
// Sharded engine boundary exchange (shard/sharded_engine.hpp):
inline constexpr char kShardBoundarySeeds[] = "shard.boundary_seeds";
inline constexpr char kShardConflictRetries[] = "shard.conflict_retries";
inline constexpr char kShardExchangeRounds[] = "shard.exchange_rounds";
// Lock-free published reads (txn/epoch.hpp, txn/published_state.hpp):
inline constexpr char kReaderPins[] = "reader.pins";
inline constexpr char kEpochReclaimed[] = "epoch.reclaimed";
inline constexpr char kReaderStaleDistance[] = "reader.stale_read_distance";
inline constexpr char kPublishedVersions[] = "published.versions";
inline constexpr char kPublishedChangedEntries[] =
    "published.changed_entries";
// Labeled {path="replayed"|"copied"|"fresh"}: how publish() got the
// buffer of each new version (txn/published_state.hpp).
inline constexpr char kPublishedBuffer[] = "published.buffer";
// Retired tables still held after each publish()'s final reclaim: grows
// while a reader stays pinned, and each one can keep an evicted version.
inline constexpr char kPublishedRetired[] = "published.retired";
// Paper-grounded health: observed repropagation depth vs the Θ(log n)
// theoretical round bound, in permille (1000 = ceil(log2 n) rounds). The
// gauge holds the last non-trivial batch; the histogram the distribution.
inline constexpr char kReproDepthRatio[] = "repro.depth_ratio";
inline constexpr char kReproDepthRatioDist[] = "repro.depth_ratio.dist";

#if PARGREEDY_OBS
/// Convenience: the global registry's current value of counter `name`
/// (0 when not yet registered). Benches use deltas of this.
inline uint64_t counter_value(const char* name) {
  return MetricsRegistry::global().counter_value(name);
}
#endif

}  // namespace pargreedy::obs
