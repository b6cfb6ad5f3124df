// Transaction: speculative batch application with commit/abort semantics
// and versioned reads, on top of a dynamic engine.
//
//   DynamicMis engine(EngineOptions::seeded(g, seed));
//   MisTransaction txn(engine);
//   txn.begin();
//   txn.apply(batch_a);                    // engine serves the new state
//   EngineSnapshot sp = txn.savepoint();   // nested speculation point
//   txn.apply(batch_b);
//   txn.rollback_to(sp);                   // undo batch_b only
//   txn.commit();                          // batch_a becomes version v+1
//   ...
//   txn.begin(); txn.apply(what_if); txn.abort();   // state untouched
//
// Semantics:
//
//   begin()        attaches the undo journal and checkpoints the engine
//                  (O(1) — see EngineSnapshot). While a transaction is
//                  open, auto-compaction is deferred to commit.
//   apply(batch)   engine.apply_batch under the journal: the engine
//                  serves the speculative state immediately; every
//                  mutation logs its inverse.
//   savepoint() /  nested speculative batches: a savepoint is an O(1)
//   rollback_to()  checkpoint inside the transaction; rollback_to replays
//                  the undo journal down to it (strictly LIFO: rolling
//                  back to an earlier savepoint invalidates later ones).
//   commit()       publishes the new state as version version()+1 —
//                  the previous version patched with the entries the
//                  journal's decision records name, written into a
//                  released version's buffer replayed forward
//                  (O(changed); one flat copy when it cannot be) —
//                  then empties the journal and runs the deferred
//                  compaction check.
//   abort()        replays the undo journal back to begin(): overlay,
//                  solution, cached priority keys, activity, and lifetime
//                  stats are restored bit-exactly (the differential suite
//                  asserts this against never-applied twins).
//
// Versioned reads — lock-free, from any thread, at any time: read(v)
// returns a self-contained ReadView (txn/read_view.hpp) served from the
// *published state* (txn/published_state.hpp): at construction the
// writer copies the engine's solution out as version 0, and at every
// commit() it patches the newest version into an immutable checksummed
// PublishedVersion and swaps in the retained window with one atomic
// exchange. A read pins an epoch (RAII, one CAS + one store — no mutex,
// no wait on in-flight speculation, no blocking of the writer) and
// copies out of the immutable table.
// Every observable value equals some committed version in
// [oldest_version(), version()] — never speculative or aborted state —
// and versions older than oldest_version() have been evicted (reads
// throw CheckFailure). docs/CONCURRENCY.md is the prose contract.
//
// The published window is the only committed history: version ids come
// from it, and it retains the newest `retention` + 1 versions (reads
// reach back `retention` commits).
//
// Staleness guard: the wrapper records the engine's epoch stamp after
// every commit/abort. Mutating the engine directly (bypassing the
// wrapper) between transactions changes the epoch without a commit —
// begin() checks and throws CheckFailure. The read APIs do NOT
// check: they serve the last *published* state regardless of what the
// engine has been put through (stale-bounded by design, and immune to
// writer races). While a transaction is open, direct engine mutations
// are journaled like apply() calls (the journal is attached to the
// engine, not to this object), so they are rolled back by abort() but
// bypass txn_stats().
//
// Thread safety: the mutating calls are single-writer; the versioned
// reads above are safe from any number of concurrent reader threads
// even *during* writer calls. Other engine queries (engine().solution()
// etc.) keep the old contract: safe only between writer calls.
//
// That contract is machine-checked (see support/thread_annotations.hpp):
// the wrapper owns a public `writer_role_` capability required by every
// mutating call (begin/apply/rollback_to/commit/abort), and each body
// acquires the wrapped engine's writer role — and, in commit(), the
// published state's — for its scope, so the analysis verifies the whole
// writer path down through the engine and overlay layers. The reader path
// needs no capability at all (the epoch pin acquires the published
// state's shared reader role internally), which is the machine-checked
// statement that reads never take the writer role or any lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dynamic/batch_stats.hpp"
#include "dynamic/undo_log.hpp"
#include "dynamic/update_batch.hpp"
#include "obs/obs.hpp"
#include "support/check.hpp"
#include "support/thread_annotations.hpp"
#include "txn/engine_snapshot.hpp"
#include "txn/engine_traits.hpp"
#include "txn/published_state.hpp"
#include "txn/read_view.hpp"

namespace pargreedy {

/// Commits a versioned read can reach back through by default.
inline constexpr std::size_t kDefaultVersionRetention = 8;

/// Transactional wrapper around one dynamic engine (see file comment).
/// Non-copyable and non-movable: while a transaction is open the engine
/// holds a pointer to this object's journal.
template <typename Traits>
class Transaction {
 public:
  using Engine = typename Traits::Engine;
  using Value = typename Traits::Value;
  using Solution = std::vector<Value>;

  /// The wrapper's single-writer capability: one thread drives
  /// begin/apply/commit while holding it (by protocol; see file comment).
  support::Role writer_role_;

  /// Wraps `engine`, adopting its current state as version 0 (published
  /// immediately, so readers have a baseline before the first commit —
  /// the one full solution copy; commits publish patches of it).
  /// Versioned reads reach back `retention` commits, so the published
  /// window holds `retention` + 1 versions. The engine must outlive the
  /// wrapper; route all mutations through it from here on (the epoch
  /// guard catches violations).
  explicit Transaction(Engine& engine,
                       std::size_t retention = kDefaultVersionRetention)
      : engine_(engine),
        published_(retention + 1, engine.epoch(), Traits::solution(engine)),
        expected_epoch_(engine.epoch()) {}

  /// An open transaction is aborted (state restored) on destruction.
  /// (Destructors are outside the thread-safety analysis; by protocol the
  /// destroying thread is the writer.)
  ~Transaction() PARGREEDY_NO_THREAD_SAFETY_ANALYSIS {
    if (active_) abort_impl(AbortCause::kDestructor);
  }

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// True iff begin() was called without a matching commit()/abort().
  /// (Writer state — meaningful on the writer thread only.)
  [[nodiscard]] bool in_transaction() const { return active_; }

  /// The newest committed version (0 = the adopted baseline). Lock-free;
  /// callable from any thread.
  [[nodiscard]] uint64_t version() const {
    return published_.latest_version();
  }

  /// The oldest version solution_at() can still read. Lock-free;
  /// callable from any thread.
  [[nodiscard]] uint64_t oldest_version() const {
    return published_.oldest_version();
  }

  /// The wrapped engine — valid for queries at any time; the state it
  /// reports while a transaction is open is the speculative one.
  [[nodiscard]] const Engine& engine() const { return engine_; }

  /// Counters accumulated by this transaction's apply() calls so far.
  /// Checked: a transaction is open.
  [[nodiscard]] const BatchStats& txn_stats() const {
    PG_CHECK_MSG(active_, "txn_stats() outside a transaction");
    return txn_stats_;
  }

  /// Opens a transaction: O(1) checkpoint + journal attach. Checked: no
  /// transaction is open and the engine was not mutated externally.
  void begin() PARGREEDY_REQUIRES(writer_role_) {
    PG_CHECK_MSG(!active_, "a transaction is already in progress");
    check_epoch();
    PG_OBS_COUNT(obs::kTxnBegin, 1);
    PG_OBS_COUNT_L(obs::kTxnBegin, "engine", Traits::kName, 1);
    PG_OBS_TXN_SCOPE(corr_txn, txn_id_ + 1);  // the id this begin() opens
    PG_OBS_SPAN(span_begin, kTxnBeginSpan);
    support::RoleScope engine_writer(engine_.writer_role_);
    engine_.txn_attach(&journal_);
    active_ = true;
    ++txn_id_;
    PG_OBS_EVENT(kTxnBegin);
    base_ = engine_.txn_mark();
    txn_stats_ = BatchStats{};
    rollback_marks_.clear();
  }

  /// Applies a batch speculatively (engine serves the result
  /// immediately). Checked: a transaction is open.
  BatchStats apply(const UpdateBatch& batch)
      PARGREEDY_REQUIRES(writer_role_) {
    PG_CHECK_MSG(active_, "apply() outside begin()");
    PG_OBS_COUNT(obs::kTxnApply, 1);
    PG_OBS_TXN_SCOPE(corr_txn, txn_id_);
    PG_OBS_SPAN1(span_apply, kTxnApplySpan, batch.size());
    support::RoleScope engine_writer(engine_.writer_role_);
    const BatchStats stats = engine_.apply_batch(batch);
    txn_stats_.accumulate(stats);
    return stats;
  }

  /// An O(1) checkpoint inside the open transaction, for nested
  /// speculative batches. Invalidated by rolling back past it and by the
  /// transaction ending (both checked in rollback_to).
  [[nodiscard]] EngineSnapshot savepoint() const
      PARGREEDY_REQUIRES(writer_role_) {
    PG_CHECK_MSG(active_, "savepoint() outside a transaction");
    PG_OBS_COUNT(obs::kTxnSavepoint, 1);
    support::RoleScope engine_writer(engine_.writer_role_);
    return {engine_.txn_mark(), txn_id_,
            static_cast<uint64_t>(rollback_marks_.size()), txn_stats_};
  }

  /// Replays the undo journal down to `snapshot`, restoring the engine
  /// bit-exactly to that point; later savepoints become invalid (LIFO).
  /// Checked: the snapshot was taken in the currently open transaction
  /// and no earlier rollback rewound past it — a stale snapshot's
  /// watermark may fall mid-way through unrelated later records, so
  /// restoring it would silently corrupt state. Rolling back to the same
  /// snapshot repeatedly is fine (its watermark stays exact).
  void rollback_to(const EngineSnapshot& snapshot)
      PARGREEDY_REQUIRES(writer_role_) {
    PG_CHECK_MSG(active_, "rollback_to() outside a transaction");
    PG_CHECK_MSG(snapshot.txn_id == txn_id_,
                 "snapshot from transaction " << snapshot.txn_id
                                              << " used in transaction "
                                              << txn_id_);
    for (std::size_t i = snapshot.rollback_seq; i < rollback_marks_.size();
         ++i) {
      PG_CHECK_MSG(rollback_marks_[i] >= snapshot.mark.records,
                   "snapshot was invalidated by an earlier rollback_to() "
                   "that rewound past it");
    }
    PG_OBS_COUNT(obs::kTxnRollbackTo, 1);
    PG_OBS_TXN_SCOPE(corr_txn, txn_id_);
    PG_OBS_SPAN(span_rollback, kTxnRollbackToSpan);
    support::RoleScope engine_writer(engine_.writer_role_);
    engine_.txn_rollback(snapshot.mark);
    rollback_marks_.push_back(snapshot.mark.records);
    txn_stats_ = snapshot.txn_stats;
  }

  /// Makes the speculative state durable as version version()+1 and
  /// returns the new version: publishes it as a patch of the previous
  /// version (O(changed entries) when a released buffer can be replayed
  /// forward, one flat copy otherwise — see txn/published_state.hpp),
  /// then empties the journal and runs the deferred compaction check.
  /// Strong exception safety for the publication: a throw while gathering
  /// the changes or building the version leaves the transaction open and
  /// the published window unchanged, so abort() restores the engine. A
  /// throw from the deferred compaction propagates after the version is
  /// published and the transaction closed; compaction is all-or-nothing,
  /// so the engine keeps its committed, uncompacted state and the next
  /// begin() works.
  uint64_t commit() PARGREEDY_REQUIRES(writer_role_) {
    PG_CHECK_MSG(active_, "commit() outside a transaction");
    PG_OBS_COUNT(obs::kTxnCommit, 1);
    PG_OBS_COUNT_L(obs::kTxnCommit, "engine", Traits::kName, 1);
    PG_OBS_TXN_SCOPE(corr_txn, txn_id_);
    PG_OBS_EVENT1(kTxnCommit, journal_.size());
    PG_OBS_SPAN1(span_commit, kTxnCommitSpan, journal_.size());
    support::RoleScope engine_writer(engine_.writer_role_);
    // The publication point, first: it reads the journal (and matching's
    // slot endpoints, which the compaction below re-keys), and one atomic
    // swap inside publish() shows the new version to concurrent readers.
    // Compaction changes only overlay layout, never a solution value.
    // begin() found the journal empty, so all of it is this transaction's.
    support::RoleScope published_writer(published_.writer_role_);
    const uint64_t version = published_.writer_latest_version() + 1;
    published_.publish(version, engine_.epoch(),
                       Traits::changed_entries(engine_, journal_));
    journal_.truncate(0);
    engine_.txn_detach();
    active_ = false;
    // Refreshed on both sides of the deferred compaction: if it throws,
    // the stamp already matches the committed engine.
    expected_epoch_ = engine_.epoch();
    engine_.compact_if_needed();  // deferred from the journaled applies
    expected_epoch_ = engine_.epoch();
    return version;
  }

  /// Discards the transaction: replays the undo journal back to begin().
  /// Overlay, solution, cached keys, activity and lifetime stats are
  /// restored bit-exactly; the published window is untouched.
  void abort() PARGREEDY_REQUIRES(writer_role_) {
    abort_impl(AbortCause::kExplicit);
  }

  /// The unified committed-read entry point: a self-contained view of
  /// version `v` (default: the newest committed version) — independent
  /// of any in-flight transaction (speculation is never published;
  /// nothing blocks or aborts). Lock-free: the view is acquired under a
  /// short epoch pin and then owns its version, safe from any thread
  /// even during writer calls, holdable across later commits. Checked:
  /// `v` within [oldest_version(), version()]. committed_solution() and
  /// solution_at() are copying conveniences over this call.
  [[nodiscard]] ReadView<Value> read(uint64_t v = kLatestVersion) const {
    return ReadView<Value>(published_.acquire(v));
  }

  /// The last committed solution by value; equals read().to_vector().
  [[nodiscard]] Solution committed_solution() const {
    return read().to_vector();
  }

  /// The solution at committed version `v` by value; equals
  /// read(v).to_vector().
  [[nodiscard]] Solution solution_at(uint64_t v) const {
    return read(v).to_vector();
  }

  /// The published committed window — for readers that want zero-copy
  /// access under their own ReadGuard, checksum validation, or version
  /// metadata (see txn/published_state.hpp).
  [[nodiscard]] const PublishedState<Value>& published_state() const {
    return published_;
  }

 private:
  // The abort-cause split feeds the txn.abort.* counters: an explicit
  // abort is a speculation outcome (what-if discarded, conflict retry),
  // a destructor abort is a dropped-on-the-floor transaction — worth
  // telling apart on a dashboard.
  enum class AbortCause { kExplicit, kDestructor };

  void abort_impl(AbortCause cause) PARGREEDY_REQUIRES(writer_role_) {
    PG_CHECK_MSG(active_, "abort() outside a transaction");
    PG_OBS_COUNT(obs::kTxnAbort, 1);
    PG_OBS_COUNT_L(obs::kTxnAbort, "engine", Traits::kName, 1);
    if (cause == AbortCause::kExplicit) {
      PG_OBS_COUNT(obs::kTxnAbortExplicit, 1);
    } else {
      PG_OBS_COUNT(obs::kTxnAbortDestructor, 1);
    }
    PG_OBS_TXN_SCOPE(corr_txn, txn_id_);
    PG_OBS_EVENT1(kTxnAbort, cause == AbortCause::kExplicit ? 1 : 0);
    PG_OBS_SPAN1(span_abort, kTxnAbortSpan, journal_.size());
    support::RoleScope engine_writer(engine_.writer_role_);
    engine_.txn_rollback(base_);
    engine_.txn_detach();
    active_ = false;
    expected_epoch_ = engine_.epoch();
  }

  void check_epoch() const {
    if (engine_.epoch() != expected_epoch_) {
      // Failure path: dump the flight recorder before throwing, so the
      // events leading to the external mutation survive for post-mortem.
      PG_OBS_EVENT2(kTxnEpochFail, engine_.epoch(), expected_epoch_);
      PG_OBS_EVENT_DUMP("epoch_guard");
    }
    PG_CHECK_MSG(engine_.epoch() == expected_epoch_,
                 "engine was mutated outside this Transaction (epoch "
                     << engine_.epoch() << ", expected " << expected_epoch_
                     << "); its version history is invalid — construct a "
                        "fresh Transaction");
  }

  Engine& engine_;
  // Empty between transactions: commit empties it and abort replays it
  // down to begin()'s watermark, 0.
  UndoJournal journal_;
  PublishedState<Value> published_;  // committed history; lock-free reads
  uint64_t expected_epoch_;  // engine epoch after the last commit/abort
  uint64_t txn_id_ = 0;      // guards savepoints across transactions
  bool active_ = false;
  TxnMark base_;             // begin() checkpoint of the open transaction
  BatchStats txn_stats_;     // accumulated over the open transaction
  // Journal watermarks of every rollback_to() in the open transaction, in
  // order — a savepoint is valid iff no later rollback rewound below its
  // own watermark (checked in rollback_to).
  std::vector<std::size_t> rollback_marks_;
};

/// Transactional wrapper for the dynamic MIS engine.
using MisTransaction = Transaction<MisTxnTraits>;

/// Transactional wrapper for the dynamic matching engine.
using MatchingTransaction = Transaction<MatchingTxnTraits>;

}  // namespace pargreedy
