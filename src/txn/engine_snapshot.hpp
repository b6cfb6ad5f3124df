// EngineSnapshot: a copy-on-write checkpoint of a dynamic engine's full
// state — (OverlayGraph, solution, cached priority keys, lifetime
// BatchStats) — taken in O(1) and restored in O(dirty).
//
// Nothing is copied eagerly: the engine's representation already divides
// into shared immutable pages (the base CSR and the initial solution
// derived from it) and mutable deltas (overlay layers, decision bits,
// cached keys), and while a transaction's undo journal is attached every
// delta mutation logs its inverse. A snapshot is therefore the journal
// watermark plus the scalar stamps a replay cannot reconstruct (epoch,
// lifetime stats) — the TxnMark — tagged with the owning
// transaction's id so a stale snapshot (taken in an earlier transaction,
// whose journal records are gone) is rejected instead of silently
// corrupting state.
//
// Snapshots are the transaction layer's savepoints: Transaction::begin()
// takes one implicitly, Transaction::savepoint() hands one out for nested
// speculative batches, and Transaction::rollback_to() restores one.
#pragma once

#include <cstdint>

#include "dynamic/batch_stats.hpp"
#include "dynamic/undo_log.hpp"

namespace pargreedy {

/// An O(1) engine checkpoint, valid within the transaction that produced
/// it (see file comment). Opaque to callers: hand it back to
/// Transaction::rollback_to(). A snapshot dies with its transaction and
/// also when the transaction rolls back *past* it (to an earlier
/// snapshot) — both misuses throw rather than restore a wrong state.
struct EngineSnapshot {
  TxnMark mark;              ///< journal watermark + scalar stamps
  uint64_t txn_id = 0;       ///< the transaction this snapshot belongs to
  uint64_t rollback_seq = 0; ///< rollbacks already performed at capture
                             ///< (validity check against later rewinds)
  BatchStats txn_stats;      ///< transaction-local counters at capture
};

}  // namespace pargreedy
