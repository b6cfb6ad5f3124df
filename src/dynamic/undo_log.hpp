// Undo journal: the state-capture seam the transactional layer (src/txn/)
// builds on.
//
// A transaction needs to take a checkpoint of a dynamic engine in O(dirty)
// — proportional to what the speculative batches actually touch, never to
// n + m. The representation already splits cleanly into shared immutable
// pages and mutable deltas: the OverlayGraph's base CSR (and the engine's
// initial solution derived from it) never mutates in place, so a
// checkpoint only has to capture the *changes* layered on top. That is
// what the journal records: while it is attached, every mutation of the
// delta state appends one inverse record, and rolling back replays the
// records in reverse. A checkpoint is therefore one record count plus a
// handful of scalars (TxnMark) — O(1) to take, O(records since the mark)
// to restore.
//
// One journal for both levels of state. The overlay and the engine append
// to the same UndoJournal, in mutation order:
//
//   overlay kinds  graph structure — edge kills/revivals, inserted-slot
//                  appends, in-place weight stores, the lazy
//                  unweighted -> weighted upgrades;
//   engine kinds   engine decisions — solution-bit flips (recorded by
//                  repropagate() as it commits them), activity flips,
//                  cached-priority-key refreshes, per-slot array growth.
//
// Replay order: GreedyEngine::txn_rollback is the one replay loop. It
// walks the records strictly newest-first across both levels, undoing
// engine kinds itself and handing overlay kinds to OverlayGraph::undo.
// Newest-first makes the LIFO invariants hold (an inserted slot's append
// record is undone after every record that referenced the slot; a growth
// record after the key records of the items it added), and it means every
// record is undone against exactly the state that followed its mutation:
// an engine undo may read overlay state, such as a slot's endpoints, and
// sees the overlay as it was when the record was written.
//
// Compaction is the one mutation with no cheap inverse (it rebuilds the
// base CSR and reassigns every slot), so it is forbidden while the journal
// is attached: the engines defer auto-compaction to commit time and
// OverlayGraph::compact() checks.
//
// Concurrency contract: the journal type itself carries no capability —
// it is only ever reached through an attaching pointer
// (OverlayGraph::journal_, the engines' txn_), and those pointers are
// annotated GUARDED_BY/PT_GUARDED_BY the owner's writer role. Every
// record()/truncate() call therefore already sits inside writer-held code,
// which is where -Wthread-safety checks it (see
// support/thread_annotations.hpp).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "dynamic/batch_stats.hpp"
#include "graph/types.hpp"

namespace pargreedy {

/// One inverse record of an overlay or engine mutation. Which fields are
/// meaningful depends on the kind.
struct UndoRecord {
  enum class Kind : uint8_t {
    // Overlay kinds, undone by OverlayGraph::undo. `index` is a base edge
    // id, an extra-layer index, a slot or a vertex id.
    kEraseBase,        ///< base edge was killed; undo revives it
    kEraseExtra,       ///< extra edge was killed; undo revives it
    kReviveBase,       ///< dead base edge was revived; undo re-kills it
    kReviveExtra,      ///< dead extra edge was revived; undo re-kills it
    kAppendExtra,      ///< a fresh slot was appended; undo pops it
    kSlotWeight,       ///< slot weight overwritten; undo restores old
    kVertexWeight,     ///< vertex weight overwritten; undo restores old
    kUpgradeEdgeWeighted,    ///< overlay became edge-weighted; undo clears
    kUpgradeVertexWeighted,  ///< overlay became vertex-weighted; undo clears
    // Engine kinds, undone by GreedyEngine::txn_rollback. `index` is a
    // VertexId or an EdgeSlot (both fit in 64 bits).
    kDecision,  ///< solution bit flipped; old value in `flag`
    kActive,    ///< activity bit flipped; old value in `flag`
    kKey,       ///< cached priority key refreshed; old words in a/b
    kGrowth,    ///< per-item arrays grew; old size in `index`, undo
                ///< shrinks (only DynamicMatching's slot arrays grow)
  };

  Kind kind;
  uint8_t flag = 0;
  uint64_t index = 0;
  uint64_t old_a = 0;  ///< old key's primary word, or the old weight's bits
  uint64_t old_b = 0;  ///< old key's secondary word

  /// The overwritten weight of a kSlotWeight / kVertexWeight record.
  [[nodiscard]] Weight old_weight() const {
    return std::bit_cast<Weight>(old_a);
  }
};

/// Append-only inverse log of overlay and engine mutations, in mutation
/// order. Owned by the transaction layer, attached through
/// GreedyEngine::txn_attach (which forwards it to the engine's
/// OverlayGraph), replayed by GreedyEngine::txn_rollback.
class UndoJournal {
 public:
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  [[nodiscard]] const UndoRecord& operator[](std::size_t i) const {
    return records_[i];
  }

  // Overlay record sites.
  void record(UndoRecord::Kind kind, uint64_t index) {
    records_.push_back({kind, 0, index, 0, 0});
  }
  void record(UndoRecord::Kind kind, uint64_t index, Weight old_weight) {
    records_.push_back(
        {kind, 0, index, std::bit_cast<uint64_t>(old_weight), 0});
  }

  // Engine record sites.
  void record_decision(uint64_t item, bool old_value) {
    records_.push_back({UndoRecord::Kind::kDecision,
                        static_cast<uint8_t>(old_value ? 1 : 0), item, 0, 0});
  }
  void record_active(uint64_t item, bool old_value) {
    records_.push_back({UndoRecord::Kind::kActive,
                        static_cast<uint8_t>(old_value ? 1 : 0), item, 0, 0});
  }
  void record_key(uint64_t item, uint64_t old_primary,
                  uint64_t old_secondary) {
    records_.push_back(
        {UndoRecord::Kind::kKey, 0, item, old_primary, old_secondary});
  }
  void record_growth(uint64_t old_size) {
    records_.push_back({UndoRecord::Kind::kGrowth, 0, old_size, 0, 0});
  }

  /// Drops every record at or past `mark` (after txn_rollback replayed
  /// them, or at commit, which drops them all).
  void truncate(std::size_t mark) { records_.resize(mark); }

 private:
  std::vector<UndoRecord> records_;
};

/// An O(1) checkpoint of a journaled engine: the journal watermark plus
/// the scalar state a rollback cannot reconstruct from the records alone.
/// Valid only while the journal it was taken against retains the records
/// above the mark (i.e. within the enclosing transaction).
struct TxnMark {
  std::size_t records = 0;  ///< UndoJournal watermark
  uint64_t epoch = 0;       ///< engine epoch() at capture
  BatchStats lifetime;      ///< engine lifetime_stats() at capture
};

}  // namespace pargreedy
