// Undo logs: the state-capture seam the transactional layer (src/txn/)
// builds on.
//
// A transaction needs to take a checkpoint of a dynamic engine in O(dirty)
// — proportional to what the speculative batches actually touch, never to
// n + m. The representation already splits cleanly into shared immutable
// pages and mutable deltas: the OverlayGraph's base CSR (and the engine's
// initial solution derived from it) never mutates in place, so a
// checkpoint only has to capture the *changes* layered on top. That is
// what these journals record: while a journal is attached, every mutation
// of the delta state appends one inverse record, and rolling back replays
// the records in reverse. A checkpoint is therefore just a pair of record
// counts plus a handful of scalars (TxnMark) — O(1) to take, O(records
// since the mark) to restore.
//
// Two journals, because the state lives on two levels:
//
//   OverlayJournal  graph structure — edge kills/revivals, inserted-slot
//                   appends, in-place weight stores, the lazy
//                   unweighted -> weighted upgrades;
//   EngineJournal   engine decisions — solution-bit flips (recorded by
//                   repropagate() as it commits them), activity flips,
//                   cached-priority-key refreshes, per-slot array growth.
//
// Replay order: records within one journal are replayed newest-first,
// which makes the LIFO invariants hold (an inserted slot's append record
// is always undone after every record that referenced the slot). The two
// journals are independent — all records address state by stable index
// (vertex id, edge/slot id), so engine records never consult overlay
// structure and vice versa, and the transaction layer may replay them in
// either order.
//
// Compaction is the one mutation with no cheap inverse (it rebuilds the
// base CSR and reassigns every slot), so it is forbidden while a journal
// is attached: the engines defer auto-compaction to commit time and
// OverlayGraph::compact() checks.
//
// Concurrency contract: the journal types themselves carry no capability —
// a journal is only ever reached through an attaching pointer
// (OverlayGraph::journal_, the engines' txn_), and those pointers are
// annotated GUARDED_BY/PT_GUARDED_BY the owner's writer role. Every
// record()/truncate() call therefore already sits inside writer-held code,
// which is where -Wthread-safety checks it (see
// support/thread_annotations.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dynamic/batch_stats.hpp"
#include "graph/types.hpp"

namespace pargreedy {

/// One inverse record of an OverlayGraph mutation. `index` is a base edge
/// id, an extra-layer index, a slot, or a vertex id depending on the kind;
/// `old_weight` is only meaningful for the weight kinds.
struct OverlayUndoRecord {
  enum class Kind : uint8_t {
    kEraseBase,        ///< base edge was killed; undo revives it
    kEraseExtra,       ///< extra edge was killed; undo revives it
    kReviveBase,       ///< dead base edge was revived; undo re-kills it
    kReviveExtra,      ///< dead extra edge was revived; undo re-kills it
    kAppendExtra,      ///< a fresh slot was appended; undo pops it
    kSlotWeight,       ///< slot weight overwritten; undo restores old
    kVertexWeight,     ///< vertex weight overwritten; undo restores old
    kUpgradeEdgeWeighted,    ///< overlay became edge-weighted; undo clears
    kUpgradeVertexWeighted,  ///< overlay became vertex-weighted; undo clears
  };

  Kind kind;
  uint64_t index = 0;
  Weight old_weight = kDefaultWeight;
};

/// Append-only inverse log of OverlayGraph mutations. Owned by the
/// transaction layer, attached via OverlayGraph::set_journal(), replayed
/// by OverlayGraph::undo_to().
class OverlayJournal {
 public:
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  void record(OverlayUndoRecord::Kind kind, uint64_t index,
              Weight old_weight = kDefaultWeight) {
    records_.push_back({kind, index, old_weight});
  }

  [[nodiscard]] const OverlayUndoRecord& operator[](std::size_t i) const {
    return records_[i];
  }

  /// Drops every record at or past `mark` (OverlayGraph::undo_to replays
  /// them first).
  void truncate(std::size_t mark) { records_.resize(mark); }

 private:
  std::vector<OverlayUndoRecord> records_;
};

/// One inverse record of a dynamic-engine mutation. `item` is a VertexId
/// or an EdgeSlot (both fit in 64 bits); which fields are meaningful
/// depends on the kind.
struct EngineUndoRecord {
  enum class Kind : uint8_t {
    kDecision,  ///< solution bit flipped; old value in `flag`
    kActive,    ///< activity bit flipped; old value in `flag`
    kKey,       ///< cached priority key refreshed; old words in a/b
    kGrowth,    ///< per-item arrays grew; old size in `item`, undo shrinks
                ///< (only DynamicMatching's slot arrays grow)
  };

  Kind kind;
  uint8_t flag = 0;
  uint64_t item = 0;
  uint64_t old_a = 0;
  uint64_t old_b = 0;
};

/// Append-only inverse log of engine-level mutations (solution bits,
/// activity, cached keys, slot-array growth). repropagate() records
/// decision flips into it when one is attached.
class EngineJournal {
 public:
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  void record_decision(uint64_t item, bool old_value) {
    records_.push_back({EngineUndoRecord::Kind::kDecision,
                        static_cast<uint8_t>(old_value ? 1 : 0), item, 0, 0});
  }
  void record_active(uint64_t item, bool old_value) {
    records_.push_back({EngineUndoRecord::Kind::kActive,
                        static_cast<uint8_t>(old_value ? 1 : 0), item, 0, 0});
  }
  void record_key(uint64_t item, uint64_t old_primary,
                  uint64_t old_secondary) {
    records_.push_back(
        {EngineUndoRecord::Kind::kKey, 0, item, old_primary, old_secondary});
  }
  void record_growth(uint64_t old_size) {
    records_.push_back(
        {EngineUndoRecord::Kind::kGrowth, 0, old_size, 0, 0});
  }

  [[nodiscard]] const EngineUndoRecord& operator[](std::size_t i) const {
    return records_[i];
  }

  void truncate(std::size_t mark) { records_.resize(mark); }

 private:
  std::vector<EngineUndoRecord> records_;
};

/// The pair of journals a transaction attaches to one engine
/// (GreedyEngine::txn_attach). The engine forwards `overlay` to its
/// OverlayGraph and writes `engine` itself.
struct TxnJournal {
  EngineJournal engine;
  OverlayJournal overlay;
};

/// An O(1) checkpoint of a journaled engine: journal watermarks plus the
/// scalar state a rollback cannot reconstruct from the records alone.
/// Valid only while the journal it was taken against retains the records
/// above the marks (i.e. within the enclosing transaction).
struct TxnMark {
  std::size_t engine_records = 0;   ///< EngineJournal watermark
  std::size_t overlay_records = 0;  ///< OverlayJournal watermark
  uint64_t overlay_epoch = 0;       ///< OverlayGraph::epoch() at capture
  uint64_t engine_epoch = 0;        ///< engine epoch() at capture
  BatchStats lifetime;              ///< engine lifetime_stats() at capture
};

}  // namespace pargreedy
