// GreedyEngine: the state and code DynamicMis and DynamicMatching share.
//
// Greedy matching is greedy MIS on the line graph (§5 of the source
// paper), and both engines maintain their solution the same way: one
// decision byte per item (a vertex for MIS, an overlay edge slot for
// matching) over an OverlayGraph, items compared by cached two-word
// PriorityKeys, and repropagate() (repropagate.hpp) restoring the greedy
// fixpoint after each batch. This CRTP base holds that state, the queries
// on it, compaction, the transactional seams with their one journal
// replay, and the apply_batch epilogue. A derived engine supplies its
// greedy rules, called statically (nothing on a per-item path is
// virtual):
//
//   bool decide(Item) const             the greedy decision from the
//                                       stored state;
//   void append_successors(Item, std::vector<Item>&) const
//                                       the later items a flip can make
//                                       inconsistent (repropagate.hpp);
//   bool tie_less(Item, Item) const     the order of two items with equal
//                                       keys;
//
// plus the seeding rule for each update kind in its apply_batch. An
// engine whose per-item state is keyed by overlay slot hides
// compact_impl() with one that re-keys it (DynamicMatching).
//
// Concurrency contract (machine-checked): one writer, many readers. The
// mutators (apply_batch, compact, the txn_* seams) may only be called by
// the single writer thread and require the engine's `writer_role_`
// capability; the const queries are safe from any number of reader
// threads between writer calls. The engine in turn acquires its
// OverlayGraph's writer role for the scope of each mutator; see
// support/thread_annotations.hpp and docs/STATIC_ANALYSIS.md. Readers
// that need committed state *during* writer calls go through a
// Transaction's lock-free published view (txn/published_state.hpp,
// docs/CONCURRENCY.md); the engine's own queries are not safe then.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/priority/priority_source.hpp"
#include "dynamic/batch_stats.hpp"
#include "dynamic/overlay_graph.hpp"
#include "dynamic/repropagate.hpp"
#include "dynamic/undo_log.hpp"
#include "graph/csr_graph.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "support/check.hpp"
#include "support/thread_annotations.hpp"

namespace pargreedy {

/// The shared core of the batch-dynamic greedy engines (see file comment).
/// `Item` is VertexId (DynamicMis) or EdgeSlot (DynamicMatching).
template <typename Derived, typename Item>
class GreedyEngine {
 public:
  /// The engine's single-writer capability: every mutator requires it
  /// exclusively (zero-cost; see support/thread_annotations.hpp). The
  /// thread driving updates acquires it (support::RoleScope) around its
  /// writer calls; under clang -Wthread-safety an unheld mutator call is
  /// a compile error.
  support::Role writer_role_;

  [[nodiscard]] uint64_t num_vertices() const noexcept {
    return graph_.num_vertices();
  }
  [[nodiscard]] uint64_t num_edges() const noexcept {
    return graph_.num_live_edges();
  }

  /// True iff v is currently part of the graph.
  [[nodiscard]] bool active(VertexId v) const noexcept {
    return active_[v] != 0;
  }

  /// Number of items in the solution (MIS vertices, matched edges).
  [[nodiscard]] uint64_t size() const {
    return static_cast<uint64_t>(reduce_add<int64_t>(
        0, static_cast<int64_t>(decision_.size()), [&](int64_t i) {
          return decision_[static_cast<std::size_t>(i)] ? 1 : 0;
        }));
  }

  /// The live graph including edges at inactive vertices (overlay state).
  [[nodiscard]] const OverlayGraph& graph() const { return graph_; }

  /// The policy the priorities derive from (random_hash(seed) for
  /// EngineOptions::seeded).
  [[nodiscard]] const PrioritySource& priority_source() const {
    return source_;
  }

  /// Monotonic engine-state stamp: bumped by every apply_batch and
  /// compaction, restored by txn_rollback. Equal epochs on one engine
  /// mean no mutation happened in between — the staleness guard behind
  /// the transaction layer's versioned reads.
  [[nodiscard]] uint64_t epoch() const noexcept { return epoch_; }

  /// Counters accumulated over every apply_batch since construction
  /// (part of the transactional checkpoint: restored on rollback).
  [[nodiscard]] const BatchStats& lifetime_stats() const noexcept {
    return lifetime_stats_;
  }

  /// The oracle's view: live edges with both endpoints active, over the
  /// full vertex universe (inactive vertices become isolated).
  [[nodiscard]] CsrGraph active_subgraph() const {
    return graph_.active_subgraph(active_);
  }

  /// The cached priority key of item i — the words earlier() compares.
  /// Checked: i is covered.
  [[nodiscard]] PriorityKey cached_key(Item i) const {
    PG_CHECK_MSG(i < pri_.size(), "item " << i << " not covered");
    return {pri_[i], pri2_.empty() ? 0 : pri2_[i]};
  }

  /// Overlay fraction above which apply_batch folds the deltas back into
  /// the base CSR. <= 0 disables auto-compaction. Default 0.5.
  void set_compaction_threshold(double fraction)
      PARGREEDY_REQUIRES(writer_role_) {
    compact_threshold_ = fraction;
  }

  /// Forces compaction now. Checked: forbidden while a transaction
  /// journal is attached (compaction has no cheap inverse).
  void compact() PARGREEDY_REQUIRES(writer_role_) {
    support::RoleScope overlay_writer(graph_.writer_role_);
    derived_compact_impl();
  }

  /// Runs the auto-compaction check apply_batch normally runs (skipped
  /// while a journal is attached); returns true iff it compacted. The
  /// transaction layer calls this after detaching at commit.
  bool compact_if_needed() PARGREEDY_REQUIRES(writer_role_) {
    support::RoleScope overlay_writer(graph_.writer_role_);
    return compact_if_needed_impl();
  }

  /// Sharding seam: installs partition labels on the underlying overlay
  /// so it maintains live cross-partition degrees incrementally (see
  /// OverlayGraph::enable_frontier_tracking). Must run before a
  /// transaction attaches a journal (checked there).
  void enable_frontier_tracking(std::vector<uint32_t> part)
      PARGREEDY_REQUIRES(writer_role_) {
    support::RoleScope overlay_writer(graph_.writer_role_);
    graph_.enable_frontier_tracking(std::move(part));
  }

  // Transactional seams — called by txn::Transaction (see
  // src/txn/transaction.hpp); not part of the everyday API.

  /// Attaches the undo journal to the engine and its overlay: subsequent
  /// mutations at both levels append inverse records to it, in mutation
  /// order, and auto-compaction is deferred. Checked: not already
  /// attached. The journal must outlive the attachment.
  void txn_attach(UndoJournal* journal) PARGREEDY_REQUIRES(writer_role_) {
    support::RoleScope overlay_writer(graph_.writer_role_);
    PG_CHECK_MSG(journal != nullptr, "txn_attach(nullptr)");
    PG_CHECK_MSG(txn_ == nullptr, "a transaction journal is already attached");
    txn_ = journal;
    graph_.set_journal(journal);
  }

  /// Detaches the journal (records are NOT replayed — commit path).
  void txn_detach() PARGREEDY_REQUIRES(writer_role_) {
    support::RoleScope overlay_writer(graph_.writer_role_);
    PG_CHECK_MSG(txn_ != nullptr, "no transaction journal attached");
    txn_ = nullptr;
    graph_.set_journal(nullptr);
  }

  /// O(1) checkpoint of the current state: journal watermark + scalar
  /// stamps. Checked: a journal is attached. Writer-side (it reads the
  /// journal attachment), hence the capability requirement.
  [[nodiscard]] TxnMark txn_mark() const PARGREEDY_REQUIRES(writer_role_) {
    PG_CHECK_MSG(txn_ != nullptr, "txn_mark requires an attached journal");
    return {txn_->size(), epoch_, lifetime_stats_};
  }

  /// Replays the journal newest-first down to `mark` — the one replay
  /// loop: engine records are undone here, overlay records by the
  /// overlay — restoring the engine bit-exactly to the checkpointed state
  /// (solution, activity, cached keys, per-item array sizes, overlay,
  /// epoch, lifetime stats).
  void txn_rollback(const TxnMark& mark) PARGREEDY_REQUIRES(writer_role_) {
    support::RoleScope overlay_writer(graph_.writer_role_);
    PG_CHECK_MSG(txn_ != nullptr, "txn_rollback requires an attached journal");
    UndoJournal& journal = *txn_;
    PG_CHECK_MSG(mark.records <= journal.size(),
                 "undo mark " << mark.records << " beyond journal size "
                              << journal.size());
    for (std::size_t i = journal.size(); i-- > mark.records;) {
      const UndoRecord& r = journal[i];
      switch (r.kind) {
        case UndoRecord::Kind::kDecision:
          decision_[r.index] = r.flag;
          break;
        case UndoRecord::Kind::kActive:
          active_[r.index] = r.flag;
          break;
        case UndoRecord::Kind::kKey:
          // Key records of items appended after a growth record are
          // replayed before it truncates them away, so these writes
          // always hit live entries.
          pri_[r.index] = r.old_a;
          if (!pri2_.empty()) pri2_[r.index] = r.old_b;
          break;
        case UndoRecord::Kind::kGrowth:
          pri_.resize(r.index);
          if (!pri2_.empty()) pri2_.resize(r.index);
          decision_.resize(r.index);
          break;
        default:  // an overlay kind
          graph_.undo(r);
      }
    }
    journal.truncate(mark.records);
    epoch_ = mark.epoch;
    lifetime_stats_ = mark.lifetime;
  }

 protected:
  [[nodiscard]] Derived& self() { return static_cast<Derived&>(*this); }
  [[nodiscard]] const Derived& self() const {
    return static_cast<const Derived&>(*this);
  }

  /// Sizes the cached keys to `count` items and computes item i's from
  /// key_of(i) (parallel; unjournaled — construction and compaction).
  template <typename KeyOf>
  void fill_keys(uint64_t count, KeyOf&& key_of) {
    pri_.resize(count);
    if (source_.has_secondary_word()) pri2_.resize(count);
    parallel_for(0, static_cast<int64_t>(count), [&](int64_t i) {
      const PriorityKey k = key_of(static_cast<Item>(i));
      pri_[static_cast<std::size_t>(i)] = k.primary;
      if (!pri2_.empty()) pri2_[static_cast<std::size_t>(i)] = k.secondary;
    });
  }

  /// Stores item i's key, journaling the old one. Returns false, writing
  /// and journaling nothing, when the key is unchanged (always the case
  /// for a reweight under random_hash).
  bool store_key(Item i, PriorityKey k) PARGREEDY_REQUIRES(writer_role_) {
    const PriorityKey old = cached_key(i);
    if (k == old) return false;
    if (txn_) txn_->record_key(i, old.primary, old.secondary);
    pri_[i] = k.primary;
    if (!pri2_.empty()) pri2_[i] = k.secondary;
    return true;
  }

  /// Sets v's activity, journaling the old value. Returns false, writing
  /// and journaling nothing, when v already has it.
  bool store_active(VertexId v, bool on) PARGREEDY_REQUIRES(writer_role_) {
    if ((active_[v] != 0) == on) return false;
    if (txn_) txn_->record_active(v, !on);
    active_[v] = on ? 1 : 0;
    return true;
  }

  /// True iff item a strictly precedes b: cached keys, then the engine's
  /// tie-break.
  [[nodiscard]] bool earlier(Item a, Item b) const {
    if (pri_[a] != pri_[b]) return pri_[a] < pri_[b];
    if (!pri2_.empty() && pri2_[a] != pri2_[b]) return pri2_[a] < pri2_[b];
    return self().tie_less(a, b);
  }

  /// earlier(a, b) with a ranked by `key_a` instead of its cached key —
  /// how a reweight compares an item's old rank with its neighbours'.
  [[nodiscard]] bool earlier(Item a, PriorityKey key_a, Item b) const {
    const PriorityKey key_b = cached_key(b);
    return key_a != key_b ? key_a < key_b : self().tie_less(a, b);
  }

  /// The apply_batch epilogue: repropagates from `seeds` to the greedy
  /// fixpoint, runs the compaction check (deferred under a journal),
  /// bumps the epoch and accounts the batch under the obs series `label`.
  void finish_batch(std::vector<Item> seeds, BatchStats& stats,
                    const char* label)
      PARGREEDY_REQUIRES(writer_role_, graph_.writer_role_) {
    repropagate(std::move(seeds), Repro{self()}, decision_.size() + 1, stats,
                txn_);
    if (compact_if_needed_impl()) stats.compacted = true;
    ++epoch_;
    lifetime_stats_.accumulate(stats);
    obs_accumulate_batch(stats, label, num_vertices());
    PG_OBS_EVENT2(kBatchEnd, stats.rounds, stats.changed);
  }

  /// Compaction body: folds the overlay into a fresh base CSR (checks no
  /// journal is attached). Requires both writer roles (the public entries
  /// acquire the overlay's).
  void compact_impl() PARGREEDY_REQUIRES(writer_role_, graph_.writer_role_) {
    graph_.compact();
    ++epoch_;
  }

  bool compact_if_needed_impl()
      PARGREEDY_REQUIRES(writer_role_, graph_.writer_role_) {
    // Deferred while a journal is attached: compaction has no cheap
    // inverse, so transactions compact at commit, after detaching.
    if (txn_ != nullptr || compact_threshold_ <= 0 ||
        graph_.overlay_fraction() <= compact_threshold_)
      return false;
    derived_compact_impl();
    return true;
  }

  /// Dispatches to the engine's compact_impl(). Through a cast, not
  /// self(): -Wthread-safety sees through a cast to this->writer_role_,
  /// not through a call.
  void derived_compact_impl()
      PARGREEDY_REQUIRES(writer_role_, graph_.writer_role_) {
    static_cast<Derived*>(this)->compact_impl();
  }

  OverlayGraph graph_;
  PrioritySource source_;
  std::vector<uint8_t> active_;    // per vertex
  std::vector<uint8_t> decision_;  // per item: in the solution
  std::vector<uint64_t> pri_;      // per item: priority key, primary word
  std::vector<uint64_t> pri2_;     // per item: secondary word; empty (and
                                   // skipped in earlier()) for single-word
                                   // policies
  double compact_threshold_ = 0.5;
  uint64_t epoch_ = 0;             // bumped per apply_batch/compact;
                                   // restored by txn_rollback
  BatchStats lifetime_stats_;      // accumulated over apply_batch calls
  // Attached transaction journal (not owned; the overlay holds the same
  // pointer); nullptr outside transactions. Pointer and pointee are
  // writer-role state: only held code reads the attachment or appends
  // records.
  UndoJournal* txn_ PARGREEDY_GUARDED_BY(writer_role_)
      PARGREEDY_PT_GUARDED_BY(writer_role_) = nullptr;

 private:
  friend Derived;  // only the engine itself derives from and builds a core

  explicit GreedyEngine(PrioritySource source) : source_(std::move(source)) {}

  // The repropagation rounds' view of the engine (see repropagate.hpp).
  struct Repro {
    Derived& e;
    [[nodiscard]] bool decide(Item i) const { return e.decide(i); }
    [[nodiscard]] bool current(Item i) const { return e.decision_[i] != 0; }
    void commit(Item i, bool value) const { e.decision_[i] = value ? 1 : 0; }
    void append_successors(Item i, std::vector<Item>& out) const {
      e.append_successors(i, out);
    }
  };
};

}  // namespace pargreedy
