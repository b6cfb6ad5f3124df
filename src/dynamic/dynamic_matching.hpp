// DynamicMatching: a long-lived greedy (lexicographically-first) maximal
// matching under batched graph updates.
//
// Mirror image of DynamicMis, one level up: decisions live on *edges*, the
// priority DAG is the line-graph DAG (edges sharing an endpoint, directed
// earlier -> later), and repropagation pushes along incident edges. Because
// edges come and go, priorities cannot be a fixed permutation; instead
// every edge's priority is the pure PrioritySource key of its canonical
// endpoint pair and weight,
//
//   pri{u, v} = (source.edge_key({u, v}, w), (u << 32) | v),
//
// compared lexicographically (the final endpoint-pair tie-break makes the
// order total even across hash collisions and equal weights). For the
// default random-hash policy the key is hash64(seed, (u << 32) | v) — the
// paper's uniformly random order; the edge-weight policies put heavier
// edges first (weighted greedy matching). A re-inserted edge with the same
// weight therefore gets the *same* priority it had before — the solution
// depends only on (live edge set, edge weights, active vertices, policy),
// never on update history, which is what makes the from-scratch oracle
// comparison exact: edge_order_for(H) materializes the same order as an
// EdgeOrder over any CSR snapshot H (weights included), and
//
//   matched_with() == mm_sequential(H, edge_order_for(H)).matched_with
//
// where H = active_subgraph() (checked by the differential tests).
//
// Concurrency contract (machine-checked): one writer, many readers —
// identical to DynamicMis. Mutators require the engine's `writer_role_`
// capability; const queries are reader-safe between writer calls; the
// engine acquires its OverlayGraph's writer role inside each mutator.
// See support/thread_annotations.hpp and docs/STATIC_ANALYSIS.md. For
// committed reads that must be safe *during* writer calls, use a
// Transaction's lock-free published view (txn/published_state.hpp,
// docs/CONCURRENCY.md).
//
// Per-edge state (membership bit, cached priority key) is keyed by
// OverlayGraph slot; compaction reassigns slots, so apply_batch re-keys
// the state through the surviving matched pairs when it compacts.
//
// Reweights: a batch edge reweight changes the slot's weight in place (no
// slot churn) and refreshes only that slot's cached key; if the key moved,
// the slot — plus, when it was matched, the incident edges whose order
// with it flipped (the only ones it blocks differently) — seeds
// repropagation. Under policies whose keys ignore
// edge weights (random_hash) a reweight is a provable no-op: zero seeds,
// zero rounds. Vertex reweights never touch edge priorities; the stored
// weight just reaches future snapshots.
#pragma once

#include <cstdint>
#include <vector>

#include "core/matching/edge_order.hpp"
#include "core/priority/priority_source.hpp"
#include "dynamic/engine_api.hpp"
#include "dynamic/overlay_graph.hpp"
#include "dynamic/repropagate.hpp"
#include "dynamic/undo_log.hpp"
#include "dynamic/update_batch.hpp"
#include "graph/csr_graph.hpp"
#include "support/thread_annotations.hpp"

namespace pargreedy {

/// Batch-dynamic greedy maximal-matching engine (see file comment for the
/// priority scheme and the maintained invariant).
class DynamicMatching {
 public:
  /// The engine's single-writer capability (see DynamicMis::writer_role_).
  support::Role writer_role_;

  /// Starts from `options.graph` with every vertex active; edge
  /// priorities come from `options.source` (edge_weight /
  /// weight_hash_tiebreak read the graph's edge weights — weighted greedy
  /// matching) and the initial matching is computed with the prefix
  /// kernel (mm_prefix, window max(1, m/50), as the static path uses).
  /// This is the only constructor; build options with the EngineOptions
  /// factories (engine_api.hpp).
  explicit DynamicMatching(EngineOptions options);

  [[nodiscard]] uint64_t num_vertices() const noexcept {
    return graph_.num_vertices();
  }
  [[nodiscard]] uint64_t num_edges() const noexcept {
    return graph_.num_live_edges();
  }

  /// True iff live edge {u, v} is currently in the matching.
  [[nodiscard]] bool matched(VertexId u, VertexId v) const;

  /// v's partner in the matching, or kInvalidVertex when unmatched.
  [[nodiscard]] VertexId matched_with(VertexId v) const;

  /// True iff v is currently part of the graph.
  [[nodiscard]] bool active(VertexId v) const noexcept {
    return active_[v] != 0;
  }

  /// Per-vertex partner array over the full universe (kInvalidVertex for
  /// unmatched and inactive vertices) — comparable bit-for-bit with
  /// mm_sequential's matched_with on active_subgraph().
  [[nodiscard]] std::vector<VertexId> solution() const;

  /// The matched edges, canonical and sorted.
  [[nodiscard]] std::vector<Edge> matched_edges() const;

  /// Number of matched edges.
  [[nodiscard]] uint64_t size() const;

  /// Applies a batch (see UpdateBatch for intra-batch semantics) and
  /// repropagates to the new greedy fixpoint. Returns touch counters.
  BatchStats apply_batch(const UpdateBatch& batch)
      PARGREEDY_REQUIRES(writer_role_);

  /// Overlay fraction above which apply_batch folds the deltas back into
  /// the base CSR. <= 0 disables auto-compaction. Default 0.5.
  void set_compaction_threshold(double fraction)
      PARGREEDY_REQUIRES(writer_role_) {
    compact_threshold_ = fraction;
  }

  /// Forces compaction now (re-keys per-edge state). Checked: forbidden
  /// while a transaction journal is attached.
  void compact() PARGREEDY_REQUIRES(writer_role_);

  /// Runs the auto-compaction check apply_batch normally runs (skipped
  /// while a journal is attached); returns true iff it compacted. The
  /// transaction layer calls this after detaching at commit.
  bool compact_if_needed() PARGREEDY_REQUIRES(writer_role_);

  /// The cached priority key of slot s — the words earlier() compares.
  /// Checked: s is a covered slot.
  [[nodiscard]] PriorityKey cached_slot_key(EdgeSlot s) const;

  /// Monotonic engine-state stamp: bumped by every apply_batch and
  /// compaction, restored by txn_rollback (see DynamicMis::epoch).
  [[nodiscard]] uint64_t epoch() const noexcept { return epoch_; }

  /// Counters accumulated over every apply_batch since construction
  /// (part of the transactional checkpoint: restored on rollback).
  [[nodiscard]] const BatchStats& lifetime_stats() const noexcept {
    return lifetime_stats_;
  }

  // Transactional seams — called by txn::Transaction (see
  // src/txn/transaction.hpp); not part of the everyday API.

  /// Attaches the undo journal (see DynamicMis::txn_attach).
  void txn_attach(TxnJournal* txn) PARGREEDY_REQUIRES(writer_role_);

  /// Detaches the journal without replaying (commit path).
  void txn_detach() PARGREEDY_REQUIRES(writer_role_);

  /// O(1) checkpoint: journal watermarks + scalar stamps. Writer-side (it
  /// reads the journal attachment), hence the capability requirement.
  [[nodiscard]] TxnMark txn_mark() const PARGREEDY_REQUIRES(writer_role_);

  /// Replays both journals newest-first down to `mark`, restoring the
  /// engine bit-exactly (matching bits, activity, cached keys, per-slot
  /// array sizes, overlay, epochs, lifetime stats).
  void txn_rollback(const TxnMark& mark) PARGREEDY_REQUIRES(writer_role_);

  /// The hash seed the edge priorities derive from (0 for pure-weight
  /// policies).
  [[nodiscard]] uint64_t seed() const { return source_.seed(); }

  /// The policy the edge priorities derive from.
  [[nodiscard]] const PrioritySource& priority_source() const {
    return source_;
  }

  /// The priority order this engine induces on the edges of `g` (reading
  /// g's edge weights under the weighted policies) — feed to mm_sequential
  /// for the from-scratch oracle.
  [[nodiscard]] EdgeOrder edge_order_for(const CsrGraph& g) const;

  /// The live graph including edges at inactive vertices (overlay state).
  [[nodiscard]] const OverlayGraph& graph() const { return graph_; }

  /// Sharding seam: installs partition labels on the underlying overlay
  /// so it maintains live cross-partition degrees incrementally (see
  /// OverlayGraph::enable_frontier_tracking). Must run before a
  /// transaction attaches a journal (checked there).
  void enable_frontier_tracking(std::vector<uint32_t> part)
      PARGREEDY_REQUIRES(writer_role_) {
    support::RoleScope overlay_writer(graph_.writer_role_);
    graph_.enable_frontier_tracking(std::move(part));
  }

  /// The oracle's view: live edges with both endpoints active.
  [[nodiscard]] CsrGraph active_subgraph() const;

 private:
  friend struct MmReproEngine;

  /// True iff slot s is in the matching's graph: edge live, endpoints
  /// active.
  [[nodiscard]] bool slot_in_graph(EdgeSlot s) const;

  /// Priority comparison: s strictly earlier than t.
  [[nodiscard]] bool earlier(EdgeSlot s, EdgeSlot t) const;

  /// earlier(s, t) with s ranked by `key_s` instead of its cached key —
  /// how a reweight compares an edge's old rank with its neighbours'.
  [[nodiscard]] bool earlier(EdgeSlot s, PriorityKey key_s, EdgeSlot t) const;

  [[nodiscard]] bool decide(EdgeSlot s) const;

  /// Grows the per-slot state arrays to cover slot s, computing fresh
  /// priority keys.
  void cover_slot(EdgeSlot s) PARGREEDY_REQUIRES(writer_role_);

  /// Recomputes slot s's cached priority key from its current endpoints
  /// and weight (needed when a re-insert changes an edge's weight).
  void refresh_slot(EdgeSlot s) PARGREEDY_REQUIRES(writer_role_);

  /// Compaction bodies shared by compact()/compact_if_needed()/
  /// apply_batch; require both the engine's and the overlay's writer role
  /// (the public entries acquire the overlay's).
  void compact_impl() PARGREEDY_REQUIRES(writer_role_, graph_.writer_role_);
  bool compact_if_needed_impl()
      PARGREEDY_REQUIRES(writer_role_, graph_.writer_role_);

  OverlayGraph graph_;
  PrioritySource source_;
  std::vector<uint8_t> active_;
  std::vector<uint8_t> in_m_;    // per slot: edge in matching
  std::vector<uint64_t> pri_;    // per slot: priority key, primary word
  std::vector<uint64_t> pri2_;   // per slot: secondary word; empty (and
                                 // skipped in earlier()) for single-word
                                 // policies
  double compact_threshold_ = 0.5;
  uint64_t epoch_ = 0;             // bumped per apply_batch/compact;
                                   // restored by txn_rollback
  BatchStats lifetime_stats_;      // accumulated over apply_batch calls
  // Attached transaction journal (not owned); nullptr outside
  // transactions. Pointer and pointee are writer-role state: only held
  // code reads the attachment or appends records.
  TxnJournal* txn_ PARGREEDY_GUARDED_BY(writer_role_)
      PARGREEDY_PT_GUARDED_BY(writer_role_) = nullptr;
};

}  // namespace pargreedy
