// DynamicMis: a long-lived lexicographically-first MIS under batched graph
// updates.
//
// Holds a graph (OverlayGraph: CSR base + mutation deltas), a vertex
// priority order pi — random by default, or produced by any PrioritySource
// policy (e.g. decreasing vertex weight for the weighted greedy MIS) —
// and the current greedy MIS. apply_batch()
// mutates the graph and repropagates greedy decisions over the priority
// DAG until the solution is again *exactly* the one mis_sequential would
// compute from scratch on the updated graph under the same pi — but
// touching only the affected cone, which for random pi is shallow
// (Theorem 3.5 / Fischer–Noever). See repropagate.hpp for the round
// structure and determinism argument.
//
// Priorities under reweights: the comparisons run on cached per-vertex
// PriorityKeys (key, id tie-break — the identical total order the
// materialized VertexOrder would give), so a batch vertex reweight only
// refreshes the affected keys. It seeds the
// vertex and, when the vertex is IN, the active neighbours whose order
// with it flipped (an OUT vertex constrains nobody); under policies whose
// keys ignore vertex weights (random_hash) a reweight is a provable
// no-op — zero seeds, zero rounds. Edge reweights update the stored
// weight for snapshots but never touch vertex priorities.
//
// Concurrency contract (machine-checked): one writer, many readers. The
// mutators (apply_batch, compact, the txn_* seams) may only be called by
// the single writer thread and are annotated to require the engine's
// `writer_role_` capability; the const queries are safe from any number
// of reader threads between writer calls (order() being the documented
// exception). The engine in turn acquires its OverlayGraph's writer role
// for the scope of each mutator — see support/thread_annotations.hpp and
// docs/STATIC_ANALYSIS.md. Readers that need committed state *during*
// writer calls should go through a Transaction's published view
// (txn/published_state.hpp, docs/CONCURRENCY.md), which is lock-free
// and safe at any time — this engine's own queries are not.
//
// Vertex activity: the vertex universe [0, n) is fixed at construction;
// deactivating a vertex removes it (and implicitly its incident edges)
// from the *solution's* graph without forgetting its edges, activating it
// brings it back. in_set(v) is always false for an inactive vertex.
//
// Exact-equivalence invariant (checked by the differential tests): let H
// be the live graph restricted to edges with both endpoints active, as a
// CsrGraph over all n vertices (active_subgraph()). Then for every active
// v, in_set(v) == mis_sequential(H, order()).in_set[v]; inactive vertices
// are isolated in H and report in_set == false here.
#pragma once

#include <cstdint>
#include <vector>

#include "core/mis/mis.hpp"
#include "core/mis/vertex_order.hpp"
#include "core/priority/priority_source.hpp"
#include "dynamic/engine_api.hpp"
#include "dynamic/overlay_graph.hpp"
#include "dynamic/repropagate.hpp"
#include "dynamic/undo_log.hpp"
#include "dynamic/update_batch.hpp"
#include "graph/csr_graph.hpp"
#include "support/thread_annotations.hpp"

namespace pargreedy {

/// Batch-dynamic lexicographically-first MIS engine (see file comment for
/// the maintained invariant).
class DynamicMis {
 public:
  /// The engine's single-writer capability: every mutator requires it
  /// exclusively (zero-cost; see support/thread_annotations.hpp). The
  /// thread driving updates acquires it (support::RoleScope) around its
  /// writer calls; under clang -Wthread-safety an unheld mutator call is
  /// a compile error.
  support::Role writer_role_;

  /// Starts from `options.graph` with every vertex active; the initial
  /// solution is computed with the prefix kernel (mis_prefix, window
  /// max(1, n/50), as the static path uses). pi =
  /// options.source.vertex_order(graph) (the weighted policies read the
  /// graph's vertex weights — weighted greedy MIS). This is the only
  /// constructor; build options with the EngineOptions factories
  /// (engine_api.hpp).
  explicit DynamicMis(EngineOptions options);

  [[nodiscard]] uint64_t num_vertices() const noexcept {
    return graph_.num_vertices();
  }
  [[nodiscard]] uint64_t num_edges() const noexcept {
    return graph_.num_live_edges();
  }

  /// True iff v is currently in the maintained MIS.
  [[nodiscard]] bool in_set(VertexId v) const noexcept {
    return in_set_[v] != 0;
  }

  /// True iff v is currently part of the graph.
  [[nodiscard]] bool active(VertexId v) const noexcept {
    return active_[v] != 0;
  }

  /// The current priority order pi, materialized. Rebuilt lazily after
  /// vertex reweights change priority keys (the engine itself compares
  /// cached keys; this materialization exists for oracle recomputation).
  /// Concurrency note: the rebuild mutates internal state, so unlike the
  /// other const queries this accessor must not race with them while a
  /// rebuild is pending — call it once after apply_batch (or serialize
  /// externally) before reading the engine from other threads.
  [[nodiscard]] const VertexOrder& order() const;

  /// The policy pi was derived from (random_hash(seed) for
  /// EngineOptions::seeded).
  [[nodiscard]] const PrioritySource& priority_source() const {
    return source_;
  }

  /// The current solution as a membership bitmap (0 for inactive
  /// vertices) — bit-identical to the from-scratch oracle (see header
  /// comment).
  [[nodiscard]] std::vector<uint8_t> solution() const { return in_set_; }

  /// Number of vertices currently in the MIS.
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

  /// Forces compaction now. Checked: forbidden while a transaction
  /// journal is attached (compaction has no cheap inverse).
  void compact() PARGREEDY_REQUIRES(writer_role_);

  /// Runs the auto-compaction check apply_batch normally runs (skipped
  /// while a journal is attached); returns true iff it compacted. The
  /// transaction layer calls this after detaching at commit.
  bool compact_if_needed() PARGREEDY_REQUIRES(writer_role_);

  /// The cached priority key of v — the words earlier() compares.
  [[nodiscard]] PriorityKey cached_vertex_key(VertexId v) const {
    return {vpri_[v], vpri2_.empty() ? 0 : vpri2_[v]};
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

  // Transactional seams — called by txn::Transaction (see
  // src/txn/transaction.hpp); not part of the everyday API.

  /// Attaches the undo journal: subsequent mutations append inverse
  /// records and auto-compaction is deferred. Checked: not already
  /// attached. The journal must outlive the attachment.
  void txn_attach(TxnJournal* txn) PARGREEDY_REQUIRES(writer_role_);

  /// Detaches the journal (records are NOT replayed — commit path).
  void txn_detach() PARGREEDY_REQUIRES(writer_role_);

  /// O(1) checkpoint of the current state: journal watermarks + scalar
  /// stamps. Checked: a journal is attached. Writer-side (it reads the
  /// journal attachment), hence the capability requirement.
  [[nodiscard]] TxnMark txn_mark() const PARGREEDY_REQUIRES(writer_role_);

  /// Replays both journals newest-first down to `mark`, restoring the
  /// engine bit-exactly to the checkpointed state (solution, activity,
  /// cached keys, overlay, epochs, lifetime stats).
  void txn_rollback(const TxnMark& mark) PARGREEDY_REQUIRES(writer_role_);

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

  /// The oracle's view: live edges with both endpoints active, over the
  /// full vertex universe (inactive vertices become isolated).
  [[nodiscard]] CsrGraph active_subgraph() const;

 private:
  friend struct MisReproEngine;

  [[nodiscard]] bool decide(VertexId v) const;

  /// Compaction bodies shared by compact()/compact_if_needed()/
  /// apply_batch; require both the engine's and the overlay's writer role
  /// (the public entries acquire the overlay's).
  void compact_impl() PARGREEDY_REQUIRES(writer_role_, graph_.writer_role_);
  bool compact_if_needed_impl()
      PARGREEDY_REQUIRES(writer_role_, graph_.writer_role_);

  /// True iff a strictly precedes b in pi: compares the cached keys (id
  /// tie-break) — the same total order the materialized VertexOrder
  /// gives, but robust to reweights.
  [[nodiscard]] bool earlier(VertexId a, VertexId b) const {
    if (vpri_[a] != vpri_[b]) return vpri_[a] < vpri_[b];
    if (!vpri2_.empty() && vpri2_[a] != vpri2_[b])
      return vpri2_[a] < vpri2_[b];
    return a < b;
  }

  /// earlier(a, b) with a ranked by `key_a` instead of its cached key —
  /// how a reweight compares a vertex's old rank with its neighbours'.
  [[nodiscard]] bool earlier(VertexId a, PriorityKey key_a, VertexId b) const;

  OverlayGraph graph_;
  mutable VertexOrder order_;      // lazily re-materialized after reweights
  mutable bool order_stale_ = false;
  PrioritySource source_;
  std::vector<uint64_t> vpri_;   // per vertex: priority key, primary word
  std::vector<uint64_t> vpri2_;  // per vertex: secondary word; empty (and
                                 // skipped in earlier()) for single-word
                                 // policies
  std::vector<uint8_t> active_;
  std::vector<uint8_t> in_set_;
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
