// OverlayGraph: a mutable adjacency view layered over an immutable
// CsrGraph.
//
// The base CSR stays untouched; mutations are recorded as deltas:
//
//   * deletions of base edges    -> a dead bit per base edge id,
//   * inserted edges             -> an append-only extra edge array plus a
//                                   per-vertex extra adjacency list (with
//                                   its own dead bits, so a deleted insert
//                                   can be revived in place).
//
// Every live edge has a stable *slot*: base edges keep their CsrGraph edge
// id, inserted edges get slots base_edges + i. Engines key per-edge state
// (matching membership, cached priorities) by slot. When the delta grows
// past a caller-chosen fraction of the base, compact() folds everything
// back into a fresh CSR — slots are reassigned, so engines must re-key
// their per-edge state after compaction (DynamicMatching does exactly
// that).
//
// Weights: when the base CSR carries edge weights — or any insert supplies
// an explicit weight — the overlay maintains a weight per slot
// (slot_weight), preserves weights across compact(), and attaches them to
// every CSR it produces (to_csr, active_subgraph). Both edge and vertex
// weights are mutable in place (set_edge_weight / set_vertex_weight — no
// slot churn): vertex weights are owned by the overlay, seeded from the
// base CSR, and likewise stamped onto every snapshot and preserved across
// compact(). Purely unweighted overlays allocate no weight storage.
//
// Undo hooks: the transactional layer attaches its UndoJournal
// (set_journal) and every mutation appends its inverse record; the
// engine's rollback replays the journal newest-first and hands each
// overlay record to undo(), restoring the overlay bit-exactly — see
// undo_log.hpp for the record catalogue and the O(dirty)-checkpoint
// argument. compact() has no inverse and therefore refuses to run while a
// journal is attached.
//
// Concurrency contract (machine-checked): one writer, many readers. The
// mutators may only be called by the single thread driving the overlay;
// the const queries are safe from any number of threads *between* writer
// calls. The writer side is modelled as the `writer_role_` capability
// (see support/thread_annotations.hpp): every mutator requires it, the
// engines acquire it for the scope of their own writer entry points, and
// under clang -Wthread-safety a mutator call from a code path that does
// not hold the role — e.g. a reader-side helper — fails to compile.
//
// Queries are O(degree) scans; the overlay is optimized for batch sizes
// small relative to the graph, which is the regime where the dynamic
// engines beat recomputation anyway.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dynamic/undo_log.hpp"
#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "graph/types.hpp"
#include "support/thread_annotations.hpp"

namespace pargreedy {

/// Stable identifier of a live edge inside an OverlayGraph.
using EdgeSlot = uint64_t;

inline constexpr EdgeSlot kInvalidSlot = ~EdgeSlot{0};

/// Mutable adjacency view over an immutable CSR base (see the file
/// comment for the delta representation, the slot contract, and weight
/// handling).
class OverlayGraph {
 public:
  /// The single-writer capability: every mutator requires it exclusively.
  /// A zero-cost token for clang's -Wthread-safety analysis — by protocol,
  /// whoever drives mutations acquires it (support::RoleScope) for the
  /// scope of each writer entry point. Public because the capability *is*
  /// part of the public contract: callers name it to declare themselves
  /// the writer.
  support::Role writer_role_;

  /// An empty overlay over an empty graph.
  OverlayGraph() = default;

  /// Wraps `base`: every base edge is live, slots are its CSR edge ids,
  /// and its vertex/edge weights (if any) seed the overlay's.
  explicit OverlayGraph(CsrGraph base);

  /// Number of vertices n (fixed for the overlay's lifetime).
  [[nodiscard]] uint64_t num_vertices() const noexcept {
    return base_.num_vertices();
  }

  /// Number of live (not deleted) edges, base + inserted.
  [[nodiscard]] uint64_t num_live_edges() const { return live_edges_; }

  /// Exclusive upper bound on slot values; size per-slot state arrays to
  /// this. Grows monotonically until compact().
  [[nodiscard]] EdgeSlot slot_bound() const noexcept {
    return base_.num_edges() + extra_edges_.size();
  }

  /// True iff the undirected edge {u, v} is currently live.
  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const {
    return find_slot(u, v) != kInvalidSlot;
  }

  /// Slot of live edge {u, v}, or kInvalidSlot when absent.
  [[nodiscard]] EdgeSlot find_slot(VertexId u, VertexId v) const;

  /// Canonical endpoints of a slot (valid for dead slots too, until
  /// compact()).
  [[nodiscard]] Edge slot_edge(EdgeSlot s) const;

  /// True iff the slot currently holds a live edge.
  [[nodiscard]] bool slot_live(EdgeSlot s) const;

  /// Calls fn(neighbor, slot) for every live edge incident on v. Base
  /// edges first (CSR order), then inserted edges (insertion order).
  /// Precondition (unchecked, hot path): v < num_vertices().
  template <typename Fn>
  void for_incident(VertexId v, Fn&& fn) const {
    const auto nbrs = base_.neighbors(v);
    const auto eids = base_.incident_edges(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i)
      if (!base_dead_[eids[i]]) fn(nbrs[i], static_cast<EdgeSlot>(eids[i]));
    for (const auto& [w, idx] : extra_adj_[v])
      if (!extra_dead_[idx]) fn(w, base_.num_edges() + idx);
  }

  /// Like for_incident, but fn returns bool and iteration stops at the
  /// first false (early exit for decision predicates). Returns false iff
  /// fn did.
  template <typename Fn>
  bool for_incident_while(VertexId v, Fn&& fn) const {
    const auto nbrs = base_.neighbors(v);
    const auto eids = base_.incident_edges(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i)
      if (!base_dead_[eids[i]] &&
          !fn(nbrs[i], static_cast<EdgeSlot>(eids[i])))
        return false;
    for (const auto& [w, idx] : extra_adj_[v])
      if (!extra_dead_[idx] && !fn(w, base_.num_edges() + idx)) return false;
    return true;
  }

  /// Live degree of v (counts both layers).
  [[nodiscard]] uint64_t live_degree(VertexId v) const;

  /// Inserts {u, v} with weight `w`; returns the slot, or kInvalidSlot
  /// when the edge was already live (no-op). Reuses the dead slot when the
  /// edge existed before — the stored weight is overwritten with `w`, so a
  /// re-insert can change an edge's weight. Self loops are rejected.
  /// Passing a non-default weight switches the overlay to weighted
  /// (has_edge_weights() becomes true).
  EdgeSlot insert_edge(VertexId u, VertexId v, Weight w = kDefaultWeight)
      PARGREEDY_REQUIRES(writer_role_);

  /// Weight of the edge in slot s (valid for dead slots too, until
  /// compact()); kDefaultWeight when the overlay is unweighted.
  [[nodiscard]] Weight slot_weight(EdgeSlot s) const;

  /// Sets the weight of live edge {u, v} in place — the slot keeps its
  /// identity, so engines only refresh cached priority keys, never re-key
  /// state. Returns the slot, or kInvalidSlot when the edge is not live
  /// (no-op). A non-default weight switches the overlay to edge-weighted.
  EdgeSlot set_edge_weight(VertexId u, VertexId v, Weight w)
      PARGREEDY_REQUIRES(writer_role_);

  /// Same, addressed by slot — for callers that already resolved the
  /// O(degree) find_slot lookup. Precondition (checked): s is a stored
  /// slot.
  void set_slot_weight(EdgeSlot s, Weight w) PARGREEDY_REQUIRES(writer_role_);

  /// Sets the weight of vertex v in place. The new weight reaches every
  /// snapshot (to_csr / active_subgraph) and survives compact(). A
  /// non-default weight switches the overlay to vertex-weighted.
  void set_vertex_weight(VertexId v, Weight w)
      PARGREEDY_REQUIRES(writer_role_);

  /// True iff per-slot edge weights are being maintained.
  [[nodiscard]] bool has_edge_weights() const { return edge_weighted_; }

  /// True iff per-vertex weights are being maintained (seeded from the
  /// base CSR, or by the first set_vertex_weight).
  [[nodiscard]] bool has_vertex_weights() const { return vertex_weighted_; }

  /// Weight of vertex v; kDefaultWeight when unweighted.
  [[nodiscard]] Weight vertex_weight(VertexId v) const {
    return vertex_weighted_ ? vertex_weights_[v] : kDefaultWeight;
  }

  /// Deletes {u, v}; returns the slot it occupied, or kInvalidSlot when
  /// the edge was not live (no-op).
  EdgeSlot erase_edge(VertexId u, VertexId v) PARGREEDY_REQUIRES(writer_role_);

  /// Fraction of the structure living in the delta layers: (inserted
  /// slots + dead base edges) / max(1, base edges). The compaction
  /// trigger.
  [[nodiscard]] double overlay_fraction() const;

  /// Snapshot of the live edge set (canonical, unsorted).
  [[nodiscard]] EdgeList live_edge_list() const;

  /// The live graph as a fresh immutable CSR (normalized edge order).
  [[nodiscard]] CsrGraph to_csr() const;

  /// Live edges with both endpoints marked active, over the full vertex
  /// universe — the dynamic engines' oracle view (inactive vertices
  /// become isolated). `active` must have num_vertices() entries.
  [[nodiscard]] CsrGraph active_subgraph(
      std::span<const uint8_t> active) const;

  /// Folds the deltas into a fresh base CSR. Invalidates all slots.
  /// Checked: forbidden while a journal is attached (no cheap inverse).
  void compact() PARGREEDY_REQUIRES(writer_role_);

  /// The current base CSR (excluding deltas) — for introspection/tests.
  [[nodiscard]] const CsrGraph& base() const { return base_; }

  /// Attaches (or, with nullptr, detaches) the transactional undo log:
  /// while attached, every mutation appends its inverse record and
  /// compact() is forbidden. The journal is owned by the caller (the
  /// transaction layer) and must outlive the attachment.
  void set_journal(UndoJournal* journal) PARGREEDY_REQUIRES(writer_role_) {
    journal_ = journal;
  }

  /// Undoes one overlay record. Records must be undone newest-first, each
  /// against the state its mutation left (GreedyEngine::txn_rollback
  /// replays the journal that way). Checked: `r` has an overlay kind.
  void undo(const UndoRecord& r) PARGREEDY_REQUIRES(writer_role_);

  // ---- Frontier tracking (sharding support) ---------------------------
  //
  // When a partition labelling is installed, the overlay maintains a
  // per-vertex count of live *cross-partition* edges, updated at every
  // liveness flip (insert, erase, undo replay; compact() preserves the
  // live edge set, so counts survive it unchanged). The sharded engine
  // (src/shard/) uses this to track its boundary cone incrementally: a
  // vertex is "on the frontier" exactly while it has at least one live
  // edge whose endpoints are owned by different shards — an O(1) query
  // instead of an O(degree) rescan per exchange round.

  /// Installs partition labels (one per vertex) and scans the live edge
  /// set once to seed the cross-partition counters; subsequent mutations
  /// keep them exact. Checked: one label per vertex, no journal attached
  /// (enable before the transaction layer takes over — replay of records
  /// written pre-enable would desynchronize the counters).
  void enable_frontier_tracking(std::vector<uint32_t> part)
      PARGREEDY_REQUIRES(writer_role_);

  /// True once enable_frontier_tracking has installed labels.
  [[nodiscard]] bool frontier_tracking() const noexcept {
    return !part_.empty();
  }

  /// Number of live edges incident on v whose other endpoint lives in a
  /// different partition. Precondition: frontier_tracking().
  [[nodiscard]] uint64_t cross_degree(VertexId v) const {
    return cross_deg_[v];
  }

 private:
  /// Slot of edge {u, v} in either layer regardless of liveness, or
  /// kInvalidSlot when the edge was never stored. Probes the lower-degree
  /// endpoint (both layers store every edge under both endpoints).
  [[nodiscard]] EdgeSlot locate(const Edge& e) const;

  /// Materializes the per-slot weight arrays (lazy: unweighted overlays
  /// carry none until the first weighted insert).
  void ensure_edge_weights() PARGREEDY_REQUIRES(writer_role_);

  /// Stores weight w at an existing slot (no validation/upgrade — the
  /// public mutators wrap this).
  void store_slot_weight(EdgeSlot s, Weight w)
      PARGREEDY_REQUIRES(writer_role_);

  /// Live edges (optionally filtered to both-endpoints-active) as a
  /// weighted CSR, weights carried from the slots. `active` may be empty
  /// (no filter).
  [[nodiscard]] CsrGraph gather_csr(std::span<const uint8_t> active) const;

  /// Applies a liveness flip of edge `e` (+1 live / -1 dead) to the
  /// cross-partition counters. No-op unless frontier tracking is on.
  void track_edge(const Edge& e, int delta) PARGREEDY_REQUIRES(writer_role_) {
    if (part_.empty() || part_[e.u] == part_[e.v]) return;
    cross_deg_[e.u] = static_cast<uint64_t>(
        static_cast<int64_t>(cross_deg_[e.u]) + delta);
    cross_deg_[e.v] = static_cast<uint64_t>(
        static_cast<int64_t>(cross_deg_[e.v]) + delta);
  }

  CsrGraph base_;
  std::vector<uint8_t> base_dead_;   // per base edge id
  std::vector<Edge> extra_edges_;    // inserted edges, canonical
  std::vector<uint8_t> extra_dead_;  // parallel to extra_edges_
  bool edge_weighted_ = false;       // slot weights are maintained
  std::vector<Weight> base_weights_;   // per base edge id (when weighted)
  std::vector<Weight> extra_weights_;  // parallel to extra_edges_ (same)
  bool vertex_weighted_ = false;       // vertex weights are maintained
  std::vector<Weight> vertex_weights_;  // per vertex (when weighted)
  // Per-vertex inserted adjacency: (neighbor, index into extra_edges_).
  std::vector<std::vector<std::pair<VertexId, uint32_t>>> extra_adj_;
  uint64_t live_edges_ = 0;
  uint64_t dead_base_ = 0;  // dead extra slots need no counter: they stay
                            // inside extra_edges_.size() for the
                            // overlay_fraction trigger
  // Frontier tracking (empty = disabled): partition label per vertex and
  // live cross-partition degree per vertex, maintained at every liveness
  // flip (see the public accessors above).
  std::vector<uint32_t> part_;
  std::vector<uint64_t> cross_deg_;
  // Attached undo log (not owned). Guarded — pointer and pointee — by
  // the writer role: only writer-held code reads or appends records.
  UndoJournal* journal_ PARGREEDY_GUARDED_BY(writer_role_)
      PARGREEDY_PT_GUARDED_BY(writer_role_) = nullptr;
};

}  // namespace pargreedy
