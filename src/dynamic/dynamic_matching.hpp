// DynamicMatching: a long-lived greedy (lexicographically-first) maximal
// matching under batched graph updates.
//
// Mirror image of DynamicMis, one level up: decisions live on *edges*, the
// priority DAG is the line-graph DAG (edges sharing an endpoint, directed
// earlier -> later), and repropagation pushes along incident edges. Both
// engines share one core (greedy_engine.hpp: state, queries, compaction,
// transactional seams, concurrency contract); this class holds the
// matching rules. Because edges come and go, priorities cannot be a fixed
// permutation; instead every edge's priority is the pure PrioritySource
// key of its canonical endpoint pair and weight,
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
// Per-edge state (membership bit, cached priority key) is keyed by
// OverlayGraph slot; compaction reassigns slots, so compact_impl() re-keys
// the state through the surviving matched pairs.
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
#include "dynamic/engine_api.hpp"
#include "dynamic/greedy_engine.hpp"
#include "dynamic/update_batch.hpp"
#include "graph/csr_graph.hpp"
#include "support/thread_annotations.hpp"

namespace pargreedy {

/// Batch-dynamic greedy maximal-matching engine (see file comment for the
/// priority scheme and the maintained invariant).
class DynamicMatching : public GreedyEngine<DynamicMatching, EdgeSlot> {
 public:
  /// Starts from `options.graph` with every vertex active; edge
  /// priorities come from `options.source` (edge_weight /
  /// weight_hash_tiebreak read the graph's edge weights — weighted greedy
  /// matching) and the initial matching is computed with the prefix
  /// kernel (mm_prefix, window max(1, m/50), as the static path uses).
  /// This is the only constructor; build options with the EngineOptions
  /// factories (engine_api.hpp).
  explicit DynamicMatching(EngineOptions options);

  /// True iff live edge {u, v} is currently in the matching.
  [[nodiscard]] bool matched(VertexId u, VertexId v) const;

  /// v's partner in the matching, or kInvalidVertex when unmatched.
  [[nodiscard]] VertexId matched_with(VertexId v) const;

  /// Per-vertex partner array over the full universe (kInvalidVertex for
  /// unmatched and inactive vertices) — comparable bit-for-bit with
  /// mm_sequential's matched_with on active_subgraph().
  [[nodiscard]] std::vector<VertexId> solution() const;

  /// The matched edges, canonical and sorted.
  [[nodiscard]] std::vector<Edge> matched_edges() const;

  /// Applies a batch (see UpdateBatch for intra-batch semantics) and
  /// repropagates to the new greedy fixpoint. Returns touch counters.
  BatchStats apply_batch(const UpdateBatch& batch)
      PARGREEDY_REQUIRES(writer_role_);

  /// The priority order this engine induces on the edges of `g` (reading
  /// g's edge weights under the weighted policies) — feed to mm_sequential
  /// for the from-scratch oracle.
  [[nodiscard]] EdgeOrder edge_order_for(const CsrGraph& g) const {
    return source_.edge_order(g);
  }

 private:
  friend class GreedyEngine<DynamicMatching, EdgeSlot>;

  /// True iff slot s is in the matching's graph: edge live, endpoints
  /// active.
  [[nodiscard]] bool slot_in_graph(EdgeSlot s) const;

  [[nodiscard]] bool decide(EdgeSlot s) const;
  void append_successors(EdgeSlot s, std::vector<EdgeSlot>& out) const;

  /// Endpoint-pair tie-break between slots with equal keys.
  [[nodiscard]] bool tie_less(EdgeSlot s, EdgeSlot t) const {
    return edge_pair_key(graph_.slot_edge(s)) <
           edge_pair_key(graph_.slot_edge(t));
  }

  /// Grows the per-slot state arrays to cover slot s, computing fresh
  /// priority keys.
  void cover_slot(EdgeSlot s) PARGREEDY_REQUIRES(writer_role_);

  /// Recomputes slot s's cached priority key from its current endpoints
  /// and weight (needed when a re-insert changes an edge's weight);
  /// returns true iff the key moved.
  bool refresh_slot(EdgeSlot s) PARGREEDY_REQUIRES(writer_role_) {
    return store_key(
        s, source_.edge_key(graph_.slot_edge(s), graph_.slot_weight(s)));
  }

  /// The shared compaction body plus the re-keying of the per-slot state
  /// through the surviving matched pairs.
  void compact_impl() PARGREEDY_REQUIRES(writer_role_, graph_.writer_role_);
};

}  // namespace pargreedy
