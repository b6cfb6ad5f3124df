// UpdateBatch: one round of mutations applied atomically to a dynamic
// greedy structure (DynamicMis / DynamicMatching).
//
// A batch mixes edge insertions, edge deletions, vertex deactivations and
// vertex activations. Application order within a batch is fixed and
// documented (see apply semantics below) so that a batch always describes a
// single well-defined next graph state:
//
//   1. deactivations     (vertex leaves the graph; its edges stop existing)
//   2. deletions         (edge removed if present)
//   3. insertions        (edge added if absent)
//   4. activations       (vertex re-enters with its surviving edges)
//   5. edge reweights    (in-place weight change of a then-live edge)
//   6. vertex reweights  (in-place weight change of any vertex)
//
// Consequences of the order: a delete+insert of the same edge in one batch
// ends with the edge present ("inserts win"); a deactivate+activate of the
// same vertex ends with the vertex active. Inserting an edge incident to a
// vertex that stays inactive is allowed — the edge is stored but does not
// take part in the solution until the vertex activates.
//
// Reweight precedence: reweights apply to the graph produced by steps
// 1–4, in queue order (the last reweight of an element wins). A reweight
// of an edge inserted in the same batch therefore overrides the insert's
// weight ("reweights win"); a reweight of an edge deleted in the same
// batch is a silent no-op (the weight leaves with the edge — a later
// re-insert carries the insert's own weight). Edge reweights target the
// *live* edge set, active or not: reweighting an edge with an inactive
// endpoint updates its stored weight and priority, which take effect when
// the endpoint activates. Vertex reweights always apply (the vertex
// universe is fixed), including to deactivated vertices — but an inactive
// vertex's priority cannot influence any decision, so such a reweight
// seeds no repropagation of its own. (When the same batch deactivates
// the vertex, the neighbours it blocked under its old priority are
// re-examined.)
//
// All edge endpoints are canonicalized (u < v) on entry; self loops are
// rejected. Operations that are no-ops against the current state (deleting
// an absent edge, inserting a present one, activating an active vertex,
// reweighting an absent edge or reweighting to the identical weight)
// are silently skipped and do not seed repropagation. A batch referencing
// any vertex >= n makes apply_batch throw CheckFailure before applying
// anything (the vertex universe is fixed at engine construction).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace pargreedy {

/// A mixed batch of graph updates. Build with the fluent add helpers, then
/// hand to DynamicMis::apply_batch / DynamicMatching::apply_batch.
class UpdateBatch {
 public:
  /// An empty batch (applying it is a no-op).
  UpdateBatch() = default;

  /// Queues insertion of undirected edge {u, v} with weight `w` (default:
  /// unweighted). Rejects self loops. The weight is stored on the edge and
  /// read by weighted priority policies; re-inserting a deleted edge with
  /// a different weight changes its priority.
  UpdateBatch& insert_edge(VertexId u, VertexId v, Weight w = kDefaultWeight);

  /// Queues deletion of undirected edge {u, v}. Rejects self loops.
  UpdateBatch& delete_edge(VertexId u, VertexId v);

  /// Queues activation of vertex v (re-enter the graph).
  UpdateBatch& activate(VertexId v);

  /// Queues deactivation of vertex v (leave the graph with all edges).
  UpdateBatch& deactivate(VertexId v);

  /// Queues an in-place weight change of live edge {u, v} to `w` — no
  /// delete/re-insert, no slot churn; only the affected priority keys are
  /// refreshed. Applied after all structural operations (see the
  /// precedence comment above); reweighting an edge that is not live at
  /// that point is silently skipped. Rejects self loops and non-finite
  /// weights.
  UpdateBatch& reweight_edge(VertexId u, VertexId v, Weight w);

  /// Queues an in-place weight change of vertex v to `w`. Applied last
  /// (see the precedence comment above); always takes effect — the vertex
  /// universe is fixed — even for deactivated vertices, whose new
  /// priority matters only once they activate. Rejects non-finite
  /// weights.
  UpdateBatch& reweight_vertex(VertexId v, Weight w);

  /// True iff no operations are queued.
  [[nodiscard]] bool empty() const {
    return inserts_.empty() && deletes_.empty() && activates_.empty() &&
           deactivates_.empty() && edge_reweights_.empty() &&
           vertex_reweights_.empty();
  }

  /// Total number of queued operations.
  [[nodiscard]] uint64_t size() const {
    return inserts_.size() + deletes_.size() + activates_.size() +
           deactivates_.size() + edge_reweights_.size() +
           vertex_reweights_.size();
  }

  /// Queued edge insertions, canonicalized, in queue order.
  [[nodiscard]] const std::vector<Edge>& inserts() const { return inserts_; }

  /// Per-insert weights, parallel to inserts() (kDefaultWeight when not
  /// supplied).
  [[nodiscard]] const std::vector<Weight>& insert_weights() const {
    return insert_weights_;
  }

  /// Queued edge deletions, canonicalized, in queue order.
  [[nodiscard]] const std::vector<Edge>& deletes() const { return deletes_; }

  /// Queued vertex activations, in queue order.
  [[nodiscard]] const std::vector<VertexId>& activates() const {
    return activates_;
  }

  /// Queued vertex deactivations, in queue order.
  [[nodiscard]] const std::vector<VertexId>& deactivates() const {
    return deactivates_;
  }

  /// Queued edge reweights, canonicalized, in queue order.
  [[nodiscard]] const std::vector<Edge>& edge_reweights() const {
    return edge_reweights_;
  }

  /// Per-edge-reweight weights, parallel to edge_reweights().
  [[nodiscard]] const std::vector<Weight>& edge_reweight_weights() const {
    return edge_reweight_weights_;
  }

  /// Queued vertex reweights, in queue order.
  [[nodiscard]] const std::vector<VertexId>& vertex_reweights() const {
    return vertex_reweights_;
  }

  /// Per-vertex-reweight weights, parallel to vertex_reweights().
  [[nodiscard]] const std::vector<Weight>& vertex_reweight_weights() const {
    return vertex_reweight_weights_;
  }

  /// True iff every endpoint referenced by the batch is < n.
  [[nodiscard]] bool endpoints_in_range(uint64_t n) const;

  /// Removes every queued operation.
  void clear();

  /// A random batch for tests and benches: ~`inserts` edges sampled fresh,
  /// ~`deletes` edges sampled from `existing` (the current live edge set),
  /// plus optional vertex toggles. Deterministic in the seed.
  static UpdateBatch random(uint64_t n, std::span<const Edge> existing,
                            uint64_t inserts, uint64_t deletes,
                            uint64_t toggles, uint64_t seed);

  /// Like random(), but every insert carries a weight drawn uniformly from
  /// {1, ..., levels} — coarse levels force equal-weight ties, exercising
  /// the weighted tie-break policies. Deterministic in the seed.
  static UpdateBatch random_weighted(uint64_t n, std::span<const Edge> existing,
                                     uint64_t inserts, uint64_t deletes,
                                     uint64_t toggles, uint64_t levels,
                                     uint64_t seed);

  /// Like the overload above, plus ~`reweights` weight perturbations mixed
  /// in: alternating edge reweights sampled from `existing` and vertex
  /// reweights sampled from the universe, with weights drawn from the same
  /// {1, ..., levels} quantization. Deterministic in the seed.
  static UpdateBatch random_weighted(uint64_t n, std::span<const Edge> existing,
                                     uint64_t inserts, uint64_t deletes,
                                     uint64_t reweights, uint64_t toggles,
                                     uint64_t levels, uint64_t seed);

 private:
  std::vector<Edge> inserts_;
  std::vector<Weight> insert_weights_;  // parallel to inserts_
  std::vector<Edge> deletes_;
  std::vector<VertexId> activates_;
  std::vector<VertexId> deactivates_;
  std::vector<Edge> edge_reweights_;
  std::vector<Weight> edge_reweight_weights_;  // parallel to edge_reweights_
  std::vector<VertexId> vertex_reweights_;
  std::vector<Weight> vertex_reweight_weights_;  // parallel, same
};

}  // namespace pargreedy
