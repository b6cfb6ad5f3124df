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
// structure and determinism argument. The state, the queries, compaction,
// the transactional seams and the concurrency contract are the shared
// core's (greedy_engine.hpp); this class holds the MIS rules.
//
// Priorities under reweights: the comparisons run on cached per-vertex
// PriorityKeys (key, id tie-break — the total order vertex_order_for()
// materializes), so a batch vertex reweight only refreshes the affected
// keys. It seeds the vertex and, when the vertex is IN, the active
// neighbours whose order with it flipped (an OUT vertex constrains
// nobody); under policies whose keys ignore vertex weights (random_hash)
// a reweight is a provable no-op — zero seeds, zero rounds. Edge
// reweights update the stored weight for snapshots but never touch
// vertex priorities.
//
// Vertex activity: the vertex universe [0, n) is fixed at construction;
// deactivating a vertex removes it (and implicitly its incident edges)
// from the *solution's* graph without forgetting its edges, activating it
// brings it back. in_set(v) is always false for an inactive vertex.
//
// Exact-equivalence invariant (checked by the differential tests): let H
// be the live graph restricted to edges with both endpoints active, as a
// CsrGraph over all n vertices (active_subgraph()). Then for every active
// v, in_set(v) == mis_sequential(H, vertex_order_for(H)).in_set[v];
// inactive vertices are isolated in H and report in_set == false here.
#pragma once

#include <cstdint>
#include <vector>

#include "core/mis/vertex_order.hpp"
#include "dynamic/engine_api.hpp"
#include "dynamic/greedy_engine.hpp"
#include "dynamic/update_batch.hpp"
#include "graph/csr_graph.hpp"
#include "support/thread_annotations.hpp"

namespace pargreedy {

/// Batch-dynamic lexicographically-first MIS engine (see file comment for
/// the maintained invariant).
class DynamicMis : public GreedyEngine<DynamicMis, VertexId> {
 public:
  /// Starts from `options.graph` with every vertex active; the initial
  /// solution is computed with the prefix kernel (mis_prefix, window
  /// max(1, n/50), as the static path uses). pi =
  /// options.source.vertex_order(graph) (the weighted policies read the
  /// graph's vertex weights — weighted greedy MIS). This is the only
  /// constructor; build options with the EngineOptions factories
  /// (engine_api.hpp).
  explicit DynamicMis(EngineOptions options);

  /// True iff v is currently in the maintained MIS.
  [[nodiscard]] bool in_set(VertexId v) const noexcept {
    return decision_[v] != 0;
  }

  /// The priority order this engine induces on the vertices of `g`
  /// (reading g's vertex weights under the weighted policies) — feed to
  /// mis_sequential for the from-scratch oracle. On active_subgraph() it
  /// is the order the cached keys compare by.
  [[nodiscard]] VertexOrder vertex_order_for(const CsrGraph& g) const {
    return source_.vertex_order(g);
  }

  /// The current solution as a membership bitmap (0 for inactive
  /// vertices) — bit-identical to the from-scratch oracle (see header
  /// comment).
  [[nodiscard]] std::vector<uint8_t> solution() const { return decision_; }

  /// Applies a batch (see UpdateBatch for intra-batch semantics) and
  /// repropagates to the new greedy fixpoint. Returns touch counters.
  BatchStats apply_batch(const UpdateBatch& batch)
      PARGREEDY_REQUIRES(writer_role_);

 private:
  friend class GreedyEngine<DynamicMis, VertexId>;

  [[nodiscard]] bool decide(VertexId v) const;
  void append_successors(VertexId v, std::vector<VertexId>& out) const;
  [[nodiscard]] bool tie_less(VertexId a, VertexId b) const { return a < b; }
};

}  // namespace pargreedy
