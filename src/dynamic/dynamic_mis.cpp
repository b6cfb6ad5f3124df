#include "dynamic/dynamic_mis.hpp"

#include <algorithm>
#include <utility>

#include "core/mis/mis.hpp"
#include "obs/obs.hpp"
#include "support/check.hpp"

namespace pargreedy {

DynamicMis::DynamicMis(EngineOptions options)
    : GreedyEngine(std::move(options.source)) {
  CsrGraph base = std::move(options.graph);
  // Cache per-vertex keys: (key, id) compares give exactly the
  // vertex_order_for(base) total order, and stay refreshable under vertex
  // reweights.
  fill_keys(base.num_vertices(), [&](VertexId v) {
    return source_.vertex_key(v, base.vertex_weight(v));
  });
  active_.assign(base.num_vertices(), 1);
  decision_ = mis_prefix(base, vertex_order_for(base),
                         std::max<uint64_t>(1, base.num_vertices() / 50))
                  .in_set;
  graph_ = OverlayGraph(std::move(base));
}

bool DynamicMis::decide(VertexId v) const {
  if (!active_[v]) return false;
  // v joins iff no earlier-ranked neighbor is in the set. Inactive
  // neighbors have decision_ == 0 once repropagated (a vertex this batch
  // deactivated is a seed and flips in the first round), so no activity
  // check is needed. The decision byte goes first: most neighbours are
  // out, and one cached byte load then spares two random key loads.
  return graph_.for_incident_while(v, [&](VertexId w, EdgeSlot) {
    return !(decision_[w] && earlier(w, v));
  });
}

// Only a later neighbour holding v's new value can now disagree with
// decide(): one that is OUT when v turned IN is already blocked, and one
// that is IN when v turned OUT cannot exist (see repropagate.hpp).
void DynamicMis::append_successors(VertexId v,
                                   std::vector<VertexId>& out) const {
  const uint8_t value = decision_[v];
  graph_.for_incident(v, [&](VertexId w, EdgeSlot) {
    if (decision_[w] == value && active_[w] && earlier(v, w))
      out.push_back(w);
  });
}

BatchStats DynamicMis::apply_batch(const UpdateBatch& batch) {
  // The engine is the overlay's writer for the scope of this batch.
  support::RoleScope overlay_writer(graph_.writer_role_);
  PG_OBS_BATCH_SCOPE(corr_batch);  // fresh batch_id, or a sharded driver's
  PG_OBS_SPAN1(span_batch, kApplyBatchMis, batch.size());
  PG_OBS_EVENT1(kBatchBegin, batch.size());
  PG_CHECK_MSG(batch.endpoints_in_range(num_vertices()),
               "batch references vertex >= n");
  BatchStats stats;
  std::vector<VertexId> seeds;

  // Structural application, in the documented order. decision_ is not
  // touched until repropagation, so every rule below reads the pre-batch
  // fixpoint and seeds only vertices whose greedy decision the operation
  // can change; everything downstream is discovered by the rounds. An
  // edge update can change only its later endpoint (the earlier one never
  // depends on it): an inserted blocker matters only if both endpoints
  // are IN, a deleted one only if the earlier endpoint was IN.
  for (VertexId v : batch.deactivates()) {
    if (!store_active(v, false)) continue;
    ++stats.deactivated;
    if (decision_[v]) seeds.push_back(v);  // an OUT vertex blocked nobody
  }
  for (const Edge& e : batch.deletes()) {
    if (graph_.erase_edge(e.u, e.v) == kInvalidSlot) continue;
    ++stats.deleted;
    const bool u_first = earlier(e.u, e.v);
    if (decision_[u_first ? e.u : e.v]) seeds.push_back(u_first ? e.v : e.u);
  }
  for (std::size_t i = 0; i < batch.inserts().size(); ++i) {
    const Edge& e = batch.inserts()[i];
    // Edge weights never affect vertex priorities, but they are stored so
    // that active_subgraph() hands matching oracles the same weights.
    if (graph_.insert_edge(e.u, e.v, batch.insert_weights()[i]) ==
        kInvalidSlot)
      continue;
    ++stats.inserted;
    if (decision_[e.u] && decision_[e.v])
      seeds.push_back(earlier(e.u, e.v) ? e.v : e.u);
  }
  for (VertexId v : batch.activates()) {
    if (!store_active(v, true)) continue;
    ++stats.activated;
    seeds.push_back(v);
  }
  for (std::size_t i = 0; i < batch.edge_reweights().size(); ++i) {
    const Edge& e = batch.edge_reweights()[i];
    const Weight w = batch.edge_reweight_weights()[i];
    const EdgeSlot s = graph_.find_slot(e.u, e.v);
    if (s == kInvalidSlot || graph_.slot_weight(s) == w) continue;
    graph_.set_slot_weight(s, w);
    ++stats.reweighted;
    // Edge weights never enter vertex priorities — no seeding. The new
    // weight still reaches active_subgraph() snapshots (matching oracles
    // read it there).
  }
  for (std::size_t i = 0; i < batch.vertex_reweights().size(); ++i) {
    const VertexId v = batch.vertex_reweights()[i];
    const Weight w = batch.vertex_reweight_weights()[i];
    if (graph_.vertex_weight(v) == w) continue;
    graph_.set_vertex_weight(v, w);
    ++stats.reweighted;
    const PriorityKey old_key = cached_key(v);
    // e.g. random_hash: the key is unchanged, a provable no-op
    if (!store_key(v, source_.vertex_key(v, w))) continue;
    // v's own decision may change. An IN v also blocks, under its new key,
    // a different set of neighbours: exactly those whose order with v
    // flipped. An OUT v constrains nobody. An inactive v still IN was
    // deactivated by this batch and is seeded already; its flip expands
    // under the new key only, so the neighbours it blocked under the old
    // one are among these.
    if (active_[v]) seeds.push_back(v);
    if (!decision_[v]) continue;
    graph_.for_incident(v, [&](VertexId x, EdgeSlot) {
      if (active_[x] && earlier(v, old_key, x) != earlier(v, x))
        seeds.push_back(x);
    });
  }

  finish_batch(std::move(seeds), stats, "mis");
  PG_OBS_SPAN_ARG(span_batch, stats.rounds);
  return stats;
}

}  // namespace pargreedy
