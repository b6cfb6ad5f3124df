#include "dynamic/dynamic_matching.hpp"

#include <algorithm>
#include <utility>

#include "core/matching/matching.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "support/check.hpp"

namespace pargreedy {

DynamicMatching::DynamicMatching(EngineOptions options)
    : GreedyEngine(std::move(options.source)) {
  CsrGraph base = std::move(options.graph);
  active_.assign(base.num_vertices(), 1);
  fill_keys(base.num_edges(), [&](EdgeSlot e) {
    return source_.edge_key(base.edge(e), base.edge_weight(e));
  });
  decision_ = mm_prefix(base, edge_order_for(base),
                        std::max<uint64_t>(1, base.num_edges() / 50))
                  .in_matching;
  decision_.resize(base.num_edges(), 0);  // stays sized to slot_bound
  graph_ = OverlayGraph(std::move(base));
}

bool DynamicMatching::slot_in_graph(EdgeSlot s) const {
  if (!graph_.slot_live(s)) return false;
  const Edge e = graph_.slot_edge(s);
  return active_[e.u] && active_[e.v];
}

bool DynamicMatching::decide(EdgeSlot s) const {
  if (!slot_in_graph(s)) return false;
  // s joins iff no earlier-ranked incident edge is in the matching. The
  // decision byte goes first: most incident edges are out, and one cached
  // byte load then spares the random key loads.
  const Edge e = graph_.slot_edge(s);
  for (VertexId w : {e.u, e.v}) {
    const bool clear = graph_.for_incident_while(w, [&](VertexId x,
                                                        EdgeSlot t) {
      return !(decision_[t] && t != s && active_[x] && earlier(t, s));
    });
    if (!clear) return false;
  }
  return true;
}

// Only a later incident edge holding s's new value can now disagree with
// decide() (the MIS argument on the line graph; see repropagate.hpp).
void DynamicMatching::append_successors(EdgeSlot s,
                                        std::vector<EdgeSlot>& out) const {
  const uint8_t value = decision_[s];
  const Edge e = graph_.slot_edge(s);
  for (VertexId w : {e.u, e.v}) {
    graph_.for_incident(w, [&](VertexId x, EdgeSlot t) {
      if (decision_[t] == value && t != s && active_[x] && earlier(s, t))
        out.push_back(t);
    });
  }
}

void DynamicMatching::cover_slot(EdgeSlot s) {
  if (s < pri_.size()) return;
  const std::size_t old = pri_.size();
  if (txn_) txn_->record_growth(old);
  pri_.resize(s + 1);
  if (source_.has_secondary_word()) pri2_.resize(s + 1);
  decision_.resize(s + 1, 0);
  for (std::size_t t = old; t <= s; ++t) refresh_slot(t);
}

bool DynamicMatching::matched(VertexId u, VertexId v) const {
  const EdgeSlot s = graph_.find_slot(u, v);
  return s != kInvalidSlot && decision_[s] != 0;
}

VertexId DynamicMatching::matched_with(VertexId v) const {
  VertexId partner = kInvalidVertex;
  graph_.for_incident_while(v, [&](VertexId w, EdgeSlot s) {
    if (decision_[s]) {
      partner = w;
      return false;
    }
    return true;
  });
  return partner;
}

std::vector<VertexId> DynamicMatching::solution() const {
  std::vector<VertexId> out(num_vertices(), kInvalidVertex);
  parallel_for(0, static_cast<int64_t>(num_vertices()), [&](int64_t v) {
    out[static_cast<std::size_t>(v)] =
        matched_with(static_cast<VertexId>(v));
  });
  return out;
}

std::vector<Edge> DynamicMatching::matched_edges() const {
  std::vector<Edge> out;
  for (EdgeSlot s = 0; s < graph_.slot_bound(); ++s)
    if (decision_[s]) out.push_back(graph_.slot_edge(s));
  std::sort(out.begin(), out.end());
  return out;
}

BatchStats DynamicMatching::apply_batch(const UpdateBatch& batch) {
  // The caller holds writer_role_; the engine is the overlay's one writer
  // for the duration of the batch.
  support::RoleScope overlay_writer(graph_.writer_role_);
  PG_OBS_BATCH_SCOPE(corr_batch);  // fresh batch_id, or a sharded driver's
  PG_OBS_SPAN1(span_batch, kApplyBatchMm, batch.size());
  PG_OBS_EVENT1(kBatchBegin, batch.size());
  PG_CHECK_MSG(batch.endpoints_in_range(num_vertices()),
               "batch references vertex >= n");
  BatchStats stats;
  std::vector<EdgeSlot> seeds;

  // Dropping an edge that was matched frees its endpoints: every
  // later-ranked incident edge (at either endpoint) may now join, so it is
  // seeded. A dropped edge that was NOT matched constrains nobody.
  const auto drop_slot = [&](EdgeSlot s) {
    if (!decision_[s]) return;
    if (txn_) txn_->record_decision(s, true);
    decision_[s] = 0;
    ++stats.changed;  // an eager flip, counted like repropagation flips
    const Edge e = graph_.slot_edge(s);
    for (VertexId w : {e.u, e.v}) {
      if (!active_[w]) continue;  // its incident edges are out of the graph
      graph_.for_incident(w, [&](VertexId x, EdgeSlot t) {
        if (active_[x] && earlier(s, t)) seeds.push_back(t);
      });
    }
  };

  // Structural application, in the documented order (see UpdateBatch).
  for (VertexId v : batch.deactivates()) {
    if (!store_active(v, false)) continue;
    ++stats.deactivated;
    // v's edges leave the graph. Matched ones free their other endpoint.
    graph_.for_incident(v, [&](VertexId, EdgeSlot s) { drop_slot(s); });
  }
  for (const Edge& e : batch.deletes()) {
    const EdgeSlot s = graph_.erase_edge(e.u, e.v);
    if (s == kInvalidSlot) continue;
    ++stats.deleted;
    drop_slot(s);  // slot endpoints stay readable after erase
  }
  for (std::size_t i = 0; i < batch.inserts().size(); ++i) {
    const Edge& e = batch.inserts()[i];
    const EdgeSlot s =
        graph_.insert_edge(e.u, e.v, batch.insert_weights()[i]);
    if (s == kInvalidSlot) continue;
    ++stats.inserted;
    cover_slot(s);
    // A revived slot may carry a different weight than its previous
    // incarnation, so the cached priority key is always recomputed.
    refresh_slot(s);
    if (active_[e.u] && active_[e.v]) seeds.push_back(s);
  }
  for (VertexId v : batch.activates()) {
    if (!store_active(v, true)) continue;
    ++stats.activated;
    // v's surviving edges re-enter the graph (those whose other endpoint
    // is active too); each must recompute its decision from scratch.
    graph_.for_incident(v, [&](VertexId x, EdgeSlot s) {
      if (active_[x]) seeds.push_back(s);
    });
  }
  for (std::size_t i = 0; i < batch.edge_reweights().size(); ++i) {
    const Edge& e = batch.edge_reweights()[i];
    const Weight w = batch.edge_reweight_weights()[i];
    const EdgeSlot s = graph_.find_slot(e.u, e.v);
    if (s == kInvalidSlot || graph_.slot_weight(s) == w) continue;
    graph_.set_slot_weight(s, w);
    ++stats.reweighted;
    const PriorityKey old_key = cached_key(s);
    if (!refresh_slot(s))
      continue;  // key ignores the weight (random_hash): provable no-op
    // An inactive endpoint keeps the edge out of the matching's graph: the
    // refreshed key simply waits for the activation seeds.
    if (!slot_in_graph(s)) continue;
    seeds.push_back(s);
    if (decision_[s]) {
      // s's rank moved while matched: it now blocks a different set of
      // incident edges, and those differ exactly by the edges whose order
      // with s flipped. An unmatched s constrains nobody — seeding s alone
      // suffices, and the rounds discover anything it newly blocks.
      for (VertexId y : {e.u, e.v}) {
        graph_.for_incident(y, [&](VertexId x, EdgeSlot t) {
          if (active_[x] && t != s && earlier(s, old_key, t) != earlier(s, t))
            seeds.push_back(t);
        });
      }
    }
  }
  for (std::size_t i = 0; i < batch.vertex_reweights().size(); ++i) {
    const VertexId v = batch.vertex_reweights()[i];
    const Weight w = batch.vertex_reweight_weights()[i];
    if (graph_.vertex_weight(v) == w) continue;
    graph_.set_vertex_weight(v, w);
    ++stats.reweighted;
    // Vertex weights never enter edge priorities — no seeding; the new
    // weight reaches active_subgraph() snapshots.
  }

  finish_batch(std::move(seeds), stats, "matching");
  PG_OBS_SPAN_ARG(span_batch, stats.rounds);
  return stats;
}

void DynamicMatching::compact_impl() {
  // Everything that allocates runs before graph_.compact(), which is
  // all-or-nothing: compaction never grows the slot range, so the
  // per-slot arrays below only shrink, and a throw leaves the engine whole.
  const std::vector<Edge> matched = matched_edges();
  GreedyEngine::compact_impl();
  fill_keys(graph_.slot_bound(), [&](EdgeSlot s) {
    return source_.edge_key(graph_.slot_edge(s), graph_.slot_weight(s));
  });
  decision_.assign(graph_.slot_bound(), 0);
  for (const Edge& e : matched) {
    const EdgeSlot s = graph_.find_slot(e.u, e.v);
    PG_CHECK_MSG(s != kInvalidSlot, "matched edge lost in compaction");
    decision_[s] = 1;
  }
}

}  // namespace pargreedy
