#include "dynamic/overlay_graph.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/obs.hpp"
#include "support/check.hpp"

namespace pargreedy {

OverlayGraph::OverlayGraph(CsrGraph base)
    : base_(std::move(base)),
      base_dead_(base_.num_edges(), 0),
      extra_adj_(base_.num_vertices()),
      live_edges_(base_.num_edges()) {
  if (base_.has_edge_weights()) {
    edge_weighted_ = true;
    base_weights_.assign(base_.edge_weights().begin(),
                         base_.edge_weights().end());
  }
  if (base_.has_vertex_weights()) {
    vertex_weighted_ = true;
    vertex_weights_.assign(base_.vertex_weights().begin(),
                           base_.vertex_weights().end());
  }
}

EdgeSlot OverlayGraph::locate(const Edge& e) const {
  PG_CHECK_MSG(e.u < num_vertices() && e.v < num_vertices(),
               "edge {" << e.u << "," << e.v << "} out of range");
  const VertexId probe =
      base_.degree(e.u) + extra_adj_[e.u].size() <=
              base_.degree(e.v) + extra_adj_[e.v].size()
          ? e.u
          : e.v;
  const VertexId other = probe == e.u ? e.v : e.u;
  const auto nbrs = base_.neighbors(probe);
  const auto eids = base_.incident_edges(probe);
  for (std::size_t i = 0; i < nbrs.size(); ++i)
    if (nbrs[i] == other) return static_cast<EdgeSlot>(eids[i]);
  for (const auto& [w, idx] : extra_adj_[probe])
    if (w == other) return base_.num_edges() + idx;
  return kInvalidSlot;
}

EdgeSlot OverlayGraph::find_slot(VertexId u, VertexId v) const {
  const EdgeSlot s = locate(Edge{u, v}.canonical());
  return s != kInvalidSlot && slot_live(s) ? s : kInvalidSlot;
}

Edge OverlayGraph::slot_edge(EdgeSlot s) const {
  if (s < base_.num_edges()) return base_.edge(static_cast<EdgeId>(s));
  const uint64_t idx = s - base_.num_edges();
  PG_CHECK_MSG(idx < extra_edges_.size(), "slot " << s << " out of range");
  return extra_edges_[idx];
}

bool OverlayGraph::slot_live(EdgeSlot s) const {
  if (s < base_.num_edges()) return !base_dead_[s];
  const uint64_t idx = s - base_.num_edges();
  return idx < extra_edges_.size() && !extra_dead_[idx];
}

uint64_t OverlayGraph::live_degree(VertexId v) const {
  uint64_t d = 0;
  for_incident(v, [&](VertexId, EdgeSlot) { ++d; });
  return d;
}

void OverlayGraph::ensure_edge_weights() {
  if (edge_weighted_) return;
  edge_weighted_ = true;
  base_weights_.assign(base_.num_edges(), kDefaultWeight);
  extra_weights_.assign(extra_edges_.size(), kDefaultWeight);
  if (journal_) journal_->record(UndoRecord::Kind::kUpgradeEdgeWeighted, 0);
}

void OverlayGraph::store_slot_weight(EdgeSlot s, Weight w) {
  if (s < base_.num_edges())
    base_weights_[s] = w;
  else
    extra_weights_[s - base_.num_edges()] = w;
}

void OverlayGraph::set_slot_weight(EdgeSlot s, Weight w) {
  PG_CHECK_MSG(s < slot_bound(), "slot " << s << " out of range");
  PG_CHECK_MSG(std::isfinite(w), "slot " << s << " weight must be finite");
  if (!edge_weighted_ && w == kDefaultWeight) return;  // already default
  ensure_edge_weights();
  if (journal_)
    journal_->record(UndoRecord::Kind::kSlotWeight, s, slot_weight(s));
  store_slot_weight(s, w);
}

Weight OverlayGraph::slot_weight(EdgeSlot s) const {
  if (!edge_weighted_) return kDefaultWeight;
  if (s < base_.num_edges()) return base_weights_[s];
  const uint64_t idx = s - base_.num_edges();
  PG_CHECK_MSG(idx < extra_weights_.size(), "slot " << s << " out of range");
  return extra_weights_[idx];
}

EdgeSlot OverlayGraph::set_edge_weight(VertexId u, VertexId v, Weight w) {
  PG_CHECK_MSG(u != v, "self loop {" << u << "," << v << "}");
  PG_CHECK_MSG(std::isfinite(w),
               "edge {" << u << "," << v << "} weight must be finite");
  const EdgeSlot s = find_slot(u, v);
  if (s == kInvalidSlot) return kInvalidSlot;
  set_slot_weight(s, w);
  return s;
}

void OverlayGraph::set_vertex_weight(VertexId v, Weight w) {
  PG_CHECK_MSG(v < num_vertices(), "vertex " << v << " out of range");
  PG_CHECK_MSG(std::isfinite(w),
               "vertex " << v << " weight must be finite");
  if (!vertex_weighted_) {
    if (w == kDefaultWeight) return;  // unweighted stays unweighted
    vertex_weighted_ = true;
    vertex_weights_.assign(num_vertices(), kDefaultWeight);
    if (journal_) journal_->record(UndoRecord::Kind::kUpgradeVertexWeighted, 0);
  }
  if (journal_)
    journal_->record(UndoRecord::Kind::kVertexWeight, v, vertex_weights_[v]);
  vertex_weights_[v] = w;
}

EdgeSlot OverlayGraph::insert_edge(VertexId u, VertexId v, Weight w) {
  PG_CHECK_MSG(u != v, "self loop {" << u << "," << v << "}");
  PG_CHECK_MSG(u < num_vertices() && v < num_vertices(),
               "edge {" << u << "," << v << "} out of range");
  // Reject bad weights here, at the cause — CsrGraph::set_edge_weights
  // would otherwise abort at an arbitrarily later snapshot/compaction.
  PG_CHECK_MSG(std::isfinite(w),
               "edge {" << u << "," << v << "} weight must be finite");
  if (w != kDefaultWeight) ensure_edge_weights();
  const Edge e = Edge{u, v}.canonical();
  // Revive the dead slot if this edge was ever stored in either layer.
  const EdgeSlot s = locate(e);
  if (s != kInvalidSlot) {
    if (slot_live(s)) return kInvalidSlot;  // already live
    if (s < base_.num_edges()) {
      base_dead_[s] = 0;
      --dead_base_;
      if (journal_) journal_->record(UndoRecord::Kind::kReviveBase, s);
    } else {
      extra_dead_[s - base_.num_edges()] = 0;
      if (journal_)
        journal_->record(UndoRecord::Kind::kReviveExtra, s - base_.num_edges());
    }
    ++live_edges_;
    track_edge(e, +1);
    if (edge_weighted_) set_slot_weight(s, w);
    PG_OBS_COUNT(obs::kOverlaySlotsRevived, 1);
    return s;
  }
  const uint32_t idx = static_cast<uint32_t>(extra_edges_.size());
  extra_edges_.push_back(e);
  extra_dead_.push_back(0);
  if (edge_weighted_) extra_weights_.push_back(w);
  extra_adj_[e.u].emplace_back(e.v, idx);
  extra_adj_[e.v].emplace_back(e.u, idx);
  ++live_edges_;
  track_edge(e, +1);
  if (journal_) journal_->record(UndoRecord::Kind::kAppendExtra, idx);
  PG_OBS_COUNT(obs::kOverlaySlotsGrown, 1);
  return base_.num_edges() + idx;
}

EdgeSlot OverlayGraph::erase_edge(VertexId u, VertexId v) {
  const EdgeSlot s = find_slot(u, v);
  if (s == kInvalidSlot) return kInvalidSlot;
  if (s < base_.num_edges()) {
    base_dead_[s] = 1;
    ++dead_base_;
    if (journal_) journal_->record(UndoRecord::Kind::kEraseBase, s);
  } else {
    extra_dead_[s - base_.num_edges()] = 1;
    if (journal_)
      journal_->record(UndoRecord::Kind::kEraseExtra, s - base_.num_edges());
  }
  --live_edges_;
  track_edge(slot_edge(s), -1);
  return s;
}

double OverlayGraph::overlay_fraction() const {
  const uint64_t base_m = base_.num_edges();
  const uint64_t delta = extra_edges_.size() + dead_base_;
  return static_cast<double>(delta) /
         static_cast<double>(base_m > 0 ? base_m : 1);
}

EdgeList OverlayGraph::live_edge_list() const {
  EdgeList out(num_vertices());
  out.reserve(live_edges_);
  for (EdgeId e = 0; e < base_.num_edges(); ++e)
    if (!base_dead_[e]) out.add(base_.edge(e).u, base_.edge(e).v);
  for (std::size_t i = 0; i < extra_edges_.size(); ++i)
    if (!extra_dead_[i]) out.add(extra_edges_[i].u, extra_edges_[i].v);
  return out;
}

CsrGraph OverlayGraph::gather_csr(std::span<const uint8_t> active) const {
  // Collect the surviving (edge, weight) pairs in slot order, then sort
  // them into the canonical (u, v) order the CSR builder expects. Live
  // slots hold distinct canonical edges, so the sorted list is already
  // normalized and the weights stay aligned with the new edge ids.
  std::vector<Edge> edges;
  std::vector<Weight> weights;
  edges.reserve(live_edges_);
  if (edge_weighted_) weights.reserve(live_edges_);
  const auto keep = [&](const Edge& e) {
    return active.empty() || (active[e.u] && active[e.v]);
  };
  for (EdgeId e = 0; e < base_.num_edges(); ++e)
    if (!base_dead_[e] && keep(base_.edge(e))) {
      edges.push_back(base_.edge(e));
      if (edge_weighted_) weights.push_back(base_weights_[e]);
    }
  for (std::size_t i = 0; i < extra_edges_.size(); ++i)
    if (!extra_dead_[i] && keep(extra_edges_[i])) {
      edges.push_back(extra_edges_[i]);
      if (edge_weighted_) weights.push_back(extra_weights_[i]);
    }

  std::vector<uint32_t> by_rank(edges.size());
  std::iota(by_rank.begin(), by_rank.end(), 0);
  std::sort(by_rank.begin(), by_rank.end(), [&](uint32_t a, uint32_t b) {
    return edges[a] < edges[b];
  });
  std::vector<Edge> sorted_edges(edges.size());
  std::vector<Weight> sorted_weights(edge_weighted_ ? edges.size() : 0);
  for (std::size_t i = 0; i < by_rank.size(); ++i) {
    sorted_edges[i] = edges[by_rank[i]];
    if (edge_weighted_) sorted_weights[i] = weights[by_rank[i]];
  }

  CsrGraph g = CsrGraph::from_edges(
      EdgeList(num_vertices(), std::move(sorted_edges)),
      /*assume_normalized=*/true);
  if (edge_weighted_) g.set_edge_weights(std::move(sorted_weights));
  if (vertex_weighted_) g.set_vertex_weights(vertex_weights_);
  return g;
}

CsrGraph OverlayGraph::to_csr() const {
  if (!edge_weighted_ && !vertex_weighted_)
    return CsrGraph::from_edges(live_edge_list());
  return gather_csr({});
}

CsrGraph OverlayGraph::active_subgraph(
    std::span<const uint8_t> active) const {
  PG_CHECK_MSG(active.size() == num_vertices(),
               "activity bitmap size != vertex count");
  if (edge_weighted_ || vertex_weighted_)
    return gather_csr(active);
  EdgeList live = live_edge_list();
  EdgeList filtered(num_vertices());
  for (const Edge& e : live.edges())
    if (active[e.u] && active[e.v]) filtered.add(e.u, e.v);
  return CsrGraph::from_edges(filtered);
}

void OverlayGraph::undo(const UndoRecord& r) {
  // Newest-first replay makes the append case safe: when an append record
  // is reached, its slot is live again and its adjacency entries are the
  // newest at both endpoints.
  switch (r.kind) {
    case UndoRecord::Kind::kEraseBase:
      base_dead_[r.index] = 0;
      --dead_base_;
      ++live_edges_;
      track_edge(base_.edge(static_cast<EdgeId>(r.index)), +1);
      break;
    case UndoRecord::Kind::kEraseExtra:
      extra_dead_[r.index] = 0;
      ++live_edges_;
      track_edge(extra_edges_[r.index], +1);
      break;
    case UndoRecord::Kind::kReviveBase:
      base_dead_[r.index] = 1;
      ++dead_base_;
      --live_edges_;
      track_edge(base_.edge(static_cast<EdgeId>(r.index)), -1);
      break;
    case UndoRecord::Kind::kReviveExtra:
      extra_dead_[r.index] = 1;
      --live_edges_;
      track_edge(extra_edges_[r.index], -1);
      break;
    case UndoRecord::Kind::kAppendExtra: {
      PG_DCHECK(!extra_edges_.empty() && !extra_dead_.back());
      const Edge e = extra_edges_.back();
      PG_DCHECK(extra_adj_[e.u].back().second == extra_edges_.size() - 1);
      PG_DCHECK(extra_adj_[e.v].back().second == extra_edges_.size() - 1);
      extra_adj_[e.u].pop_back();
      extra_adj_[e.v].pop_back();
      extra_edges_.pop_back();
      extra_dead_.pop_back();
      if (edge_weighted_) extra_weights_.pop_back();
      --live_edges_;
      track_edge(e, -1);
      break;
    }
    case UndoRecord::Kind::kSlotWeight:
      store_slot_weight(r.index, r.old_weight());
      break;
    case UndoRecord::Kind::kVertexWeight:
      vertex_weights_[r.index] = r.old_weight();
      break;
    case UndoRecord::Kind::kUpgradeEdgeWeighted:
      edge_weighted_ = false;
      base_weights_.clear();
      extra_weights_.clear();
      break;
    case UndoRecord::Kind::kUpgradeVertexWeighted:
      vertex_weighted_ = false;
      vertex_weights_.clear();
      break;
    default:
      PG_CHECK_MSG(false, "engine undo record passed to OverlayGraph::undo");
  }
}

void OverlayGraph::enable_frontier_tracking(std::vector<uint32_t> part) {
  PG_CHECK_MSG(part.size() == num_vertices(),
               "partition labelling size != vertex count");
  PG_CHECK_MSG(journal_ == nullptr,
               "enable frontier tracking before attaching a journal "
               "(replay of pre-enable records would desync the counters)");
  part_ = std::move(part);
  cross_deg_.assign(num_vertices(), 0);
  const auto seed = [&](const Edge& e) {
    if (part_[e.u] != part_[e.v]) {
      ++cross_deg_[e.u];
      ++cross_deg_[e.v];
    }
  };
  for (EdgeId e = 0; e < base_.num_edges(); ++e)
    if (!base_dead_[e]) seed(base_.edge(e));
  for (std::size_t i = 0; i < extra_edges_.size(); ++i)
    if (!extra_dead_[i]) seed(extra_edges_[i]);
}

void OverlayGraph::compact() {
  PG_CHECK_MSG(journal_ == nullptr,
               "compact() is forbidden while an undo journal is attached "
               "(slot reassignment has no cheap inverse)");
  PG_OBS_COUNT(obs::kOverlayCompactions, 1);
  PG_OBS_SPAN2(span_compact, kCompact, live_edges_, extra_edges_.size());
  // All-or-nothing: everything that allocates is built in locals first,
  // so a throw (bad_alloc) leaves the overlay untouched; nothing after
  // the last local allocates.
  CsrGraph base = to_csr();  // carries slot weights when weighted
  std::vector<uint8_t> base_dead(base.num_edges(), 0);
  std::vector<Weight> base_weights;
  if (edge_weighted_)
    base_weights.assign(base.edge_weights().begin(),
                        base.edge_weights().end());
  base_ = std::move(base);
  base_dead_.swap(base_dead);
  base_weights_.swap(base_weights);
  for (auto& adj : extra_adj_)  // frees each list; the universe is fixed
    std::vector<std::pair<VertexId, uint32_t>>().swap(adj);
  extra_edges_.clear();
  extra_dead_.clear();
  extra_weights_.clear();
  live_edges_ = base_.num_edges();
  dead_base_ = 0;
}

}  // namespace pargreedy
