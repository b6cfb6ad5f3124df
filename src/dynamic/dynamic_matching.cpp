#include "dynamic/dynamic_matching.hpp"

#include <algorithm>
#include <utility>

#include "core/matching/matching.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "support/check.hpp"

namespace pargreedy {

// Adapter between DynamicMatching state and the repropagation rounds.
struct MmReproEngine {
  DynamicMatching& dm;

  [[nodiscard]] bool decide(EdgeSlot s) const { return dm.decide(s); }
  [[nodiscard]] bool current(EdgeSlot s) const { return dm.in_m_[s] != 0; }
  void commit(EdgeSlot s, bool value) const { dm.in_m_[s] = value ? 1 : 0; }
  // Only a later incident edge holding s's new value can now disagree
  // with decide() (the MIS argument on the line graph; see
  // repropagate.hpp).
  void append_successors(EdgeSlot s, std::vector<EdgeSlot>& out) const {
    const uint8_t value = dm.in_m_[s];
    const Edge e = dm.graph_.slot_edge(s);
    for (VertexId w : {e.u, e.v}) {
      dm.graph_.for_incident(w, [&](VertexId x, EdgeSlot t) {
        if (dm.in_m_[t] == value && t != s && dm.active_[x] &&
            dm.earlier(s, t))
          out.push_back(t);
      });
    }
  }
};

DynamicMatching::DynamicMatching(EngineOptions options)
    : source_(std::move(options.source)) {
  compact_threshold_ = options.compaction_threshold;
  CsrGraph base = std::move(options.graph);
  active_.assign(base.num_vertices(), 1);
  pri_.resize(base.num_edges());
  // pri2_ stays empty for single-word policies: no storage, and earlier()
  // skips the second comparison.
  if (source_.has_secondary_word()) pri2_.resize(base.num_edges());
  parallel_for(0, static_cast<int64_t>(base.num_edges()), [&](int64_t e) {
    const PriorityKey k =
        source_.edge_key(base.edge(static_cast<EdgeId>(e)),
                         base.edge_weight(static_cast<EdgeId>(e)));
    pri_[static_cast<std::size_t>(e)] = k.primary;
    if (!pri2_.empty()) pri2_[static_cast<std::size_t>(e)] = k.secondary;
  });
  in_m_ = mm_prefix(base, edge_order_for(base),
                    std::max<uint64_t>(1, base.num_edges() / 50))
              .in_matching;
  in_m_.resize(base.num_edges(), 0);  // stays sized to slot_bound
  graph_ = OverlayGraph(std::move(base));
}

EdgeOrder DynamicMatching::edge_order_for(const CsrGraph& g) const {
  return source_.edge_order(g);
}

bool DynamicMatching::slot_in_graph(EdgeSlot s) const {
  if (!graph_.slot_live(s)) return false;
  const Edge e = graph_.slot_edge(s);
  return active_[e.u] && active_[e.v];
}

bool DynamicMatching::earlier(EdgeSlot s, EdgeSlot t) const {
  if (pri_[s] != pri_[t]) return pri_[s] < pri_[t];
  if (!pri2_.empty() && pri2_[s] != pri2_[t]) return pri2_[s] < pri2_[t];
  return edge_pair_key(graph_.slot_edge(s)) <
         edge_pair_key(graph_.slot_edge(t));
}

bool DynamicMatching::earlier(EdgeSlot s, PriorityKey key_s,
                              EdgeSlot t) const {
  const PriorityKey key_t = cached_slot_key(t);
  if (key_s != key_t) return key_s < key_t;
  return edge_pair_key(graph_.slot_edge(s)) <
         edge_pair_key(graph_.slot_edge(t));
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
      return !(in_m_[t] && t != s && active_[x] && earlier(t, s));
    });
    if (!clear) return false;
  }
  return true;
}

void DynamicMatching::refresh_slot(EdgeSlot s) {
  const PriorityKey k =
      source_.edge_key(graph_.slot_edge(s), graph_.slot_weight(s));
  const uint64_t old2 = pri2_.empty() ? 0 : pri2_[s];
  if (k.primary == pri_[s] && (pri2_.empty() || k.secondary == old2))
    return;  // key unchanged (e.g. random_hash reweight): nothing to
             // store, nothing to journal
  if (txn_) txn_->engine.record_key(s, pri_[s], old2);
  pri_[s] = k.primary;
  if (!pri2_.empty()) pri2_[s] = k.secondary;
}

void DynamicMatching::cover_slot(EdgeSlot s) {
  if (s < pri_.size()) return;
  const std::size_t old = pri_.size();
  if (txn_) txn_->engine.record_growth(old);
  pri_.resize(s + 1);
  if (source_.has_secondary_word()) pri2_.resize(s + 1);
  in_m_.resize(s + 1, 0);
  for (std::size_t t = old; t <= s; ++t) refresh_slot(t);
}

bool DynamicMatching::matched(VertexId u, VertexId v) const {
  const EdgeSlot s = graph_.find_slot(u, v);
  return s != kInvalidSlot && in_m_[s] != 0;
}

VertexId DynamicMatching::matched_with(VertexId v) const {
  VertexId partner = kInvalidVertex;
  graph_.for_incident_while(v, [&](VertexId w, EdgeSlot s) {
    if (in_m_[s]) {
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
    if (in_m_[s]) out.push_back(graph_.slot_edge(s));
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t DynamicMatching::size() const {
  uint64_t count = 0;
  for (EdgeSlot s = 0; s < graph_.slot_bound(); ++s)
    if (in_m_[s]) ++count;
  return count;
}

BatchStats DynamicMatching::apply_batch(const UpdateBatch& batch) {
  // The caller holds writer_role_; the engine is the overlay's one writer
  // for the duration of the batch.
  support::RoleScope overlay_writer(graph_.writer_role_);
  PG_OBS_BATCH_SCOPE(corr_batch);  // fresh batch_id, or a sharded driver's
  PG_OBS_SPAN1(span_batch, kApplyBatchMm, batch.size());
  PG_OBS_EVENT1(kBatchBegin, batch.size());
  const uint64_t n = num_vertices();
  PG_CHECK_MSG(batch.endpoints_in_range(n), "batch references vertex >= n");
  BatchStats stats;
  std::vector<EdgeSlot> seeds;

  // Dropping an edge that was matched frees its endpoints: every
  // later-ranked incident edge (at either endpoint) may now join, so it is
  // seeded. A dropped edge that was NOT matched constrains nobody.
  const auto drop_slot = [&](EdgeSlot s) {
    if (!in_m_[s]) return;
    if (txn_) txn_->engine.record_decision(s, true);
    in_m_[s] = 0;
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
    if (!active_[v]) continue;
    if (txn_) txn_->engine.record_active(v, true);
    active_[v] = 0;
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
    if (active_[v]) continue;
    if (txn_) txn_->engine.record_active(v, false);
    active_[v] = 1;
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
    const PriorityKey old_key = cached_slot_key(s);
    refresh_slot(s);
    if (cached_slot_key(s) == old_key)
      continue;  // key ignores the weight (random_hash): provable no-op
    // An inactive endpoint keeps the edge out of the matching's graph: the
    // refreshed key simply waits for the activation seeds.
    if (!slot_in_graph(s)) continue;
    seeds.push_back(s);
    if (in_m_[s]) {
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

  repropagate(std::move(seeds), MmReproEngine{*this},
              graph_.slot_bound() + 1, stats,
              txn_ ? &txn_->engine : nullptr);

  if (compact_if_needed_impl()) stats.compacted = true;
  ++epoch_;
  lifetime_stats_.accumulate(stats);
  obs_accumulate_batch(stats, "matching", n);
  PG_OBS_EVENT2(kBatchEnd, stats.rounds, stats.changed);
  PG_OBS_SPAN_ARG(span_batch, stats.rounds);
  return stats;
}

bool DynamicMatching::compact_if_needed() {
  support::RoleScope overlay_writer(graph_.writer_role_);
  return compact_if_needed_impl();
}

bool DynamicMatching::compact_if_needed_impl() {
  // Deferred while a journal is attached: compaction reassigns slots,
  // which has no cheap inverse; transactions compact at commit instead.
  if (txn_ != nullptr || compact_threshold_ <= 0 ||
      graph_.overlay_fraction() <= compact_threshold_)
    return false;
  compact_impl();
  return true;
}

PriorityKey DynamicMatching::cached_slot_key(EdgeSlot s) const {
  PG_CHECK_MSG(s < pri_.size(), "slot " << s << " not covered");
  return {pri_[s], pri2_.empty() ? 0 : pri2_[s]};
}

void DynamicMatching::txn_attach(TxnJournal* txn) {
  support::RoleScope overlay_writer(graph_.writer_role_);
  PG_CHECK_MSG(txn != nullptr, "txn_attach(nullptr)");
  PG_CHECK_MSG(txn_ == nullptr, "a transaction journal is already attached");
  txn_ = txn;
  graph_.set_journal(&txn->overlay);
}

void DynamicMatching::txn_detach() {
  support::RoleScope overlay_writer(graph_.writer_role_);
  PG_CHECK_MSG(txn_ != nullptr, "no transaction journal attached");
  txn_ = nullptr;
  graph_.set_journal(nullptr);
}

TxnMark DynamicMatching::txn_mark() const {
  PG_CHECK_MSG(txn_ != nullptr, "txn_mark requires an attached journal");
  return {txn_->engine.size(), txn_->overlay.size(), graph_.epoch(), epoch_,
          lifetime_stats_};
}

void DynamicMatching::txn_rollback(const TxnMark& mark) {
  support::RoleScope overlay_writer(graph_.writer_role_);
  PG_CHECK_MSG(txn_ != nullptr, "txn_rollback requires an attached journal");
  const EngineJournal& ej = txn_->engine;
  PG_CHECK_MSG(mark.engine_records <= ej.size(),
               "engine undo mark beyond journal size");
  for (std::size_t i = ej.size(); i-- > mark.engine_records;) {
    const EngineUndoRecord& r = ej[i];
    switch (r.kind) {
      case EngineUndoRecord::Kind::kDecision:
        in_m_[r.item] = r.flag;
        break;
      case EngineUndoRecord::Kind::kActive:
        active_[r.item] = r.flag;
        break;
      case EngineUndoRecord::Kind::kKey:
        // Key records of slots appended after this point in the journal
        // are replayed before the growth record truncates them away, so
        // the writes below always hit live array entries.
        pri_[r.item] = r.old_a;
        if (!pri2_.empty()) pri2_[r.item] = r.old_b;
        break;
      case EngineUndoRecord::Kind::kGrowth:
        pri_.resize(r.item);
        if (!pri2_.empty()) pri2_.resize(r.item);
        in_m_.resize(r.item);
        break;
    }
  }
  txn_->engine.truncate(mark.engine_records);
  graph_.undo_to(mark.overlay_records, mark.overlay_epoch);
  epoch_ = mark.engine_epoch;
  lifetime_stats_ = mark.lifetime;
}

void DynamicMatching::compact() {
  support::RoleScope overlay_writer(graph_.writer_role_);
  compact_impl();
}

void DynamicMatching::compact_impl() {
  // Everything that allocates runs before graph_.compact(), which is
  // all-or-nothing: compaction never grows the slot range, so the
  // per-slot arrays below only shrink, and a throw leaves the engine whole.
  const std::vector<Edge> matched = matched_edges();
  graph_.compact();  // slot weights survive; checks no journal attached
  ++epoch_;
  pri_.resize(graph_.slot_bound());
  if (source_.has_secondary_word()) pri2_.resize(graph_.slot_bound());
  parallel_for(0, static_cast<int64_t>(graph_.slot_bound()), [&](int64_t s) {
    const PriorityKey k = source_.edge_key(
        graph_.slot_edge(static_cast<EdgeSlot>(s)),
        graph_.slot_weight(static_cast<EdgeSlot>(s)));
    pri_[static_cast<std::size_t>(s)] = k.primary;
    if (!pri2_.empty()) pri2_[static_cast<std::size_t>(s)] = k.secondary;
  });
  in_m_.assign(graph_.slot_bound(), 0);
  for (const Edge& e : matched) {
    const EdgeSlot s = graph_.find_slot(e.u, e.v);
    PG_CHECK_MSG(s != kInvalidSlot, "matched edge lost in compaction");
    in_m_[s] = 1;
  }
}

CsrGraph DynamicMatching::active_subgraph() const {
  return graph_.active_subgraph(active_);
}

}  // namespace pargreedy
