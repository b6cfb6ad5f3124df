#include "dynamic/dynamic_mis.hpp"

#include <algorithm>
#include <utility>

#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "support/check.hpp"

namespace pargreedy {

// Adapter between DynamicMis state and the generic repropagation rounds.
struct MisReproEngine {
  DynamicMis& dm;

  [[nodiscard]] bool decide(VertexId v) const { return dm.decide(v); }
  [[nodiscard]] bool current(VertexId v) const { return dm.in_set_[v] != 0; }
  void commit(VertexId v, bool value) const {
    dm.in_set_[v] = value ? 1 : 0;
  }
  // Only a later neighbour holding v's new value can now disagree with
  // decide(): one that is OUT when v turned IN is already blocked, and one
  // that is IN when v turned OUT cannot exist (see repropagate.hpp).
  void append_successors(VertexId v, std::vector<VertexId>& out) const {
    const uint8_t value = dm.in_set_[v];
    dm.graph_.for_incident(v, [&](VertexId w, EdgeSlot) {
      if (dm.in_set_[w] == value && dm.active_[w] && dm.earlier(v, w))
        out.push_back(w);
    });
  }
};

DynamicMis::DynamicMis(EngineOptions options)
    : source_(std::move(options.source)) {
  compact_threshold_ = options.compaction_threshold;
  CsrGraph base = std::move(options.graph);
  order_ = source_.vertex_order(base);
  // Cache per-vertex keys: (key, id) compares give exactly the order_
  // total order, and stay refreshable under vertex reweights.
  const uint64_t n = base.num_vertices();
  vpri_.resize(n);
  if (source_.has_secondary_word()) vpri2_.resize(n);
  parallel_for(0, static_cast<int64_t>(n), [&](int64_t v) {
    const PriorityKey k =
        source_.vertex_key(static_cast<VertexId>(v),
                           base.vertex_weight(static_cast<VertexId>(v)));
    vpri_[static_cast<std::size_t>(v)] = k.primary;
    if (!vpri2_.empty()) vpri2_[static_cast<std::size_t>(v)] = k.secondary;
  });
  active_.assign(base.num_vertices(), 1);
  in_set_ = mis_prefix(base, order_,
                       std::max<uint64_t>(1, base.num_vertices() / 50))
                .in_set;
  graph_ = OverlayGraph(std::move(base));
}

const VertexOrder& DynamicMis::order() const {
  if (order_stale_) {
    std::vector<Weight> weights(num_vertices());
    for (uint64_t v = 0; v < num_vertices(); ++v)
      weights[v] = graph_.vertex_weight(static_cast<VertexId>(v));
    order_ = source_.vertex_order(num_vertices(), weights);
    order_stale_ = false;
  }
  return order_;
}

bool DynamicMis::decide(VertexId v) const {
  if (!active_[v]) return false;
  // v joins iff no earlier-ranked neighbor is in the set. Inactive
  // neighbors have in_set_ == 0 once repropagated (a vertex this batch
  // deactivated is a seed and flips in the first round), so no activity
  // check is needed. The decision byte goes first: most neighbours are
  // out, and one cached byte load then spares two random key loads.
  return graph_.for_incident_while(v, [&](VertexId w, EdgeSlot) {
    return !(in_set_[w] && earlier(w, v));
  });
}

uint64_t DynamicMis::size() const {
  return static_cast<uint64_t>(reduce_add<int64_t>(
      0, static_cast<int64_t>(in_set_.size()),
      [&](int64_t v) { return in_set_[static_cast<std::size_t>(v)] ? 1 : 0; }));
}

BatchStats DynamicMis::apply_batch(const UpdateBatch& batch) {
  // The engine is the overlay's writer for the scope of this batch.
  support::RoleScope overlay_writer(graph_.writer_role_);
  PG_OBS_BATCH_SCOPE(corr_batch);  // fresh batch_id, or a sharded driver's
  PG_OBS_SPAN1(span_batch, kApplyBatchMis, batch.size());
  PG_OBS_EVENT1(kBatchBegin, batch.size());
  const uint64_t n = num_vertices();
  PG_CHECK_MSG(batch.endpoints_in_range(n), "batch references vertex >= n");
  BatchStats stats;
  std::vector<VertexId> seeds;

  // Structural application, in the documented order. in_set_ is not
  // touched until repropagation, so every rule below reads the pre-batch
  // fixpoint and seeds only vertices whose greedy decision the operation
  // can change; everything downstream is discovered by the rounds. An
  // edge update can change only its later endpoint (the earlier one never
  // depends on it): an inserted blocker matters only if both endpoints
  // are IN, a deleted one only if the earlier endpoint was IN.
  for (VertexId v : batch.deactivates()) {
    if (!active_[v]) continue;
    if (txn_) txn_->engine.record_active(v, true);
    active_[v] = 0;
    ++stats.deactivated;
    if (in_set_[v]) seeds.push_back(v);  // an OUT vertex blocked nobody
  }
  for (const Edge& e : batch.deletes()) {
    if (graph_.erase_edge(e.u, e.v) == kInvalidSlot) continue;
    ++stats.deleted;
    const bool u_first = earlier(e.u, e.v);
    if (in_set_[u_first ? e.u : e.v]) seeds.push_back(u_first ? e.v : e.u);
  }
  for (std::size_t i = 0; i < batch.inserts().size(); ++i) {
    const Edge& e = batch.inserts()[i];
    // Edge weights never affect vertex priorities, but they are stored so
    // that active_subgraph() hands matching oracles the same weights.
    if (graph_.insert_edge(e.u, e.v, batch.insert_weights()[i]) ==
        kInvalidSlot)
      continue;
    ++stats.inserted;
    if (in_set_[e.u] && in_set_[e.v])
      seeds.push_back(earlier(e.u, e.v) ? e.v : e.u);
  }
  for (VertexId v : batch.activates()) {
    if (active_[v]) continue;
    if (txn_) txn_->engine.record_active(v, false);
    active_[v] = 1;
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
    const PriorityKey old_key = cached_vertex_key(v);
    const PriorityKey k = source_.vertex_key(v, w);
    if (k == old_key) continue;  // e.g. random_hash: provable no-op
    if (txn_) txn_->engine.record_key(v, old_key.primary, old_key.secondary);
    vpri_[v] = k.primary;
    if (!vpri2_.empty()) vpri2_[v] = k.secondary;
    order_stale_ = true;
    // v's own decision may change. An IN v also blocks, under its new key,
    // a different set of neighbours: exactly those whose order with v
    // flipped. An OUT v constrains nobody. An inactive v still IN was
    // deactivated by this batch and is seeded already; its flip expands
    // under the new key only, so the neighbours it blocked under the old
    // one are among these.
    if (active_[v]) seeds.push_back(v);
    if (!in_set_[v]) continue;
    graph_.for_incident(v, [&](VertexId x, EdgeSlot) {
      if (active_[x] && earlier(v, old_key, x) != earlier(v, x))
        seeds.push_back(x);
    });
  }

  repropagate(std::move(seeds), MisReproEngine{*this}, n + 1, stats,
              txn_ ? &txn_->engine : nullptr);

  if (compact_if_needed_impl()) stats.compacted = true;
  ++epoch_;
  lifetime_stats_.accumulate(stats);
  obs_accumulate_batch(stats, "mis", n);
  PG_OBS_EVENT2(kBatchEnd, stats.rounds, stats.changed);
  PG_OBS_SPAN_ARG(span_batch, stats.rounds);
  return stats;
}

bool DynamicMis::compact_if_needed() {
  support::RoleScope overlay_writer(graph_.writer_role_);
  return compact_if_needed_impl();
}

bool DynamicMis::compact_if_needed_impl() {
  // Deferred while a journal is attached: compaction has no cheap
  // inverse, so transactions compact at commit, after detaching.
  if (txn_ != nullptr || compact_threshold_ <= 0 ||
      graph_.overlay_fraction() <= compact_threshold_)
    return false;
  compact_impl();
  return true;
}

void DynamicMis::compact() {
  support::RoleScope overlay_writer(graph_.writer_role_);
  compact_impl();
}

void DynamicMis::compact_impl() {
  graph_.compact();  // checks no journal is attached
  ++epoch_;
}

bool DynamicMis::earlier(VertexId a, PriorityKey key_a, VertexId b) const {
  const PriorityKey key_b = cached_vertex_key(b);
  return key_a != key_b ? key_a < key_b : a < b;
}

void DynamicMis::txn_attach(TxnJournal* txn) {
  support::RoleScope overlay_writer(graph_.writer_role_);
  PG_CHECK_MSG(txn != nullptr, "txn_attach(nullptr)");
  PG_CHECK_MSG(txn_ == nullptr, "a transaction journal is already attached");
  txn_ = txn;
  graph_.set_journal(&txn->overlay);
}

void DynamicMis::txn_detach() {
  support::RoleScope overlay_writer(graph_.writer_role_);
  PG_CHECK_MSG(txn_ != nullptr, "no transaction journal attached");
  txn_ = nullptr;
  graph_.set_journal(nullptr);
}

TxnMark DynamicMis::txn_mark() const {
  PG_CHECK_MSG(txn_ != nullptr, "txn_mark requires an attached journal");
  return {txn_->engine.size(), txn_->overlay.size(), graph_.epoch(), epoch_,
          lifetime_stats_};
}

void DynamicMis::txn_rollback(const TxnMark& mark) {
  support::RoleScope overlay_writer(graph_.writer_role_);
  PG_CHECK_MSG(txn_ != nullptr, "txn_rollback requires an attached journal");
  const EngineJournal& ej = txn_->engine;
  PG_CHECK_MSG(mark.engine_records <= ej.size(),
               "engine undo mark beyond journal size");
  bool keys_restored = false;
  for (std::size_t i = ej.size(); i-- > mark.engine_records;) {
    const EngineUndoRecord& r = ej[i];
    switch (r.kind) {
      case EngineUndoRecord::Kind::kDecision:
        in_set_[r.item] = r.flag;
        break;
      case EngineUndoRecord::Kind::kActive:
        active_[r.item] = r.flag;
        break;
      case EngineUndoRecord::Kind::kKey:
        vpri_[r.item] = r.old_a;
        if (!vpri2_.empty()) vpri2_[r.item] = r.old_b;
        keys_restored = true;
        break;
      case EngineUndoRecord::Kind::kGrowth:
        PG_CHECK_MSG(false, "growth record in a vertex-keyed engine");
    }
  }
  txn_->engine.truncate(mark.engine_records);
  // order_ may have been re-materialized mid-transaction from since-rolled-
  // back weights; force a rebuild from the restored keys on next order().
  // The rebuilt order is content-identical to the pre-transaction one
  // (vertex_order is a pure function of the restored weights).
  if (keys_restored) order_stale_ = true;
  graph_.undo_to(mark.overlay_records, mark.overlay_epoch);
  epoch_ = mark.engine_epoch;
  lifetime_stats_ = mark.lifetime;
}

CsrGraph DynamicMis::active_subgraph() const {
  return graph_.active_subgraph(active_);
}

}  // namespace pargreedy
