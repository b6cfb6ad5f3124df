// ShardedEngine: N dynamic engines over a partitioned vertex universe,
// composed into one engine-shaped API by a boundary-cone exchange.
//
// Decomposition. A Partitioner assigns every vertex an owner shard.
// Shard s runs a full Engine (DynamicMis / DynamicMatching) over the
// complete vertex universe [0, n) but stores only the edges with at
// least one s-owned endpoint. An edge with endpoints in two shards (a
// *cross edge*) is stored by both; a non-owned vertex with live local
// edges is a *ghost*. Every shard's overlay tracks its cross-partition
// degrees incrementally (OverlayGraph::enable_frontier_tracking), so
// ghost liveness and the owned frontier are O(1) queries.
//
// Exchange. apply_batch routes the user batch by ownership
// (shard/batch_router.hpp), opens one Transaction per shard in lockstep,
// applies each sub-batch, and then iterates the boundary-cone exchange:
//
//   round:  compute, against the current speculative states, the
//           *forcing batch* of every shard — for each live ghost, the
//           activity GhostPolicy derives from its owner's current
//           decision, minus what the shard already believes (a barrier:
//           all batches are derived before any is applied, so a round's
//           seeds are a deterministic function of the round-start
//           state); then apply each non-empty batch in shard order.
//
//   conflict:  a shard whose forcing batch is non-empty in a later
//           round was forced against assumptions that have since been
//           invalidated. It retries through the real Transaction
//           machinery: rollback_to the savepoint taken right after its
//           user sub-batch, re-derive the full forcing batch against
//           the restored state, and apply it as one batch. The result
//           is identical to incremental forcing — a shard's local
//           solution is a pure function of (live edges, activity,
//           policy) — but the abort/retry path, not trust in that
//           purity, is what the differential suite exercises.
//
//   fixpoint:  no forcing delta anywhere. For MIS that is the end:
//           activity fixpoints are unique (shard/ghost_policy.hpp), so
//           the per-owner composition already equals the single-engine
//           greedy solution bit-exactly. Matching fixpoints are NOT
//           unique — mutually-stale cross-boundary deactivations can
//           stabilize away from the global solution — so a candidate
//           fixpoint must also pass the *boundary certificate*: for
//           every live cross edge with both endpoints active, the two
//           owners agree on whether it is matched, and if it is not,
//           one endpoint is matched via an edge no later in the
//           priority order. A candidate that fails is broken by
//           deterministic priority-order arbitration: gather the
//           composed live+active graph, compute the exact greedy
//           matching, and re-force every shard's ghosts from that
//           solution through the same rollback_to + apply retry path —
//           one repropagation per shard then lands on the global
//           fixpoint and the next validation pass is check-only.
//           Commits then run in shard index order, keeping the
//           ShardedVersion clock unified.
//
// Determinism: shards are driven sequentially in index order (each
// apply runs at the worker width captured at construction), every forcing
// batch is a deterministic function of deterministic state, and the
// engines themselves are deterministic in their inputs — so solutions,
// exchange rounds, boundary seeds, and conflict retries are all
// reproducible bit-for-bit at any worker count.
//
// Observability: shard.exchange_rounds / shard.boundary_seeds /
// shard.conflict_retries counters (obs/obs.hpp), plus per-call and
// lifetime ExchangeStats on the engine itself.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "core/matching/matching.hpp"
#include "core/priority/priority_source.hpp"
#include "dynamic/batch_stats.hpp"
#include "dynamic/engine_api.hpp"
#include "dynamic/update_batch.hpp"
#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "graph/types.hpp"
#include "obs/obs.hpp"
#include "parallel/arch.hpp"
#include "shard/batch_router.hpp"
#include "shard/ghost_policy.hpp"
#include "shard/partitioner.hpp"
#include "shard/sharded_version.hpp"
#include "support/check.hpp"
#include "support/thread_annotations.hpp"
#include "txn/engine_snapshot.hpp"
#include "txn/transaction.hpp"

namespace pargreedy {

/// A committed composed read: one ReadView per shard, all pinned at the
/// same version, composed by ownership. Self-contained value type with
/// the same lifetime story as ReadView (shared ownership, no epoch pin
/// held).
template <typename Value>
class ShardedReadView {
 public:
  ShardedReadView() = default;

  ShardedReadView(std::vector<ReadView<Value>> views,
                  std::shared_ptr<const std::vector<uint32_t>> owner)
      : views_(std::move(views)), owner_(std::move(owner)) {}

  /// False for a default-constructed (empty) view.
  [[nodiscard]] bool valid() const noexcept { return !views_.empty(); }

  /// The committed version every per-shard view observes.
  [[nodiscard]] uint64_t version() const {
    check();
    return views_.front().version();
  }

  /// Number of vertices (every shard publishes the full universe).
  [[nodiscard]] std::size_t size() const {
    check();
    return views_.front().size();
  }

  /// v's committed solution entry, read from its owner shard's view.
  [[nodiscard]] Value operator[](VertexId v) const {
    check();
    return views_[(*owner_)[v]][v];
  }

  /// The composed solution as an owned vector (what a single engine's
  /// committed_solution() would have returned).
  [[nodiscard]] std::vector<Value> to_vector() const {
    check();
    const std::size_t n = size();
    std::vector<Value> out(n);
    for (VertexId v = 0; v < n; ++v) out[v] = views_[(*owner_)[v]][v];
    return out;
  }

  /// Torn-read checksums of every per-shard view (see ReadView).
  [[nodiscard]] bool verify_checksums() const {
    check();
    for (const ReadView<Value>& view : views_)
      if (!view.verify_checksum()) return false;
    return true;
  }

  /// The underlying per-shard view (tests/introspection).
  [[nodiscard]] const ReadView<Value>& shard_view(uint32_t s) const {
    check();
    return views_[s];
  }

 private:
  void check() const {
    PG_CHECK_MSG(!views_.empty(), "empty ShardedReadView");
  }

  std::vector<ReadView<Value>> views_;
  std::shared_ptr<const std::vector<uint32_t>> owner_;
};

/// N engines + N lockstep Transactions behind one engine-shaped API
/// (see file comment). Traits is MisTxnTraits or MatchingTxnTraits.
template <typename Traits>
class ShardedEngine {
 public:
  using Engine = typename Traits::Engine;
  using Value = typename Traits::Value;
  using Policy = GhostPolicy<Traits>;
  using Solution = std::vector<Value>;

  static_assert(DynamicEngineApi<Engine>,
                "ShardedEngine requires the unified engine API");

  /// The sharded writer capability: apply_batch/what_if are
  /// single-writer, like the engines they drive.
  support::Role writer_role_;

  /// Deterministic exchange counters, per call and lifetime.
  struct ExchangeStats {
    uint64_t rounds = 0;            ///< exchange rounds run
    uint64_t boundary_seeds = 0;    ///< ghost activity ops applied
    uint64_t conflict_retries = 0;  ///< savepoint rollback + reapply

    void accumulate(const ExchangeStats& other) {
      rounds += other.rounds;
      boundary_seeds += other.boundary_seeds;
      conflict_retries += other.conflict_retries;
    }
  };

  /// Result of a what_if exploration (applied, captured, aborted).
  struct WhatIfResult {
    Solution solution;       ///< composed solution the batch would produce
    BatchStats stats;        ///< routed user-batch stats (forcing excluded)
    ExchangeStats exchange;  ///< exchange work the speculation cost
  };

  /// Partitions `base` under `partitioner` (labels are evaluated once
  /// and cached; the partitioner is not retained), builds one engine
  /// per shard sharing the `source` policy — policies are pure functions
  /// of (vertex, weights), so every shard derives the identical total
  /// priority order — runs the construction exchange to fixpoint, and
  /// adopts the composed state as committed version 0 on every shard.
  /// Shards run at the num_workers() width current at construction.
  ShardedEngine(CsrGraph base, const Partitioner& partitioner,
                PrioritySource source)
      : shards_(partitioner.num_shards()),
        partitioner_name_(partitioner.name()),
        workers_per_shard_(num_workers()),
        owner_(std::make_shared<const std::vector<uint32_t>>(
            partitioner.labels(base.num_vertices()))) {
    const uint64_t n = base.num_vertices();
    ghost_member_.assign(shards_, std::vector<uint8_t>(n, 0));
    ghosts_.resize(shards_);
    for (uint32_t s = 0; s < shards_; ++s) {
      engines_.push_back(std::make_unique<Engine>(
          EngineOptions::with_source(shard_subgraph(base, s), source)));
      support::RoleScope writer(engines_[s]->writer_role_);
      engines_[s]->enable_frontier_tracking(*owner_);
    }
    for (const Edge& e : base.edges())
      if ((*owner_)[e.u] != (*owner_)[e.v]) {
        add_ghost((*owner_)[e.u], e.v);
        add_ghost((*owner_)[e.v], e.u);
      }
    // Construction exchange: ghosts start active (engines activate the
    // whole universe), which is not the composed state — iterate the
    // forcing loop with direct applies, pre-Transaction, so version 0
    // is already the correct composed solution.
    construction_stats_ = run_exchange(nullptr);
    for (uint32_t s = 0; s < shards_; ++s)
      txns_.push_back(std::make_unique<Transaction<Traits>>(*engines_[s]));
  }

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  [[nodiscard]] uint32_t num_shards() const noexcept { return shards_; }

  [[nodiscard]] uint64_t num_vertices() const noexcept {
    return engines_.front()->num_vertices();
  }

  /// The partitioner strategy this engine was built with.
  [[nodiscard]] std::string_view partitioner_name() const noexcept {
    return partitioner_name_;
  }

  /// Owner shard of vertex v (the cached labelling).
  [[nodiscard]] uint32_t owner(VertexId v) const { return (*owner_)[v]; }

  /// Shard s's engine — for queries and tests; mutate only through
  /// apply_batch/what_if (per-shard epoch guards catch violations).
  [[nodiscard]] const Engine& shard_engine(uint32_t s) const {
    return *engines_[s];
  }

  /// Live ghosts of shard s: non-owned vertices with at least one live
  /// edge into the shard (O(candidates), each test O(1) via the
  /// overlay's frontier counters).
  [[nodiscard]] std::vector<VertexId> live_ghosts(uint32_t s) const {
    std::vector<VertexId> out;
    for (const VertexId v : ghosts_[s])
      if (engines_[s]->graph().cross_degree(v) > 0) out.push_back(v);
    return out;
  }

  /// Applies one user batch through the routed, exchanged, lockstep
  /// transaction protocol (see file comment) and commits every shard.
  /// Returns the summed per-shard stats of the routed user sub-batches
  /// (cross edges count in both owners; forcing work is reported via
  /// last_exchange(), not here).
  BatchStats apply_batch(const UpdateBatch& batch)
      PARGREEDY_REQUIRES(writer_role_) {
    const BatchStats stats = exchange_batch(batch, nullptr);
    commit_all();
    return stats;
  }

  /// Applies `batch` speculatively, captures the composed solution the
  /// commit would have published, then aborts every shard — state is
  /// restored bit-exactly (the Transaction abort contract, per shard).
  [[nodiscard]] WhatIfResult what_if(const UpdateBatch& batch)
      PARGREEDY_REQUIRES(writer_role_) {
    WhatIfResult result;
    result.stats = exchange_batch(batch, &result.solution);
    result.exchange = last_exchange_;
    abort_all();
    return result;
  }

  /// The live composed solution (speculative while a caller-driven
  /// exchange is mid-flight; committed otherwise). Reader contract of
  /// the underlying engine queries: safe between writer calls.
  [[nodiscard]] Solution solution() const {
    const uint64_t n = num_vertices();
    Solution out(n);
    for (VertexId v = 0; v < n; ++v)
      out[v] = Policy::value(*engines_[(*owner_)[v]], v);
    return out;
  }

  /// The committed composed state at version `v` (default: newest):
  /// every shard's ReadView pinned at the same version, composed by
  /// ownership. Lock-free per shard; between writer calls the lockstep
  /// clock makes the composition exact.
  [[nodiscard]] ShardedReadView<Value> read(
      uint64_t v = kLatestVersion) const {
    const uint64_t target =
        v == kLatestVersion ? txns_.back()->version() : v;
    std::vector<ReadView<Value>> views;
    views.reserve(shards_);
    for (uint32_t s = 0; s < shards_; ++s)
      views.push_back(txns_[s]->read(target));
    return ShardedReadView<Value>(std::move(views), owner_);
  }

  /// The last committed composed solution; equals read().to_vector().
  [[nodiscard]] Solution committed_solution() const {
    return read().to_vector();
  }

  /// The committed composed solution at version `v`; equals
  /// read(v).to_vector(). Checked (per shard): v within retention.
  [[nodiscard]] Solution solution_at(uint64_t v) const {
    return read(v).to_vector();
  }

  /// The per-shard committed-version vector clock — unified between
  /// writer calls (lockstep commits).
  [[nodiscard]] ShardedVersion version() const {
    ShardedVersion clock;
    clock.shard_versions.reserve(shards_);
    for (uint32_t s = 0; s < shards_; ++s)
      clock.shard_versions.push_back(txns_[s]->version());
    return clock;
  }

  /// The oldest version solution_at() can still serve on every shard.
  [[nodiscard]] uint64_t oldest_version() const {
    uint64_t oldest = 0;
    for (uint32_t s = 0; s < shards_; ++s)
      oldest = std::max(oldest, txns_[s]->oldest_version());
    return oldest;
  }

  /// Exchange counters of the last apply_batch/what_if call.
  [[nodiscard]] const ExchangeStats& last_exchange() const noexcept {
    return last_exchange_;
  }

  /// Exchange counters accumulated since construction (excluding the
  /// construction exchange itself — see construction_exchange()).
  [[nodiscard]] const ExchangeStats& lifetime_exchange() const noexcept {
    return lifetime_exchange_;
  }

  /// Counters of the construction-time exchange that produced version 0.
  [[nodiscard]] const ExchangeStats& construction_exchange() const noexcept {
    return construction_stats_;
  }

 private:
  /// Shard s's base graph: the edges of `base` with at least one s-owned
  /// endpoint, weights carried over, full vertex universe. Filtering
  /// preserves the CSR's canonical edge order, so the subset is already
  /// normalized.
  [[nodiscard]] CsrGraph shard_subgraph(const CsrGraph& base,
                                        uint32_t s) const {
    std::vector<Edge> edges;
    std::vector<Weight> weights;
    const bool weighted = base.has_edge_weights();
    for (EdgeId e = 0; e < base.num_edges(); ++e) {
      const Edge edge = base.edge(e);
      if ((*owner_)[edge.u] != s && (*owner_)[edge.v] != s) continue;
      edges.push_back(edge);
      if (weighted) weights.push_back(base.edge_weight(e));
    }
    CsrGraph g = CsrGraph::from_edges(
        EdgeList(base.num_vertices(), std::move(edges)),
        /*assume_normalized=*/true);
    if (weighted) g.set_edge_weights(std::move(weights));
    if (base.has_vertex_weights())
      g.set_vertex_weights(std::vector<Weight>(
          base.vertex_weights().begin(), base.vertex_weights().end()));
    return g;
  }

  void add_ghost(uint32_t s, VertexId v) {
    if (ghost_member_[s][v]) return;
    ghost_member_[s][v] = 1;
    ghosts_[s].push_back(v);
  }

  /// Shard s's forcing batch: for every live ghost, the activity the
  /// ghost policy derives from its owner's *current* decision, minus
  /// what shard s already believes. Empty iff s is at fixpoint with the
  /// current owner states.
  [[nodiscard]] UpdateBatch compute_forcing(uint32_t s) const {
    UpdateBatch forcing;
    const auto owner_of = [&](VertexId x) { return (*owner_)[x]; };
    for (const VertexId v : ghosts_[s]) {
      if (engines_[s]->graph().cross_degree(v) == 0) continue;
      const bool want =
          Policy::ghost_active(*engines_[(*owner_)[v]], v, s, owner_of);
      if (engines_[s]->active(v) == want) continue;
      if (want)
        forcing.activate(v);
      else
        forcing.deactivate(v);
    }
    return forcing;
  }

  /// Total order on edges, matching DynamicMatching::earlier:
  /// (primary, secondary, canonical endpoint pair).
  using EdgeRank = std::tuple<uint64_t, uint64_t, uint64_t>;
  static constexpr EdgeRank kUnmatchedRank{~uint64_t{0}, ~uint64_t{0},
                                           ~uint64_t{0}};

  /// Matching only. The greedy certificate restricted to the boundary:
  /// for every live cross edge (x, v) with both endpoints active, (a)
  /// the two owner shards agree on whether the edge is matched and (b)
  /// unless it is, one endpoint is matched via an edge no later in the
  /// priority order. Local greedy enforces exactly this for intra-shard
  /// edges (every edge of an owned vertex is stored locally), so passing
  /// it makes the composition the unique global greedy matching — the
  /// induction in shard/ghost_policy.hpp. Each cross edge is checked
  /// from its lower-owner side only.
  [[nodiscard]] bool validate_boundary() const {
    const PrioritySource& source = engines_.front()->priority_source();
    // Rank of y's claimed matching edge (y, p), read from an engine that
    // stores all of y's edges (its owner — or any shard owning p).
    const auto match_rank = [&](const Engine& eng, VertexId y,
                                VertexId p) -> EdgeRank {
      if (p == kInvalidVertex) return kUnmatchedRank;
      const Edge e{std::min(y, p), std::max(y, p)};
      const EdgeSlot slot = eng.graph().find_slot(e.u, e.v);
      PG_CHECK_MSG(slot != kInvalidSlot,
                   "claimed matching edge " << e.u << "-" << e.v
                                            << " is not stored");
      const PriorityKey k = source.edge_key(e, eng.graph().slot_weight(slot));
      return {k.primary, k.secondary, edge_pair_key(e)};
    };
    for (uint32_t s = 0; s < shards_; ++s)
      for (const VertexId v : ghosts_[s]) {
        const uint32_t t = (*owner_)[v];
        if (t < s) continue;
        if (engines_[s]->graph().cross_degree(v) == 0) continue;
        const Engine& owner_eng = *engines_[t];
        if (!owner_eng.active(v)) continue;
        const VertexId pv = owner_eng.matched_with(v);
        const EdgeRank rank_v = match_rank(owner_eng, v, pv);
        bool ok = true;
        engines_[s]->graph().for_incident(
            v, [&](VertexId x, EdgeSlot slot) {
              if (!ok || !engines_[s]->active(x)) return;
              const VertexId px = engines_[s]->matched_with(x);
              if ((px == v) != (pv == x)) {
                ok = false;  // the owners disagree about this pair
                return;
              }
              if (px == v) return;  // matched via this edge: certified
              const Edge e = engines_[s]->graph().slot_edge(slot);
              const PriorityKey k =
                  source.edge_key(e, engines_[s]->graph().slot_weight(slot));
              const EdgeRank rank_e{k.primary, k.secondary,
                                    edge_pair_key(e)};
              // Both endpoints still free when e's turn came: the greedy
              // order is violated at e.
              if (match_rank(*engines_[s], x, px) > rank_e &&
                  rank_v > rank_e)
                ok = false;
            });
        if (!ok) return false;
      }
    return true;
  }

  /// Matching only. Deterministic priority-order arbitration: gather
  /// the composed live+active graph (cross edges deduped by the
  /// min-owner rule), compute the exact global greedy matching, and
  /// re-force every shard's ghosts from that solution — through the
  /// same rollback_to + apply retry path individual conflicts use (or
  /// direct applies in construction mode; the engines' solutions are
  /// pure functions of (live edges, activity), so the landing state is
  /// path-independent). One repropagation per shard then reproduces the
  /// global solution on its owned vertices (shard/ghost_policy.hpp).
  void arbitrate(const std::vector<EngineSnapshot>* savepoints,
                 ExchangeStats& ex, std::vector<uint64_t>& seeds_per_shard,
                 std::vector<uint64_t>& retries_per_shard)
      PARGREEDY_NO_THREAD_SAFETY_ANALYSIS {
    const uint64_t n = num_vertices();
    // Owned activity never changes during the exchange (forcing touches
    // ghosts only), so this is the user-visible activity.
    std::vector<uint8_t> active(n);
    for (VertexId v = 0; v < n; ++v)
      active[v] = engines_[(*owner_)[v]]->active(v) ? 1 : 0;
    std::vector<std::pair<Edge, Weight>> gathered;
    for (uint32_t s = 0; s < shards_; ++s) {
      const auto& overlay = engines_[s]->graph();
      for (EdgeSlot slot = 0; slot < overlay.slot_bound(); ++slot) {
        if (!overlay.slot_live(slot)) continue;
        const Edge e = overlay.slot_edge(slot);
        if (std::min((*owner_)[e.u], (*owner_)[e.v]) != s) continue;
        if (!active[e.u] || !active[e.v]) continue;
        gathered.emplace_back(e, overlay.slot_weight(slot));
      }
    }
    std::sort(gathered.begin(), gathered.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<Edge> edges;
    std::vector<Weight> weights;
    edges.reserve(gathered.size());
    weights.reserve(gathered.size());
    for (const auto& [e, w] : gathered) {
      edges.push_back(e);
      weights.push_back(w);
    }
    CsrGraph g = CsrGraph::from_edges(EdgeList(n, std::move(edges)),
                                      /*assume_normalized=*/true);
    g.set_edge_weights(std::move(weights));
    const PrioritySource& source = engines_.front()->priority_source();
    const std::vector<VertexId> exact =
        mm_sequential(g, source.edge_order(g)).matched_with;
    const auto owner_of = [&](VertexId x) { return (*owner_)[x]; };
    for (uint32_t s = 0; s < shards_; ++s) {
      PG_OBS_SHARD_SCOPE(corr_shard, s);
      if (savepoints != nullptr) {
        support::RoleScope writer(txns_[s]->writer_role_);
        ++ex.conflict_retries;
        ++retries_per_shard[s];
        PG_OBS_EVENT(kConflictRetry);
        txns_[s]->rollback_to((*savepoints)[s]);
      }
      UpdateBatch forcing;
      for (const VertexId v : ghosts_[s]) {
        if (engines_[s]->graph().cross_degree(v) == 0) continue;
        const bool want =
            active[v] &&
            Policy::ghost_active_claims(true, exact[v], s, owner_of);
        if (engines_[s]->active(v) == want) continue;
        if (want)
          forcing.activate(v);
        else
          forcing.deactivate(v);
      }
      ex.boundary_seeds += forcing.size();
      seeds_per_shard[s] += forcing.size();
      if (forcing.empty()) continue;
      ScopedNumWorkers width(workers_per_shard_);
      if (savepoints != nullptr) {
        support::RoleScope writer(txns_[s]->writer_role_);
        txns_[s]->apply(forcing);
      } else {
        support::RoleScope writer(engines_[s]->writer_role_);
        engines_[s]->apply_batch(forcing);
      }
    }
  }

  /// The exchange loop (see file comment). `savepoints` non-null: run
  /// through the open per-shard Transactions with savepoint
  /// conflict-retry; null: construction mode, direct engine applies.
  ExchangeStats run_exchange(const std::vector<EngineSnapshot>* savepoints)
      PARGREEDY_NO_THREAD_SAFETY_ANALYSIS {
    // Construction-time exchange opens its own batch id; the update path
    // inherits exchange_batch()'s, so one UpdateBatch is one batch_id
    // across every shard's rounds, spans, and flight-recorder events.
    PG_OBS_BATCH_SCOPE(corr_batch);
    PG_OBS_SPAN(span_exchange, kRunExchange);
    ExchangeStats ex;
    std::vector<uint64_t> seeds_per_shard(shards_, 0);
    std::vector<uint64_t> retries_per_shard(shards_, 0);
    std::vector<uint8_t> forced(shards_, 0);
    std::vector<UpdateBatch> forcing(shards_);
    bool arbitrated = false;
    for (;;) {
      ++ex.rounds;
      if (ex.rounds > num_vertices() + 4) {
        // Conflict-retry exhaustion: dump the flight recorder before the
        // check below throws, so the oscillation that led here survives.
        PG_OBS_EVENT_DUMP("exchange_divergence");
      }
      PG_CHECK_MSG(ex.rounds <= num_vertices() + 4,
                   "boundary exchange failed to converge after "
                       << ex.rounds - 1 << " rounds");
      // Barrier: derive every shard's forcing batch against the
      // round-start state before applying any of them.
      bool any = false;
      for (uint32_t s = 0; s < shards_; ++s) {
        forcing[s] = compute_forcing(s);
        any = any || !forcing[s].empty();
        PG_OBS_SHARD_SCOPE(corr_shard, s);
        PG_OBS_EVENT2(kExchangeRound, ex.rounds, forcing[s].size());
      }
      if constexpr (!Policy::kUniqueFixpoint) {
        // The claim-driven activity loop has no termination guarantee
        // for matching (claims can chase each other around boundary
        // cycles, with constant-size forcing batches every round — an
        // oscillation, not progress). Genuine convergence tracks the
        // priority-DAG depth of the affected region, which is
        // polylogarithmic in practice, so a loop still churning after
        // O(log n) rounds is almost certainly cycling. Arbitration
        // grounds every ghost in the exact global solution — always
        // correct, cost comparable to one full recompute — after which
        // the next round is delta-free, so force it once then.
        const uint64_t soft_cap =
            16 + 4 * static_cast<uint64_t>(std::bit_width(num_vertices()));
        if (any && !arbitrated && ex.rounds > soft_cap) {
          arbitrated = true;
          PG_OBS_EVENT1(kArbitrate, 1);
          arbitrate(savepoints, ex, seeds_per_shard, retries_per_shard);
          std::fill(forced.begin(), forced.end(), uint8_t{1});
          continue;
        }
      }
      if (!any) {
        if constexpr (Policy::kUniqueFixpoint) {
          break;
        } else {
          // Matching: an activity fixpoint is only a *candidate* — it
          // must pass the boundary certificate (see file comment). A
          // failed candidate is broken once by priority-order
          // arbitration; a second failure would mean the arbitration
          // grounding is wrong, which is a bug, not an input condition.
          if (validate_boundary()) break;
          PG_OBS_EVENT1(kCertFail, ex.rounds);
          if (arbitrated) {
            // Certificate still violated after arbitration is a bug, not
            // an input condition — capture the full lead-up.
            PG_OBS_EVENT_DUMP("certificate_violation");
          }
          PG_CHECK_MSG(!arbitrated,
                       "boundary certificate still violated after "
                       "priority-order arbitration");
          arbitrated = true;
          PG_OBS_EVENT1(kArbitrate, 0);
          arbitrate(savepoints, ex, seeds_per_shard, retries_per_shard);
          std::fill(forced.begin(), forced.end(), uint8_t{1});
          continue;
        }
      }
      for (uint32_t s = 0; s < shards_; ++s) {
        if (forcing[s].empty()) continue;
        PG_OBS_SHARD_SCOPE(corr_shard, s);
        ScopedNumWorkers width(workers_per_shard_);
        if (savepoints == nullptr) {
          // Construction mode: no transactions yet, force directly.
          ex.boundary_seeds += forcing[s].size();
          seeds_per_shard[s] += forcing[s].size();
          PG_OBS_EVENT2(kForcing, ex.rounds, forcing[s].size());
          support::RoleScope writer(engines_[s]->writer_role_);
          engines_[s]->apply_batch(forcing[s]);
          continue;
        }
        support::RoleScope writer(txns_[s]->writer_role_);
        if (forced[s]) {
          // This shard was already forced against assumptions that are
          // now stale: retry through the transaction machinery — rewind
          // to the post-user-batch savepoint and re-force from scratch
          // in one batch.
          ++ex.conflict_retries;
          ++retries_per_shard[s];
          PG_OBS_EVENT1(kConflictRetry, ex.rounds);
          txns_[s]->rollback_to((*savepoints)[s]);
          const UpdateBatch fresh = compute_forcing(s);
          ex.boundary_seeds += fresh.size();
          seeds_per_shard[s] += fresh.size();
          PG_OBS_EVENT2(kForcing, ex.rounds, fresh.size());
          if (!fresh.empty()) txns_[s]->apply(fresh);
        } else {
          forced[s] = 1;
          ex.boundary_seeds += forcing[s].size();
          seeds_per_shard[s] += forcing[s].size();
          PG_OBS_EVENT2(kForcing, ex.rounds, forcing[s].size());
          txns_[s]->apply(forcing[s]);
        }
      }
    }
    PG_OBS_COUNT(obs::kShardExchangeRounds, ex.rounds);
    PG_OBS_COUNT(obs::kShardBoundarySeeds, ex.boundary_seeds);
    PG_OBS_COUNT(obs::kShardConflictRetries, ex.conflict_retries);
    for (uint32_t s = 0; s < shards_; ++s) {
      // Per-shard refinement (registered even at zero so every shard's
      // series exists): a skewed shard shows up here, not hidden in the
      // merged totals above.
      PG_OBS_COUNT_L(obs::kShardBoundarySeeds, "shard", std::to_string(s),
                     seeds_per_shard[s]);
      PG_OBS_COUNT_L(obs::kShardConflictRetries, "shard", std::to_string(s),
                     retries_per_shard[s]);
    }
    PG_OBS_SPAN_ARG(span_exchange, ex.rounds);
    return ex;
  }

  // The bodies below acquire per-shard capabilities through loop-indexed
  // expressions (txns_[s]->writer_role_), which are outside what
  // -Wthread-safety can resolve — hence the explicit suppressions. The
  // contract they uphold is the same single-writer protocol the
  // annotations document: every entry point REQUIRES(writer_role_), and
  // one thread drives all shards sequentially.

  /// Commits every shard in index order (lockstep clock advance).
  void commit_all() PARGREEDY_NO_THREAD_SAFETY_ANALYSIS {
    for (uint32_t s = 0; s < shards_; ++s) {
      support::RoleScope writer(txns_[s]->writer_role_);
      txns_[s]->commit();
    }
  }

  /// Aborts every shard in index order (state restored bit-exactly).
  void abort_all() PARGREEDY_NO_THREAD_SAFETY_ANALYSIS {
    for (uint32_t s = 0; s < shards_; ++s) {
      support::RoleScope writer(txns_[s]->writer_role_);
      txns_[s]->abort();
    }
  }

  /// Shared body of apply_batch/what_if: route, begin lockstep, apply
  /// sub-batches, savepoint, exchange to fixpoint. Leaves every shard's
  /// transaction OPEN (the caller commits or aborts). When `capture` is
  /// non-null the composed speculative solution is stored there before
  /// returning.
  BatchStats exchange_batch(const UpdateBatch& batch, Solution* capture)
      PARGREEDY_NO_THREAD_SAFETY_ANALYSIS {
    PG_CHECK_MSG(batch.endpoints_in_range(num_vertices()),
                 "batch references a vertex >= " << num_vertices());
    // One batch_id for the whole update: the per-shard engine applies
    // below and every exchange round in run_exchange inherit it.
    PG_OBS_BATCH_SCOPE(corr_batch);
    PG_OBS_SPAN1(span_batch, kExchangeBatch, batch.size());
    RoutedBatch routed = route_batch(batch, *owner_, shards_);
    for (uint32_t s = 0; s < shards_; ++s)
      for (const VertexId v : routed.new_ghosts[s]) add_ghost(s, v);
    BatchStats stats;
    std::vector<EngineSnapshot> savepoints;
    savepoints.reserve(shards_);
    for (uint32_t s = 0; s < shards_; ++s) {
      PG_OBS_SHARD_SCOPE(corr_shard, s);
      PG_OBS_EVENT1(kShardApply, routed.per_shard[s].size());
      support::RoleScope writer(txns_[s]->writer_role_);
      txns_[s]->begin();
      if (!routed.per_shard[s].empty()) {
        ScopedNumWorkers width(workers_per_shard_);
        stats.accumulate(txns_[s]->apply(routed.per_shard[s]));
      }
      savepoints.push_back(txns_[s]->savepoint());
    }
    last_exchange_ = run_exchange(&savepoints);
    lifetime_exchange_.accumulate(last_exchange_);
    if (capture != nullptr) *capture = solution();
    return stats;
  }

  uint32_t shards_;
  std::string partitioner_name_;
  int workers_per_shard_;
  // The cached ownership labelling, shared with composed read views.
  std::shared_ptr<const std::vector<uint32_t>> owner_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<std::unique_ptr<Transaction<Traits>>> txns_;
  // Ghost candidate sets, per shard: every vertex that ever had a local
  // cross edge (append-only; liveness is re-checked against the
  // overlay's cross_degree, so stale candidates cost one O(1) test).
  std::vector<std::vector<VertexId>> ghosts_;
  std::vector<std::vector<uint8_t>> ghost_member_;
  ExchangeStats last_exchange_;
  ExchangeStats lifetime_exchange_;
  ExchangeStats construction_stats_;
};

/// Sharded dynamic MIS (uint8_t in_set entries).
using ShardedMisEngine = ShardedEngine<MisTxnTraits>;

/// Sharded dynamic matching (VertexId partner entries).
using ShardedMatchingEngine = ShardedEngine<MatchingTxnTraits>;

}  // namespace pargreedy
