// The one public surface shared by every batch-dynamic engine.
//
// Two things live here:
//
//   EngineOptions     the single constructor argument of DynamicMis and
//                     DynamicMatching. The engines used to grow one
//                     constructor overload per configuration axis (seed,
//                     PrioritySource, ...); every axis is now a field of
//                     this struct and the overloads are gone. Callers
//                     build options with the named factories (seeded /
//                     with_source) so call sites read as intent, not
//                     positional soup.
//
//   DynamicEngineApi  the concept the generic layers program against.
//                     Transaction<Traits> (src/txn/) and ShardedEngine
//                     (src/shard/) only ever touch an engine through the
//                     operations listed here; engine_traits.hpp
//                     static_asserts that both engines model it, so a
//                     drifting engine surface is a compile error at the
//                     point that documents the contract.
//
// The concept deliberately names the *transactional* seam (txn_attach /
// txn_mark / txn_rollback) next to the everyday operations: an engine that
// cannot checkpoint and roll back in O(dirty) cannot sit under the txn or
// shard layers, so the requirement is part of the public contract rather
// than a private handshake.
//
// Option semantics (identical to the removed overloads, bit for bit):
//
//   seeded(g, seed)        random-hash priorities; for DynamicMis the
//                          materialized pi is VertexOrder::random(n, seed).
//   with_source(g, src)    pi / edge keys derived from the PrioritySource
//                          policy (weighted greedy under the weight
//                          policies).
#pragma once

#include <concepts>
#include <cstdint>
#include <utility>

#include "core/priority/priority_source.hpp"
#include "dynamic/batch_stats.hpp"
#include "dynamic/overlay_graph.hpp"
#include "dynamic/undo_log.hpp"
#include "dynamic/update_batch.hpp"
#include "graph/csr_graph.hpp"

namespace pargreedy {

/// The single constructor argument of the dynamic engines (see file
/// comment). Move-only in spirit: the graph is consumed by the engine, so
/// build the options inline at the construction site.
struct EngineOptions {
  /// The base graph the engine starts from (consumed).
  CsrGraph graph;

  /// Priority policy. Defaults to random_hash(0) so a value-initialized
  /// options struct is still valid.
  PrioritySource source = PrioritySource::random_hash(0);

  /// Random-hash priorities from `seed` — the historical `(graph, seed)`
  /// constructor, bit for bit.
  [[nodiscard]] static EngineOptions seeded(CsrGraph graph, uint64_t seed) {
    EngineOptions opts;
    opts.graph = std::move(graph);
    opts.source = PrioritySource::random_hash(seed);
    return opts;
  }

  /// Priorities from a PrioritySource policy — the historical
  /// `(graph, source)` constructor.
  [[nodiscard]] static EngineOptions with_source(CsrGraph graph,
                                                PrioritySource source) {
    EngineOptions opts;
    opts.graph = std::move(graph);
    opts.source = std::move(source);
    return opts;
  }
};

/// The operations the generic layers (Transaction, ShardedEngine) rely
/// on. Both engines model this; engine_traits.hpp carries the
/// static_asserts. The writer-role requirements on the mutators are
/// invisible here (requires-expressions are unevaluated) but still
/// enforced at every real call site by -Wthread-safety.
template <typename E>
concept DynamicEngineApi =
    std::constructible_from<E, EngineOptions> &&
    requires(E& e, const E& ce, const UpdateBatch& batch, UndoJournal* journal,
             const TxnMark& mark, VertexId v) {
      // Everyday queries (reader-safe between writer calls).
      { ce.num_vertices() } noexcept -> std::same_as<uint64_t>;
      { ce.num_edges() } noexcept -> std::same_as<uint64_t>;
      { ce.active(v) } noexcept -> std::same_as<bool>;
      { ce.epoch() } noexcept -> std::same_as<uint64_t>;
      { ce.graph() } -> std::same_as<const OverlayGraph&>;
      { ce.active_subgraph() } -> std::same_as<CsrGraph>;
      { ce.lifetime_stats() } noexcept -> std::same_as<const BatchStats&>;
      { ce.solution() };  // value type is engine-specific (Traits::Value)
      // Mutators (single writer).
      { e.apply_batch(batch) } -> std::same_as<BatchStats>;
      { e.set_compaction_threshold(0.0) };
      { e.compact() };
      { e.compact_if_needed() } -> std::same_as<bool>;
      // Transactional seam (O(1) checkpoint, O(dirty) rollback).
      { e.txn_attach(journal) };
      { e.txn_detach() };
      { e.txn_mark() } -> std::same_as<TxnMark>;
      { e.txn_rollback(mark) };
    };

}  // namespace pargreedy
