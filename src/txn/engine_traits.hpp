// Engine traits for the transaction layer: the few engine-specific
// facts Transaction<Traits> needs beyond the shared txn_* seams — the
// engine type, its solution entry type, how to copy the solution out
// for the version-0 baseline, and which solution entries an open
// transaction changed, for patching every later version.
//
//   MisTxnTraits       solution is the in_set bitmap (uint8_t per vertex);
//                      a decision record's item is the vertex itself.
//   MatchingTxnTraits  solution is the matched_with partner array
//                      (VertexId per vertex, kInvalidVertex if unmatched);
//                      a decision record's item is an edge slot, whose
//                      two endpoints are the entries that may change.
//
// changed_entries() reads the decision records of the open
// transaction's journal (all of it: begin() finds it empty). Under a
// journal every solution change starts at a recorded decision flip: an
// in_set bit, or a matched bit of a slot incident to the vertex
// (repropagate() and matching's eager drops record each one, and
// rollback_to() truncates the records it undoes). So the vertices the
// records name cover every entry that differs from the last published
// version. The pairs are deduplicated by vertex and carry the
// current value; an entry flipped and flipped back is a harmless
// unchanged pair.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dynamic/dynamic_matching.hpp"
#include "dynamic/dynamic_mis.hpp"
#include "dynamic/engine_api.hpp"
#include "dynamic/repropagate.hpp"
#include "dynamic/undo_log.hpp"
#include "graph/types.hpp"
#include "parallel/parallel_for.hpp"
#include "txn/published_state.hpp"

namespace pargreedy {

// The contract check for the unified engine surface: every engine the
// transaction (and shard) layer binds to must model DynamicEngineApi
// (dynamic/engine_api.hpp). Asserted here — next to the traits that do
// the binding — so an engine drifting away from the shared API fails to
// compile at the layer that depends on it.
static_assert(DynamicEngineApi<DynamicMis>,
              "DynamicMis no longer models the unified engine API");
static_assert(DynamicEngineApi<DynamicMatching>,
              "DynamicMatching no longer models the unified engine API");

/// Transaction-layer binding for DynamicMis (see file comment).
struct MisTxnTraits {
  using Engine = DynamicMis;
  using Value = uint8_t;

  /// Label value of the per-policy `txn.*{engine=...}` obs series.
  static constexpr const char* kName = "mis";

  static std::vector<Value> solution(const Engine& engine) {
    return engine.solution();
  }

  /// (vertex, in_set) for every vertex a decision record in `journal`
  /// names, sorted by vertex.
  static std::vector<EntryChange<Value>> changed_entries(
      const Engine& engine, const UndoJournal& journal) {
    std::vector<VertexId> touched;
    for (std::size_t i = 0; i < journal.size(); ++i)
      if (journal[i].kind == UndoRecord::Kind::kDecision)
        touched.push_back(static_cast<VertexId>(journal[i].index));
    sort_unique(touched);
    std::vector<EntryChange<Value>> out;
    out.reserve(touched.size());
    for (const VertexId v : touched)
      out.emplace_back(v, static_cast<Value>(engine.in_set(v)));
    return out;
  }
};

/// Transaction-layer binding for DynamicMatching (see file comment).
struct MatchingTxnTraits {
  using Engine = DynamicMatching;
  using Value = VertexId;

  /// Label value of the per-policy `txn.*{engine=...}` obs series.
  static constexpr const char* kName = "matching";

  static std::vector<Value> solution(const Engine& engine) {
    return engine.solution();
  }

  /// (vertex, matched_with) for both endpoints of every slot a decision
  /// record in `journal` names, sorted by vertex. Slots are mapped to
  /// endpoints here, before commit's compaction re-keys them.
  static std::vector<EntryChange<Value>> changed_entries(
      const Engine& engine, const UndoJournal& journal) {
    std::vector<VertexId> touched;
    for (std::size_t i = 0; i < journal.size(); ++i) {
      if (journal[i].kind != UndoRecord::Kind::kDecision) continue;
      const Edge e = engine.graph().slot_edge(journal[i].index);
      touched.push_back(e.u);
      touched.push_back(e.v);
    }
    sort_unique(touched);
    std::vector<EntryChange<Value>> out(touched.size());
    parallel_for(0, static_cast<int64_t>(touched.size()), [&](int64_t i) {
      const VertexId v = touched[static_cast<std::size_t>(i)];
      out[static_cast<std::size_t>(i)] = {v, engine.matched_with(v)};
    });
    return out;
  }
};

}  // namespace pargreedy
