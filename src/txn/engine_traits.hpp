// Engine traits for the transaction layer: the few engine-specific
// facts Transaction<Traits> needs beyond the shared txn_* seams — the
// engine type, its solution entry type, and how to copy the solution
// out for publication.
//
//   MisTxnTraits       solution is the in_set bitmap (uint8_t per vertex).
//   MatchingTxnTraits  solution is the matched_with partner array
//                      (VertexId per vertex, kInvalidVertex if unmatched).
#pragma once

#include <cstdint>
#include <vector>

#include "dynamic/dynamic_matching.hpp"
#include "dynamic/dynamic_mis.hpp"
#include "dynamic/engine_api.hpp"
#include "graph/types.hpp"

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
};

}  // namespace pargreedy
