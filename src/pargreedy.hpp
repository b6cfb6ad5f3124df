// ParGreedy — umbrella header for the public API.
//
// Deterministic parallel greedy maximal independent set and maximal
// matching, after Blelloch, Fineman & Shun, "Greedy Sequential Maximal
// Independent Set and Matching are Parallel on Average" (SPAA 2012).
//
// Typical usage:
//
//   #include "pargreedy.hpp"
//   using namespace pargreedy;
//
//   CsrGraph g = CsrGraph::from_edges(random_graph_nm(n, m, seed));
//   VertexOrder pi = VertexOrder::random(g.num_vertices(), seed);
//   MisResult mis = mis_prefix(g, pi, /*prefix_size=*/g.num_vertices()/50);
//   // mis.in_set equals mis_sequential(g, pi).in_set, at any thread count.
#pragma once

#include "core/analysis/priority_dag.hpp"
#include "core/analysis/profiles.hpp"
#include "core/matching/edge_order.hpp"
#include "core/matching/matching.hpp"
#include "core/matching/verify.hpp"
#include "core/mis/mis.hpp"
#include "core/mis/verify.hpp"
#include "core/mis/vertex_order.hpp"
#include "core/priority/priority_source.hpp"
#include "core/speculative_for.hpp"
#include "dynamic/batch_stats.hpp"
#include "dynamic/dynamic_matching.hpp"
#include "dynamic/dynamic_mis.hpp"
#include "dynamic/engine_api.hpp"
#include "dynamic/overlay_graph.hpp"
#include "dynamic/repropagate.hpp"
#include "dynamic/undo_log.hpp"
#include "dynamic/update_batch.hpp"
#include "extensions/clique.hpp"
#include "extensions/coloring.hpp"
#include "extensions/spanning_forest.hpp"
#include "extensions/union_find.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "graph/graph_ops.hpp"
#include "graph/io.hpp"
#include "graph/types.hpp"
#include "graph/validate.hpp"
#include "obs/obs.hpp"
#include "parallel/arch.hpp"
#include "random/hash.hpp"
#include "random/permutation.hpp"
#include "shard/batch_router.hpp"
#include "shard/ghost_policy.hpp"
#include "shard/partitioner.hpp"
#include "shard/sharded_engine.hpp"
#include "shard/sharded_version.hpp"
#include "support/env.hpp"
#include "support/table.hpp"
#include "support/timing.hpp"
#include "txn/engine_snapshot.hpp"
#include "txn/engine_traits.hpp"
#include "txn/epoch.hpp"
#include "txn/published_state.hpp"
#include "txn/read_view.hpp"
#include "txn/transaction.hpp"
