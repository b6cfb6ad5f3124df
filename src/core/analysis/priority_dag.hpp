// Priority-DAG analysis (Section 3).
//
// For a graph G and ordering pi, the priority DAG directs every edge from
// its earlier endpoint to its later one. Two quantities matter:
//
//  * dependence length — the number of steps Algorithm 2 takes (peel roots,
//    remove them and their children, repeat). This is what Theorem 3.5
//    bounds by O(log^2 n) w.h.p. for random pi.
//  * longest directed path — an upper bound on the dependence length used
//    throughout the analysis (Lemma 3.3); can be much larger (complete
//    graph: path length n-1, dependence length 1).
#pragma once

#include <cstdint>
#include <vector>

#include "core/mis/vertex_order.hpp"
#include "core/priority/priority_source.hpp"
#include "graph/csr_graph.hpp"

namespace pargreedy {

/// Summary statistics of the priority DAG for (g, order).
struct PriorityDagStats {
  uint64_t roots = 0;             ///< vertices with no earlier neighbor
  uint64_t max_parents = 0;       ///< maximum in-degree
  uint64_t longest_path = 0;      ///< vertices on the longest directed path
  uint64_t dependence_length = 0; ///< steps of Algorithm 2
};

/// Number of vertices on the longest directed path of the priority DAG
/// (0 for the empty graph; 1 for any non-empty edgeless graph).
uint64_t longest_priority_path(const CsrGraph& g, const VertexOrder& order);

/// Per-vertex longest-path lengths: len[v] = 1 + max over earlier
/// neighbors (1 if none). Sequential DP in rank order.
std::vector<uint32_t> priority_path_lengths(const CsrGraph& g,
                                            const VertexOrder& order);

/// The dependence length: number of iterations of Algorithm 2, measured by
/// running it step-synchronously (mis_prefix with the whole graph as its
/// window).
uint64_t dependence_length(const CsrGraph& g, const VertexOrder& order);

/// All statistics at once.
PriorityDagStats priority_dag_stats(const CsrGraph& g,
                                    const VertexOrder& order);

/// Longest directed path of the DAG induced by a priority policy
/// (materializes source.vertex_order(g) and delegates). How weights shape
/// the DAG is the question the weighted_priority bench answers with this.
uint64_t longest_priority_path(const CsrGraph& g,
                               const PrioritySource& source);

/// Dependence length of the DAG induced by a priority policy.
uint64_t dependence_length(const CsrGraph& g, const PrioritySource& source);

/// All statistics for the DAG induced by a priority policy.
PriorityDagStats priority_dag_stats(const CsrGraph& g,
                                    const PrioritySource& source);

}  // namespace pargreedy
