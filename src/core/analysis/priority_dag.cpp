#include "core/analysis/priority_dag.hpp"

#include <algorithm>

#include "core/mis/mis.hpp"
#include "parallel/reduce.hpp"
#include "support/check.hpp"

namespace pargreedy {

std::vector<uint32_t> priority_path_lengths(const CsrGraph& g,
                                            const VertexOrder& order) {
  const uint64_t n = g.num_vertices();
  PG_CHECK_MSG(order.size() == n, "ordering size != vertex count");
  std::vector<uint32_t> len(n, 0);
  // Process vertices in priority order: all earlier neighbors of order[i]
  // are finalized before i, so a single sequential sweep is a valid DP.
  for (uint64_t i = 0; i < n; ++i) {
    const VertexId v = order.nth(i);
    uint32_t best = 0;
    for (VertexId w : g.neighbors(v))
      if (order.earlier(w, v)) best = std::max(best, len[w]);
    len[v] = best + 1;
  }
  return len;
}

uint64_t longest_priority_path(const CsrGraph& g, const VertexOrder& order) {
  if (g.num_vertices() == 0) return 0;
  const std::vector<uint32_t> len = priority_path_lengths(g, order);
  return reduce_max<uint32_t>(
      0, static_cast<int64_t>(len.size()), 0,
      [&](int64_t v) { return len[static_cast<std::size_t>(v)]; });
}

uint64_t dependence_length(const CsrGraph& g, const VertexOrder& order) {
  // Algorithm 3 with the whole graph as its window is Algorithm 2.
  const MisResult r =
      mis_prefix(g, order, g.num_vertices(), ProfileLevel::kCounters);
  return r.profile.steps;
}

uint64_t longest_priority_path(const CsrGraph& g,
                               const PrioritySource& source) {
  return longest_priority_path(g, source.vertex_order(g));
}

uint64_t dependence_length(const CsrGraph& g, const PrioritySource& source) {
  return dependence_length(g, source.vertex_order(g));
}

PriorityDagStats priority_dag_stats(const CsrGraph& g,
                                    const PrioritySource& source) {
  return priority_dag_stats(g, source.vertex_order(g));
}

PriorityDagStats priority_dag_stats(const CsrGraph& g,
                                    const VertexOrder& order) {
  PriorityDagStats stats;
  const int64_t n = static_cast<int64_t>(g.num_vertices());
  stats.roots = static_cast<uint64_t>(count_if(0, n, [&](int64_t vi) {
    const VertexId v = static_cast<VertexId>(vi);
    for (VertexId w : g.neighbors(v))
      if (order.earlier(w, v)) return false;
    return true;
  }));
  stats.max_parents = reduce_max<uint64_t>(0, n, 0, [&](int64_t vi) {
    const VertexId v = static_cast<VertexId>(vi);
    uint64_t parents = 0;
    for (VertexId w : g.neighbors(v)) parents += order.earlier(w, v) ? 1 : 0;
    return parents;
  });
  stats.longest_path = longest_priority_path(g, order);
  stats.dependence_length = dependence_length(g, order);
  return stats;
}

}  // namespace pargreedy
