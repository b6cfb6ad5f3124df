#include "extensions/spanning_forest.hpp"

#include <atomic>

#include "core/speculative_for.hpp"
#include "extensions/union_find.hpp"
#include "graph/graph_ops.hpp"
#include "parallel/atomics.hpp"
#include "parallel/pack.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "support/check.hpp"

namespace pargreedy {

std::vector<EdgeId> ForestResult::members() const {
  return pack_index<EdgeId>(static_cast<int64_t>(in_forest.size()),
                            [&](int64_t e) {
                              return in_forest[static_cast<std::size_t>(e)] != 0;
                            });
}

uint64_t ForestResult::size() const {
  return static_cast<uint64_t>(reduce_add<int64_t>(
      0, static_cast<int64_t>(in_forest.size()), [&](int64_t e) {
        return in_forest[static_cast<std::size_t>(e)] ? 1 : 0;
      }));
}

ForestResult spanning_forest_sequential(const CsrGraph& g,
                                        const EdgeOrder& order) {
  PG_CHECK_MSG(order.size() == g.num_edges(), "ordering size != edge count");
  ForestResult result;
  result.in_forest.assign(g.num_edges(), 0);
  UnionFind uf(g.num_vertices());
  for (uint64_t i = 0; i < g.num_edges(); ++i) {
    const EdgeId e = order.nth(i);
    const Edge ed = g.edge(e);
    if (uf.unite(ed.u, ed.v)) result.in_forest[e] = 1;
  }
  result.profile.rounds = g.num_edges();
  result.profile.work_items = g.num_edges();
  return result;
}

namespace {

constexpr uint32_t kFreeSlot = 0xffffffffu;

/// The speculative_for step for greedy spanning forest.
///
/// reserve: if the endpoints' components already coincide, the edge is a
/// non-forest edge (done). Otherwise bid this edge's rank on both roots.
/// commit: winning EITHER root is enough to keep the edge — owning a root
/// means no earlier unresolved edge touches that component (any such edge
/// would have bid a lower rank on it), so the sequential loop would reach
/// this edge with the two components still separate. The owned root is
/// linked under the other side; the far root may be linked concurrently by
/// its own winner, which only deepens the union-find chain, never breaks
/// it. Requiring *both* roots (the naive protocol) serializes on hub
/// components — every edge attaching to a giant component would commit one
/// per round — and degrades to quadratic work; winning one side restores
/// the expected O(log) rounds of parallel component merging.
struct ForestStep {
  const CsrGraph& g;
  const EdgeOrder& order;
  UnionFind& uf;
  std::vector<std::atomic<uint32_t>>& slot;
  std::vector<VertexId>& root_u;  // roots stashed by reserve for commit
  std::vector<VertexId>& root_v;
  std::vector<uint8_t>& in_forest;

  PhaseResult reserve(int64_t i) {
    const EdgeId e = order.nth(static_cast<uint64_t>(i));
    const Edge ed = g.edge(e);
    const VertexId ru = uf.find(ed.u);
    const VertexId rv = uf.find(ed.v);
    if (ru == rv) return {true, 0};  // already connected: resolved, not kept
    root_u[e] = ru;
    root_v[e] = rv;
    atomic_write_min(slot[ru], static_cast<uint32_t>(i));
    atomic_write_min(slot[rv], static_cast<uint32_t>(i));
    return {};
  }

  PhaseResult commit(int64_t i) {
    const EdgeId e = order.nth(static_cast<uint64_t>(i));
    const auto r = static_cast<uint32_t>(i);
    const VertexId ru = root_u[e];
    const VertexId rv = root_v[e];
    const bool won_u = slot[ru].load(std::memory_order_relaxed) == r;
    const bool won_v = slot[rv].load(std::memory_order_relaxed) == r;
    if (won_u) {
      uf.link(ru, rv);  // we own ru exclusively; rv may gain other children
      in_forest[e] = 1;
      slot[ru].store(kFreeSlot, std::memory_order_relaxed);
      if (won_v) slot[rv].store(kFreeSlot, std::memory_order_relaxed);
      return {true, 0};
    }
    if (won_v) {
      uf.link(rv, ru);
      in_forest[e] = 1;
      slot[rv].store(kFreeSlot, std::memory_order_relaxed);
      return {true, 0};
    }
    return {};  // lost both bids: retry next round
  }
};

}  // namespace

ForestResult spanning_forest_prefix(const CsrGraph& g, const EdgeOrder& order,
                                    uint64_t prefix_size) {
  PG_CHECK_MSG(order.size() == g.num_edges(), "ordering size != edge count");
  ForestResult result;
  result.in_forest.assign(g.num_edges(), 0);
  UnionFind uf(g.num_vertices());
  std::vector<std::atomic<uint32_t>> slot(g.num_vertices());
  parallel_for(0, static_cast<int64_t>(g.num_vertices()), [&](int64_t v) {
    slot[static_cast<std::size_t>(v)].store(kFreeSlot,
                                            std::memory_order_relaxed);
  });
  std::vector<VertexId> root_u(g.num_edges());
  std::vector<VertexId> root_v(g.num_edges());

  ForestStep step{g, order, uf, slot, root_u, root_v, result.in_forest};
  const uint64_t m = g.num_edges();
  result.profile = speculative_for(step, 0, static_cast<int64_t>(m),
                                   clamp_window(prefix_size, m));
  return result;
}

bool is_spanning_forest(const CsrGraph& g,
                        std::span<const uint8_t> in_forest) {
  PG_CHECK(in_forest.size() == g.num_edges());
  // Acyclic: adding every flagged edge to a union-find must always unite
  // two distinct sets.
  UnionFind uf(g.num_vertices());
  uint64_t forest_edges = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!in_forest[e]) continue;
    ++forest_edges;
    if (!uf.unite(g.edge(e).u, g.edge(e).v)) return false;  // cycle
  }
  // Spanning: exactly n - #components edges.
  const uint64_t components = count_components(g);
  return forest_edges == g.num_vertices() - components;
}

}  // namespace pargreedy
