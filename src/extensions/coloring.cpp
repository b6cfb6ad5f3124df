#include "extensions/coloring.hpp"

#include <atomic>

#include "core/speculative_for.hpp"
#include "parallel/reduce.hpp"
#include "support/check.hpp"

namespace pargreedy {

namespace {

/// Smallest color not used by v's earlier neighbors. Requires all earlier
/// neighbors colored. O(deg(v)^2 / word) via a small mark vector.
uint32_t first_fit_color(const CsrGraph& g, const VertexOrder& order,
                         const std::vector<uint32_t>& color, VertexId v,
                         std::vector<uint8_t>& scratch) {
  const uint64_t deg = g.degree(v);
  scratch.assign(deg + 1, 0);
  for (VertexId w : g.neighbors(v)) {
    if (!order.earlier(w, v)) continue;
    const uint32_t c =
        std::atomic_ref<const uint32_t>(color[w]).load(
            std::memory_order_acquire);
    PG_DCHECK(c != kUncolored);
    if (c <= deg) scratch[c] = 1;
  }
  for (uint32_t c = 0; c <= deg; ++c)
    if (!scratch[c]) return c;
  return static_cast<uint32_t>(deg);  // unreachable: deg+1 slots, deg nbrs
}

/// speculative_for step: a vertex commits once all earlier neighbors are
/// colored; vertices committing in the same round are never dependent, so
/// the first-fit computation reads stable colors. Whether an earlier
/// neighbor colored in the same round is seen depends on the schedule, so
/// the colors are deterministic and the round count is not.
struct ColorStep {
  const CsrGraph& g;
  const VertexOrder& order;
  std::vector<uint32_t>& color;

  PhaseResult reserve(int64_t) { return {}; }

  PhaseResult commit(int64_t i) {
    const VertexId v = order.nth(static_cast<uint64_t>(i));
    for (VertexId w : g.neighbors(v)) {
      if (!order.earlier(w, v)) continue;
      if (std::atomic_ref<const uint32_t>(color[w]).load(
              std::memory_order_acquire) == kUncolored)
        return {};  // an earlier neighbor is pending: retry
    }
    thread_local std::vector<uint8_t> scratch;
    const uint32_t c = first_fit_color(g, order, color, v, scratch);
    std::atomic_ref<uint32_t>(color[v]).store(c, std::memory_order_release);
    return {true, 0};
  }
};

uint32_t count_colors(const std::vector<uint32_t>& color) {
  uint32_t max_color = 0;
  bool any = false;
  for (uint32_t c : color) {
    if (c == kUncolored) continue;
    any = true;
    if (c > max_color) max_color = c;
  }
  return any ? max_color + 1 : 0;
}

}  // namespace

ColoringResult greedy_coloring_sequential(const CsrGraph& g,
                                          const VertexOrder& order) {
  PG_CHECK_MSG(order.size() == g.num_vertices(),
               "ordering size != vertex count");
  ColoringResult result;
  result.color.assign(g.num_vertices(), kUncolored);
  std::vector<uint8_t> scratch;
  for (uint64_t i = 0; i < g.num_vertices(); ++i) {
    const VertexId v = order.nth(i);
    result.color[v] = first_fit_color(g, order, result.color, v, scratch);
  }
  result.num_colors = count_colors(result.color);
  result.profile.rounds = g.num_vertices();
  result.profile.work_items = g.num_vertices();
  return result;
}

ColoringResult greedy_coloring_prefix(const CsrGraph& g,
                                      const VertexOrder& order,
                                      uint64_t prefix_size) {
  PG_CHECK_MSG(order.size() == g.num_vertices(),
               "ordering size != vertex count");
  ColoringResult result;
  result.color.assign(g.num_vertices(), kUncolored);
  ColorStep step{g, order, result.color};
  const uint64_t n = g.num_vertices();
  result.profile = speculative_for(step, 0, static_cast<int64_t>(n),
                                   clamp_window(prefix_size, n));
  result.num_colors = count_colors(result.color);
  return result;
}

bool is_proper_coloring(const CsrGraph& g, std::span<const uint32_t> color) {
  PG_CHECK(color.size() == g.num_vertices());
  const int64_t n = static_cast<int64_t>(g.num_vertices());
  const int64_t bad = count_if(0, n, [&](int64_t vi) {
    const VertexId v = static_cast<VertexId>(vi);
    if (color[v] == kUncolored) return true;
    for (VertexId w : g.neighbors(v))
      if (color[w] == color[v]) return true;
    return false;
  });
  return bad == 0;
}

}  // namespace pargreedy
