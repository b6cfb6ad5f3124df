// Greedy graph coloring — a second "other greedy loop" application of the
// prefix approach (Section 7's direction), and the basis of the
// graph_coloring example.
//
// The sequential greedy coloring assigns each vertex, in order pi, the
// smallest color unused by its earlier neighbors. A vertex's color depends
// only on its earlier neighbors' colors — the same dependence structure as
// MIS — so the prefix window parallelizes it with the identical result.
// Uses at most Delta + 1 colors.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/analysis/profiles.hpp"
#include "core/mis/vertex_order.hpp"
#include "graph/csr_graph.hpp"

namespace pargreedy {

/// Sentinel for "not yet colored".
inline constexpr uint32_t kUncolored = 0xffffffffu;

/// Result of a greedy coloring.
struct ColoringResult {
  std::vector<uint32_t> color;  ///< color[v] in [0, num_colors)
  uint32_t num_colors = 0;
  RunProfile profile;
};

/// Sequential greedy (first-fit) coloring in order pi.
ColoringResult greedy_coloring_sequential(const CsrGraph& g,
                                          const VertexOrder& order);

/// Prefix-parallel first-fit coloring; identical output to the sequential
/// algorithm for any worker count. Its rounds and work depend only on the
/// input and the window: at a window covering the graph, rounds equal
/// longest_priority_path(g, order).
ColoringResult greedy_coloring_prefix(const CsrGraph& g,
                                      const VertexOrder& order,
                                      uint64_t prefix_size);

/// True iff no edge is monochromatic and every vertex has a color.
bool is_proper_coloring(const CsrGraph& g, std::span<const uint32_t> color);

}  // namespace pargreedy
