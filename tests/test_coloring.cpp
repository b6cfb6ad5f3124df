// Unit tests for the greedy (first-fit) coloring extension — the second
// "other greedy loop" demonstration of the prefix approach (Section 7).
// The prefix-parallel coloring must equal the sequential first-fit
// coloring exactly, for any window and worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/analysis/priority_dag.hpp"
#include "extensions/coloring.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "graph/graph_ops.hpp"
#include "parallel/arch.hpp"

namespace pargreedy {
namespace {

TEST(ColoringSequential, PathUsesTwoColors) {
  const CsrGraph g = CsrGraph::from_edges(path_graph(20));
  const ColoringResult r =
      greedy_coloring_sequential(g, VertexOrder::identity(20));
  EXPECT_EQ(r.num_colors, 2u);
  EXPECT_TRUE(is_proper_coloring(g, r.color));
  for (VertexId v = 0; v < 20; ++v) EXPECT_EQ(r.color[v], v % 2);
}

TEST(ColoringSequential, CompleteGraphNeedsNColors) {
  const CsrGraph g = CsrGraph::from_edges(complete_graph(9));
  const ColoringResult r =
      greedy_coloring_sequential(g, VertexOrder::random(9, 1));
  EXPECT_EQ(r.num_colors, 9u);
  EXPECT_TRUE(is_proper_coloring(g, r.color));
}

TEST(ColoringSequential, StarUsesTwoColorsAnyOrder) {
  const CsrGraph g = CsrGraph::from_edges(star_graph(30));
  for (uint64_t seed = 0; seed < 3; ++seed) {
    const ColoringResult r =
        greedy_coloring_sequential(g, VertexOrder::random(30, seed));
    EXPECT_EQ(r.num_colors, 2u);
  }
}

TEST(ColoringSequential, EvenCycleIdentityOrderUsesTwoColors) {
  const CsrGraph g = CsrGraph::from_edges(cycle_graph(12));
  const ColoringResult r =
      greedy_coloring_sequential(g, VertexOrder::identity(12));
  EXPECT_EQ(r.num_colors, 2u);
}

TEST(ColoringSequential, OddCycleNeedsThree) {
  const CsrGraph g = CsrGraph::from_edges(cycle_graph(13));
  const ColoringResult r =
      greedy_coloring_sequential(g, VertexOrder::identity(13));
  EXPECT_EQ(r.num_colors, 3u);
  EXPECT_TRUE(is_proper_coloring(g, r.color));
}

class ColoringFamilies : public ::testing::TestWithParam<int> {};

CsrGraph coloring_graph(int which, uint64_t seed) {
  switch (which) {
    case 0: return CsrGraph::from_edges(random_graph_nm(500, 2'500, seed));
    case 1: return CsrGraph::from_edges(rmat_graph(9, 2'000, seed));
    case 2: return CsrGraph::from_edges(grid_graph(18, 18));
    case 3: return CsrGraph::from_edges(complete_bipartite(20, 25));
    case 4: return CsrGraph::from_edges(barabasi_albert(300, 4, seed));
    default: return CsrGraph::from_edges(binary_tree(255));
  }
}

TEST_P(ColoringFamilies, ProperAndWithinDeltaPlusOne) {
  for (uint64_t seed = 0; seed < 2; ++seed) {
    const CsrGraph g = coloring_graph(GetParam(), seed);
    const ColoringResult r = greedy_coloring_sequential(
        g, VertexOrder::random(g.num_vertices(), seed + 5));
    EXPECT_TRUE(is_proper_coloring(g, r.color));
    EXPECT_LE(r.num_colors, g.max_degree() + 1);  // first-fit bound
    EXPECT_EQ(r.num_colors,
              *std::max_element(r.color.begin(), r.color.end()) + 1);
  }
}

TEST_P(ColoringFamilies, PrefixEqualsSequentialAcrossWindows) {
  const CsrGraph g = coloring_graph(GetParam(), 3);
  const uint64_t n = g.num_vertices();
  const VertexOrder order = VertexOrder::random(n, 7);
  const ColoringResult expect = greedy_coloring_sequential(g, order);
  for (uint64_t window : {uint64_t{1}, uint64_t{19}, n / 4 + 1, n}) {
    const ColoringResult got = greedy_coloring_prefix(g, order, window);
    EXPECT_EQ(got.color, expect.color) << "window=" << window;
    EXPECT_EQ(got.num_colors, expect.num_colors);
  }
}

INSTANTIATE_TEST_SUITE_P(Families, ColoringFamilies, ::testing::Range(0, 6));

TEST(ColoringPrefix, DeterministicAcrossWorkerCounts) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(1'200, 6'000, 8));
  const VertexOrder order = VertexOrder::random(1'200, 9);
  ColoringResult base;
  {
    ScopedNumWorkers guard(1);
    base = greedy_coloring_prefix(g, order, 128);
  }
  for (int workers : {2, 4}) {
    ScopedNumWorkers guard(workers);
    EXPECT_EQ(greedy_coloring_prefix(g, order, 128).color, base.color)
        << "workers=" << workers;
  }
}

TEST(ColoringPrefix, RoundsDependOnlyOnTheInput) {
  // Commit colors only vertices whose earlier neighbors were all colored
  // before the round, so (rounds, work) are a function of the graph, the
  // order and the window, never of the schedule; at window n a vertex is
  // colored in the round of its longest-path depth.
  const uint64_t n = 20'000;
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(n, 100'000, 3));
  const VertexOrder order = VertexOrder::random(n, 7);
  const ColoringResult sequential = greedy_coloring_sequential(g, order);
  for (const uint64_t window : std::vector<uint64_t>{1, 64, 2'000, n}) {
    ColoringResult base;
    {
      ScopedNumWorkers guard(1);
      base = greedy_coloring_prefix(g, order, window);
    }
    EXPECT_EQ(base.color, sequential.color) << "window=" << window;
    for (int workers : {2, 4}) {
      ScopedNumWorkers guard(workers);
      const ColoringResult r = greedy_coloring_prefix(g, order, window);
      EXPECT_EQ(r.profile.rounds, base.profile.rounds)
          << "window=" << window << " workers=" << workers;
      EXPECT_EQ(r.profile.work_items, base.profile.work_items)
          << "window=" << window << " workers=" << workers;
    }
    if (window == n) {
      EXPECT_EQ(base.profile.rounds, longest_priority_path(g, order));
    }
  }
}

TEST(ColoringPrefix, FirstFitInvariantHolds) {
  // Each vertex's color is the minimum excludant of its earlier neighbors'
  // colors — check the defining recurrence on the parallel result.
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(400, 2'000, 10));
  const VertexOrder order = VertexOrder::random(400, 11);
  const ColoringResult r = greedy_coloring_prefix(g, order, 64);
  for (VertexId v = 0; v < 400; ++v) {
    std::vector<uint8_t> used(g.degree(v) + 2, 0);
    for (VertexId w : g.neighbors(v)) {
      if (order.earlier(w, v) && r.color[w] < used.size())
        used[r.color[w]] = 1;
    }
    uint32_t mex = 0;
    while (used[mex]) ++mex;
    EXPECT_EQ(r.color[v], mex) << "v=" << v;
  }
}

TEST(ColoringVerify, DetectsBadColorings) {
  const CsrGraph g = CsrGraph::from_edges(path_graph(4));
  EXPECT_FALSE(is_proper_coloring(g, std::vector<uint32_t>{0, 0, 1, 0}));
  EXPECT_FALSE(
      is_proper_coloring(g, std::vector<uint32_t>{0, kUncolored, 0, 1}));
  EXPECT_TRUE(is_proper_coloring(g, std::vector<uint32_t>{0, 1, 0, 1}));
}

TEST(ColoringEdgeCases, EmptyAndEdgeless) {
  const CsrGraph empty = CsrGraph::from_edges(EdgeList(0));
  EXPECT_EQ(greedy_coloring_sequential(empty, VertexOrder::identity(0))
                .num_colors, 0u);
  const CsrGraph edgeless = CsrGraph::from_edges(EdgeList(9));
  const ColoringResult r =
      greedy_coloring_prefix(edgeless, VertexOrder::identity(9), 3);
  EXPECT_EQ(r.num_colors, 1u);  // everything gets color 0
  for (VertexId v = 0; v < 9; ++v) EXPECT_EQ(r.color[v], 0u);
}

TEST(Coloring, ColorCountIsOrderDependentButBounded) {
  // Different orders may produce different counts, but all proper and all
  // within Delta + 1 — the classic first-fit spread.
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(600, 4'000, 12));
  uint32_t lo = UINT32_MAX;
  uint32_t hi = 0;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const ColoringResult r = greedy_coloring_sequential(
        g, VertexOrder::random(600, seed));
    EXPECT_TRUE(is_proper_coloring(g, r.color));
    lo = std::min(lo, r.num_colors);
    hi = std::max(hi, r.num_colors);
  }
  EXPECT_LE(hi, g.max_degree() + 1);
  EXPECT_GE(lo, 3u);  // such a dense graph is certainly not bipartite
}

}  // namespace
}  // namespace pargreedy
