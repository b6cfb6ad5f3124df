// Property-based tests for the maximal-matching theory of Section 5:
//   * Lemma 5.1 — the edge priority DAG has polylog dependence length for
//     random edge orderings (measured via the naive algorithm's rounds);
//   * the MM(G) == MIS(L(G)) correspondence the reduction argument uses;
//   * the classical 2-approximation guarantee of any maximal matching.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/matching/matching.hpp"
#include "core/matching/verify.hpp"
#include "core/mis/mis.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "graph/graph_ops.hpp"

namespace pargreedy {
namespace {

// ------------------------------------------------- dependence length (5.1) ---

class MmDependenceSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MmDependenceSweep, RandomEdgeOrderGivesPolylogSteps) {
  const uint64_t n = GetParam();
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(n, 5 * n, 1));
  const double m = static_cast<double>(g.num_edges());
  double worst = 0;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    const MatchResult r = mm_parallel_naive(
        g, EdgeOrder::random(g.num_edges(), seed), ProfileLevel::kCounters);
    worst = std::max(worst, static_cast<double>(r.profile.rounds));
  }
  // Lemma 5.1: O(log^2 m) w.h.p. Allow constant 2 on log^2.
  EXPECT_LT(worst, 2.0 * std::log2(m) * std::log2(m)) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, MmDependenceSweep,
                         ::testing::Values(512, 2'048, 8'192));

TEST(MmDependenceAdversarial, PathIdentityOrderIsLinear) {
  // Edges of a path in positional order: edge 0 matches, edges 1,2 die in
  // sequence... the chain forces Theta(m) steps.
  const uint64_t n = 600;  // m = 599
  const CsrGraph g = CsrGraph::from_edges(path_graph(n));
  const MatchResult r = mm_parallel_naive(g, EdgeOrder::identity(n - 1),
                                          ProfileLevel::kCounters);
  EXPECT_GT(r.profile.rounds, (n - 1) / 4);
}

TEST(MmDependenceAdversarial, RandomOrderCrushesThePathWitness) {
  const uint64_t n = 600;
  const CsrGraph g = CsrGraph::from_edges(path_graph(n));
  const MatchResult adversarial = mm_parallel_naive(
      g, EdgeOrder::identity(n - 1), ProfileLevel::kCounters);
  const MatchResult random = mm_parallel_naive(
      g, EdgeOrder::random(n - 1, 3), ProfileLevel::kCounters);
  EXPECT_GT(adversarial.profile.rounds, 8 * random.profile.rounds);
}

TEST(MmDependenceAdversarial, StarResolvesInOneStep) {
  // All star edges are pairwise adjacent: the earliest one matches and
  // every other edge dies — one step for any ordering.
  const CsrGraph g = CsrGraph::from_edges(star_graph(100));
  for (uint64_t seed = 0; seed < 3; ++seed) {
    const MatchResult r = mm_parallel_naive(
        g, EdgeOrder::random(g.num_edges(), seed), ProfileLevel::kCounters);
    EXPECT_EQ(r.profile.rounds, 1u);
  }
}

// --------------------------------------------- MM(G) == MIS(L(G)) bridge ---

class LineGraphBridge : public ::testing::TestWithParam<int> {};

CsrGraph bridge_graph(int which) {
  switch (which) {
    case 0: return CsrGraph::from_edges(path_graph(30));
    case 1: return CsrGraph::from_edges(cycle_graph(25));
    case 2: return CsrGraph::from_edges(grid_graph(6, 7));
    case 3: return CsrGraph::from_edges(star_graph(20));
    case 4: return CsrGraph::from_edges(complete_graph(12));
    case 5: return CsrGraph::from_edges(random_graph_nm(80, 300, 5));
    default: return CsrGraph::from_edges(binary_tree(63));
  }
}

TEST_P(LineGraphBridge, GreedyMmEqualsGreedyMisOnLineGraph) {
  // Section 5: "The MM of G can be solved by finding an MIS of its line
  // graph". Sharper greedy statement: with the *same* ordering (edge e of G
  // <-> vertex e of L(G)), the greedy MM is exactly the greedy MIS.
  const CsrGraph g = bridge_graph(GetParam());
  const CsrGraph lg = line_graph(g);
  ASSERT_EQ(lg.num_vertices(), g.num_edges());
  for (uint64_t seed = 0; seed < 3; ++seed) {
    const EdgeOrder eo = EdgeOrder::random(g.num_edges(), seed);
    std::vector<VertexId> as_vertices(eo.order().begin(), eo.order().end());
    const VertexOrder vo = VertexOrder::from_permutation(as_vertices);

    const MatchResult mm = mm_sequential(g, eo);
    const MisResult mis = mis_sequential(lg, vo);
    ASSERT_EQ(mm.in_matching.size(), mis.in_set.size());
    EXPECT_EQ(mm.in_matching, mis.in_set) << "seed " << seed;
  }
}

TEST_P(LineGraphBridge, NaiveStepCountsMatchAcrossTheBridge) {
  // Lemma 5.1's proof: "an edge is added or deleted in Algorithm 4 exactly
  // on the same step it would be for the corresponding MIS graph". The MIS
  // side is Algorithm 2, the prefix kernel with the whole line graph as
  // its window.
  const CsrGraph g = bridge_graph(GetParam());
  const CsrGraph lg = line_graph(g);
  const EdgeOrder eo = EdgeOrder::random(g.num_edges(), 7);
  std::vector<VertexId> as_vertices(eo.order().begin(), eo.order().end());
  const VertexOrder vo = VertexOrder::from_permutation(as_vertices);
  const MatchResult mm = mm_parallel_naive(g, eo, ProfileLevel::kCounters);
  const MisResult mis =
      mis_prefix(lg, vo, lg.num_vertices(), ProfileLevel::kCounters);
  EXPECT_EQ(mm.profile.rounds, mis.profile.rounds);
}

INSTANTIATE_TEST_SUITE_P(Graphs, LineGraphBridge, ::testing::Range(0, 7));

// ----------------------------------------------------- size guarantees ---

TEST(MmSize, AtLeastHalfOfMaximumOnPerfectMatchableGraphs) {
  // Any maximal matching is a 2-approximation of the maximum matching.
  // On K_{2k} and even cycles/paths the maximum is known exactly.
  const CsrGraph k10 = CsrGraph::from_edges(complete_graph(10));  // max 5
  const CsrGraph c20 = CsrGraph::from_edges(cycle_graph(20));     // max 10
  const CsrGraph p16 = CsrGraph::from_edges(path_graph(16));      // max 8
  for (uint64_t seed = 0; seed < 5; ++seed) {
    EXPECT_GE(mm_sequential(k10, EdgeOrder::random(k10.num_edges(), seed))
                  .size(), 3u);   // >= ceil(5/2)
    EXPECT_GE(mm_sequential(c20, EdgeOrder::random(c20.num_edges(), seed))
                  .size(), 5u);   // >= 10/2
    EXPECT_GE(mm_sequential(p16, EdgeOrder::random(p16.num_edges(), seed))
                  .size(), 4u);   // >= 8/2
  }
}

TEST(MmSize, CompleteBipartiteMatchesTheSmallerSide) {
  // Every maximal matching of K_{a,b} saturates the smaller side.
  const CsrGraph g = CsrGraph::from_edges(complete_bipartite(6, 11));
  for (uint64_t seed = 0; seed < 5; ++seed) {
    EXPECT_EQ(mm_sequential(g, EdgeOrder::random(g.num_edges(), seed)).size(),
              6u);
  }
}

TEST(MmSize, MatchedVerticesAreTwiceTheMatchingSize) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(500, 2'000, 9));
  const MatchResult r =
      mm_sequential(g, EdgeOrder::random(g.num_edges(), 10));
  uint64_t matched_vertices = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    matched_vertices += r.matched_with[v] != kInvalidVertex ? 1 : 0;
  EXPECT_EQ(matched_vertices, 2 * r.size());
}

// ------------------------------------------------------ ordering effects ---

TEST(MmOrdering, DifferentSeedsGiveValidButDifferentMatchings) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(800, 3'200, 11));
  const MatchResult a =
      mm_sequential(g, EdgeOrder::random(g.num_edges(), 1));
  const MatchResult b =
      mm_sequential(g, EdgeOrder::random(g.num_edges(), 2));
  EXPECT_TRUE(is_maximal_matching(g, a.in_matching));
  EXPECT_TRUE(is_maximal_matching(g, b.in_matching));
  EXPECT_NE(a.in_matching, b.in_matching);
}

TEST(MmOrdering, SizesAcrossSeedsStayInNarrowBand) {
  // Matching sizes for random orders concentrate; a badly biased order
  // implementation would show up as an outlier here.
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(2'000, 8'000, 12));
  std::vector<uint64_t> sizes;
  for (uint64_t seed = 0; seed < 8; ++seed)
    sizes.push_back(
        mm_sequential(g, EdgeOrder::random(g.num_edges(), seed)).size());
  const auto [lo, hi] = std::minmax_element(sizes.begin(), sizes.end());
  EXPECT_LT(*hi - *lo, g.num_vertices() / 20);
}

}  // namespace
}  // namespace pargreedy
