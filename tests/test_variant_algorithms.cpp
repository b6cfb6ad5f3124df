// Tests for the algorithm formulations beyond the main suites:
//   * mis_prefix / mm_prefix — Algorithm 3's speculative windows on the
//     geometric and small-world families the main suites do not build,
//     and their profiles at every worker count;
//   * luby_mis_arrays — the classical array-based Luby formulation (same
//     MIS as luby_mis for the same seed, by construction);
//   * relabel_by_rank — the pre-permutation trick (PBBS setup) that turns
//     any ordering into the identity ordering on a renamed graph.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/matching/matching.hpp"
#include "core/mis/mis.hpp"
#include "core/mis/verify.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "graph/graph_ops.hpp"
#include "graph/validate.hpp"
#include "support/check.hpp"
#include "parallel/arch.hpp"

namespace pargreedy {
namespace {

EdgeList family(const std::string& name, uint64_t seed) {
  if (name == "random") return random_graph_nm(600, 2'400, seed);
  if (name == "rmat") return rmat_graph(10, 2'000, seed);
  if (name == "path") return path_graph(500);
  if (name == "star") return star_graph(400);
  if (name == "complete") return complete_graph(40);
  if (name == "geometric") return random_geometric(600, 0.05, seed);
  return watts_strogatz(500, 6, 0.3, seed);
}

class VariantFamilies : public ::testing::TestWithParam<std::string> {};

TEST_P(VariantFamilies, MisSpeculativeEqualsSequential) {
  for (uint64_t seed = 0; seed < 2; ++seed) {
    const CsrGraph g = CsrGraph::from_edges(family(GetParam(), seed));
    const uint64_t n = g.num_vertices();
    const VertexOrder order = VertexOrder::random(n, seed + 41);
    const MisResult expect = mis_sequential(g, order);
    for (uint64_t window : {uint64_t{1}, uint64_t{37}, n / 3 + 1, n}) {
      EXPECT_EQ(mis_prefix(g, order, window).in_set, expect.in_set)
          << "window=" << window;
    }
  }
}

TEST_P(VariantFamilies, MmSpeculativeEqualsSequential) {
  for (uint64_t seed = 0; seed < 2; ++seed) {
    const CsrGraph g = CsrGraph::from_edges(family(GetParam(), seed));
    const uint64_t m = g.num_edges();
    const EdgeOrder order = EdgeOrder::random(m, seed + 43);
    const MatchResult expect = mm_sequential(g, order);
    for (uint64_t window : {uint64_t{1}, uint64_t{37}, m / 3 + 1, m}) {
      EXPECT_EQ(mm_prefix(g, order, window).in_matching,
                expect.in_matching)
          << "window=" << window;
    }
  }
}

TEST_P(VariantFamilies, LubyArraysEqualsLubyInRegister) {
  // Same seed -> same priority values -> the same MIS, computed two ways.
  const CsrGraph g = CsrGraph::from_edges(family(GetParam(), 5));
  for (uint64_t seed = 0; seed < 3; ++seed) {
    const MisResult a = luby_mis(g, seed);
    const MisResult b = luby_mis_arrays(g, seed);
    EXPECT_EQ(a.in_set, b.in_set) << "seed " << seed;
    EXPECT_TRUE(is_maximal_independent_set(g, b.in_set));
  }
}

INSTANTIATE_TEST_SUITE_P(Families, VariantFamilies,
                         ::testing::Values("random", "rmat", "path", "star",
                                           "complete", "geometric",
                                           "smallworld"));

TEST(VariantDeterminism, SpeculativeVariantsStableAcrossWorkerCounts) {
  // Not only the answer: every work counter is a function of the input,
  // because each phase's benign races flip no test.
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(1'500, 6'000, 3));
  const VertexOrder vo = VertexOrder::random(g.num_vertices(), 4);
  const EdgeOrder eo = EdgeOrder::random(g.num_edges(), 5);
  const MisResult mis_ref = mis_sequential(g, vo);
  const MatchResult mm_ref = mm_sequential(g, eo);
  RunProfile mis_prof;
  RunProfile mm_prof;
  for (int workers : {1, 2, 4}) {
    ScopedNumWorkers guard(workers);
    const MisResult mis = mis_prefix(g, vo, 128, ProfileLevel::kCounters);
    const MatchResult mm = mm_prefix(g, eo, 128, ProfileLevel::kCounters);
    EXPECT_EQ(mis.in_set, mis_ref.in_set);
    EXPECT_EQ(mm.in_matching, mm_ref.in_matching);
    if (workers == 1) {
      mis_prof = mis.profile;
      mm_prof = mm.profile;
    }
    EXPECT_EQ(mis.profile.rounds, mis_prof.rounds) << workers;
    EXPECT_EQ(mis.profile.work_items, mis_prof.work_items) << workers;
    EXPECT_EQ(mis.profile.work_edges, mis_prof.work_edges) << workers;
    EXPECT_EQ(mm.profile.rounds, mm_prof.rounds) << workers;
    EXPECT_EQ(mm.profile.work_items, mm_prof.work_items) << workers;
  }
}

TEST(VariantProfiles, SpeculativeAttemptsCoverEveryItem) {
  // A window of w resolves at most w items per round.
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(800, 3'200, 6));
  const VertexOrder vo = VertexOrder::random(800, 7);
  const MisResult r = mis_prefix(g, vo, 100, ProfileLevel::kCounters);
  EXPECT_GE(r.profile.work_items, g.num_vertices());  // >= one attempt each
  EXPECT_GE(r.profile.rounds, 800u / 100u);
  const uint64_t m = g.num_edges();
  const MatchResult mm =
      mm_prefix(g, EdgeOrder::random(m, 8), 100, ProfileLevel::kCounters);
  EXPECT_GE(mm.profile.work_items, m);
  EXPECT_GE(mm.profile.rounds, (m + 99) / 100);
}

// ------------------------------------------------------- relabel_by_rank ---

TEST(RelabelByRank, ProducesAValidIsomorphicGraph) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(300, 1'200, 8));
  const VertexOrder order = VertexOrder::random(300, 9);
  const CsrGraph r = relabel_by_rank(g, order);
  EXPECT_TRUE(validate_csr(r).empty());
  EXPECT_EQ(r.num_vertices(), g.num_vertices());
  EXPECT_EQ(r.num_edges(), g.num_edges());
  // Degrees transfer through the renaming.
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(r.degree(order.rank(v)), g.degree(v));
}

TEST(RelabelByRank, IdentityOrderIsANoOp) {
  const CsrGraph g = CsrGraph::from_edges(rmat_graph(8, 600, 10));
  const CsrGraph r =
      relabel_by_rank(g, VertexOrder::identity(g.num_vertices()));
  ASSERT_EQ(r.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) EXPECT_EQ(r.edge(e), g.edge(e));
}

TEST(RelabelByRank, MisOnRelabeledGraphMapsBack) {
  // The contract the fig1/fig3 benches rely on: running with identity
  // order on the relabeled graph computes the same MIS, renamed.
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(500, 2'500, 11));
  const VertexOrder order = VertexOrder::random(500, 12);
  const CsrGraph r = relabel_by_rank(g, order);
  const VertexOrder ident = VertexOrder::identity(500);
  const MisResult direct = mis_sequential(g, order);
  for (const MisResult& renamed :
       {mis_sequential(r, ident), mis_prefix(r, ident, 64),
        mis_rootset(r, ident)}) {
    for (VertexId v = 0; v < 500; ++v)
      ASSERT_EQ(direct.in_set[v], renamed.in_set[order.rank(v)]) << v;
  }
}

TEST(RelabelByRank, IsIdentityFlagDetection) {
  EXPECT_TRUE(VertexOrder::identity(10).is_identity());
  EXPECT_TRUE(VertexOrder::from_permutation({0, 1, 2}).is_identity());
  EXPECT_FALSE(VertexOrder::from_permutation({1, 0, 2}).is_identity());
  EXPECT_FALSE(VertexOrder::random(1'000, 1).is_identity());
  EXPECT_TRUE(VertexOrder::identity(0).is_identity());
}

TEST(RelabelByRank, RejectsSizeMismatch) {
  const CsrGraph g = CsrGraph::from_edges(path_graph(5));
  EXPECT_THROW(relabel_by_rank(g, VertexOrder::identity(4)), CheckFailure);
}

}  // namespace
}  // namespace pargreedy
