// Integration tests for the parallel MIS implementations (Algorithm 2 as
// the rootset kernel and as the full-window prefix run, Algorithm 3 prefix):
// each must return *exactly* the sequential greedy MIS for the same
// ordering — the paper's determinism promise — at every worker count and
// prefix size.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/analysis/priority_dag.hpp"
#include "core/mis/mis.hpp"
#include "core/mis/verify.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "parallel/arch.hpp"
#include "support/check.hpp"

namespace pargreedy {
namespace {

EdgeList family(const std::string& name, uint64_t seed) {
  if (name == "random") return random_graph_nm(600, 2'400, seed);
  if (name == "rmat") return rmat_graph(10, 2'000, seed);
  if (name == "path") return path_graph(500);
  if (name == "cycle") return cycle_graph(501);
  if (name == "grid") return grid_graph(22, 23);
  if (name == "star") return star_graph(400);
  if (name == "complete") return complete_graph(40);
  if (name == "tree") return binary_tree(511);
  if (name == "ba") return barabasi_albert(400, 3, seed);
  if (name == "bipartite") return complete_bipartite(30, 40);
  throw std::runtime_error("unknown family " + name);
}

using Params = std::tuple<std::string, uint64_t>;  // family, seed

class MisVariants : public ::testing::TestWithParam<Params> {};

TEST_P(MisVariants, NaiveEqualsSequential) {
  // Algorithm 2 run step-synchronously is the prefix kernel at window n.
  // Its steps must be the rootset kernel's: both peel one root set of the
  // priority DAG per step.
  const auto& [fam, seed] = GetParam();
  const CsrGraph g = CsrGraph::from_edges(family(fam, seed));
  const VertexOrder order = VertexOrder::random(g.num_vertices(), seed + 100);
  const MisResult expect = mis_sequential(g, order);
  const MisResult got =
      mis_prefix(g, order, g.num_vertices(), ProfileLevel::kCounters);
  EXPECT_EQ(got.in_set, expect.in_set);
  EXPECT_EQ(got.profile.steps,
            mis_rootset(g, order, ProfileLevel::kCounters).profile.steps);
}

TEST_P(MisVariants, RootsetEqualsSequential) {
  const auto& [fam, seed] = GetParam();
  const CsrGraph g = CsrGraph::from_edges(family(fam, seed));
  const VertexOrder order = VertexOrder::random(g.num_vertices(), seed + 100);
  const MisResult expect = mis_sequential(g, order);
  const MisResult got = mis_rootset(g, order);
  EXPECT_EQ(got.in_set, expect.in_set);
}

TEST_P(MisVariants, PrefixEqualsSequentialAcrossWindowSizes) {
  const auto& [fam, seed] = GetParam();
  const CsrGraph g = CsrGraph::from_edges(family(fam, seed));
  const uint64_t n = g.num_vertices();
  const VertexOrder order = VertexOrder::random(n, seed + 100);
  const MisResult expect = mis_sequential(g, order);
  for (uint64_t window : {uint64_t{1}, uint64_t{2}, uint64_t{7}, n / 10 + 1,
                          n / 2 + 1, n, 3 * n}) {
    const MisResult got = mis_prefix(g, order, window);
    EXPECT_EQ(got.in_set, expect.in_set) << "window=" << window;
  }
}

TEST_P(MisVariants, AdversarialIdentityOrderStillExact) {
  // The determinism guarantee is for *every* ordering; only the depth bound
  // needs randomness. Identity order is the adversarial case.
  const auto& [fam, seed] = GetParam();
  const CsrGraph g = CsrGraph::from_edges(family(fam, seed));
  const VertexOrder order = VertexOrder::identity(g.num_vertices());
  const MisResult expect = mis_sequential(g, order);
  EXPECT_EQ(mis_prefix(g, order, g.num_vertices()).in_set, expect.in_set);
  EXPECT_EQ(mis_rootset(g, order).in_set, expect.in_set);
  EXPECT_EQ(mis_prefix(g, order, g.num_vertices() / 7 + 1).in_set,
            expect.in_set);
}

INSTANTIATE_TEST_SUITE_P(
    Families, MisVariants,
    ::testing::Combine(::testing::Values("random", "rmat", "path", "cycle",
                                         "grid", "star", "complete", "tree",
                                         "ba", "bipartite"),
                       ::testing::Values(0, 1, 2)),
    [](const ::testing::TestParamInfo<Params>& info) {
      return std::get<0>(info.param) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// ----------------------------------------------------------- worker sweep ---

class MisWorkers : public ::testing::TestWithParam<int> {};

TEST_P(MisWorkers, AllVariantsExactAtEveryWidth) {
  const int workers = GetParam();
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(2'000, 10'000, 3));
  const VertexOrder order = VertexOrder::random(g.num_vertices(), 17);
  MisResult expect;
  {
    ScopedNumWorkers guard(1);
    expect = mis_sequential(g, order);
  }
  ScopedNumWorkers guard(workers);
  EXPECT_EQ(mis_rootset(g, order).in_set, expect.in_set);
  EXPECT_EQ(mis_prefix(g, order, 128).in_set, expect.in_set);
  EXPECT_EQ(mis_prefix(g, order, g.num_vertices()).in_set, expect.in_set);
}

INSTANTIATE_TEST_SUITE_P(WidthSweep, MisWorkers,
                         ::testing::Values(1, 2, 3, 4, 8));

// --------------------------------------------------------------- profiles ---

TEST(MisProfiles, PrefixWindowOneMatchesSequentialWork) {
  // prefix_size = 1 IS the sequential algorithm: every attempt resolves,
  // so rounds == n and no redundant edge scans happen.
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(500, 2'000, 4));
  const VertexOrder order = VertexOrder::random(500, 5);
  const MisResult r =
      mis_prefix(g, order, 1, ProfileLevel::kCounters);
  EXPECT_EQ(r.profile.rounds, 500u);
  EXPECT_EQ(r.profile.work_items, 500u);  // one attempt per vertex
}

TEST(MisProfiles, FullWindowRoundsEqualDependenceLength) {
  // Algorithm 2 by hand on the path 0-1-2-3-4 in identity order. Each
  // step, the first undecided vertex joins and its successor leaves; every
  // undecided vertex scans its one earlier neighbor in the join phase and,
  // unless it just joined, again in the kill phase.
  //   step 1: {0,1,2,3,4} active, 0 In, 1 Out, scans 4 + 4
  //   step 2: {2,3,4} active,     2 In, 3 Out, scans 3 + 2
  //   step 3: {4} active,         4 In,        scans 1 + 0
  const CsrGraph g = CsrGraph::from_edges(path_graph(5));
  const VertexOrder order = VertexOrder::identity(5);
  const MisResult r = mis_prefix(g, order, 5, ProfileLevel::kDetailed);
  EXPECT_EQ(r.members(), (std::vector<VertexId>{0, 2, 4}));
  EXPECT_EQ(r.profile.rounds, 3u);
  EXPECT_EQ(r.profile.steps, 3u);
  ASSERT_EQ(r.profile.per_round.size(), 3u);
  const uint64_t rows[3][3] = {{5, 2, 8}, {3, 2, 5}, {1, 1, 1}};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r.profile.per_round[i].active_items, rows[i][0]) << i;
    EXPECT_EQ(r.profile.per_round[i].decided, rows[i][1]) << i;
    EXPECT_EQ(r.profile.per_round[i].work_edges, rows[i][2]) << i;
  }
  EXPECT_EQ(r.profile.work_items, 9u);
  EXPECT_EQ(r.profile.work_edges, 14u);
  EXPECT_EQ(dependence_length(g, order), 3u);
}

TEST(MisProfiles, WorkGrowsWithWindow) {
  // Figure 1(a): larger prefixes mean more speculative re-scans. Work must
  // be monotone (within noise; here it is exact for fixed inputs).
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(1'000, 5'000, 8));
  const VertexOrder order = VertexOrder::random(1'000, 9);
  uint64_t last_work = 0;
  for (uint64_t window : {uint64_t{1}, uint64_t{10}, uint64_t{100},
                          uint64_t{1'000}}) {
    const MisResult r =
        mis_prefix(g, order, window, ProfileLevel::kCounters);
    EXPECT_GE(r.profile.total_work(), last_work) << "window=" << window;
    last_work = r.profile.total_work();
  }
}

TEST(MisProfiles, RoundsShrinkWithWindow) {
  // Figure 1(b): larger prefixes mean fewer outer rounds.
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(1'000, 5'000, 10));
  const VertexOrder order = VertexOrder::random(1'000, 11);
  uint64_t last_rounds = UINT64_MAX;
  for (uint64_t window : {uint64_t{1}, uint64_t{10}, uint64_t{100},
                          uint64_t{1'000}}) {
    const MisResult r =
        mis_prefix(g, order, window, ProfileLevel::kCounters);
    EXPECT_LE(r.profile.rounds, last_rounds) << "window=" << window;
    last_rounds = r.profile.rounds;
  }
}

TEST(MisProfiles, DetailedPerRoundRowsSumToCounters) {
  const CsrGraph g = CsrGraph::from_edges(rmat_graph(10, 3'000, 12));
  const VertexOrder order = VertexOrder::random(g.num_vertices(), 13);
  const MisResult r =
      mis_prefix(g, order, 256, ProfileLevel::kDetailed);
  ASSERT_EQ(r.profile.per_round.size(), r.profile.rounds);
  uint64_t items = 0;
  uint64_t edges = 0;
  uint64_t decided = 0;
  for (const RoundProfile& round : r.profile.per_round) {
    items += round.active_items;
    edges += round.work_edges;
    decided += round.decided;
  }
  EXPECT_EQ(items, r.profile.work_items);
  EXPECT_EQ(edges, r.profile.work_edges);
  EXPECT_EQ(decided, g.num_vertices());  // every vertex resolves exactly once
}

TEST(MisProfiles, SummaryMentionsKeyCounters) {
  const CsrGraph g = CsrGraph::from_edges(path_graph(50));
  const MisResult r = mis_prefix(g, VertexOrder::identity(50), 8,
                                 ProfileLevel::kCounters);
  const std::string s = r.profile.summary();
  EXPECT_NE(s.find("rounds"), std::string::npos);
  EXPECT_NE(s.find("work"), std::string::npos);
}

// ------------------------------------------------------------ edge cases ---

TEST(MisParallelEdgeCases, EmptyAndEdgeless) {
  const CsrGraph empty = CsrGraph::from_edges(EdgeList(0));
  EXPECT_EQ(mis_rootset(empty, VertexOrder::identity(0)).size(), 0u);
  EXPECT_EQ(mis_prefix(empty, VertexOrder::identity(0), 1).size(), 0u);

  const CsrGraph edgeless = CsrGraph::from_edges(EdgeList(30));
  const VertexOrder order = VertexOrder::random(30, 1);
  EXPECT_EQ(mis_prefix(edgeless, order, 30).size(), 30u);
  EXPECT_EQ(mis_rootset(edgeless, order).size(), 30u);
  EXPECT_EQ(mis_prefix(edgeless, order, 7).size(), 30u);
}

TEST(MisParallelEdgeCases, SingleVertexAndSingleEdge) {
  const CsrGraph one = CsrGraph::from_edges(EdgeList(1));
  EXPECT_EQ(mis_rootset(one, VertexOrder::identity(1)).size(), 1u);

  EdgeList el(2);
  el.add(0, 1);
  const CsrGraph pair = CsrGraph::from_edges(el);
  const MisResult r = mis_rootset(pair, VertexOrder::identity(2));
  EXPECT_EQ(r.members(), (std::vector<VertexId>{0}));
}

TEST(MisParallelEdgeCases, MismatchedOrderSizeThrows) {
  const CsrGraph g = CsrGraph::from_edges(path_graph(5));
  const VertexOrder bad = VertexOrder::identity(4);
  EXPECT_THROW(mis_rootset(g, bad), CheckFailure);
  EXPECT_THROW(mis_prefix(g, bad, 2), CheckFailure);
}

TEST(MisParallelEdgeCases, ZeroWindowIsClampedToOne) {
  const CsrGraph g = CsrGraph::from_edges(path_graph(10));
  const VertexOrder order = VertexOrder::identity(10);
  const MisResult r = mis_prefix(g, order, 0, ProfileLevel::kCounters);
  EXPECT_EQ(r.in_set, mis_sequential(g, order).in_set);
  EXPECT_EQ(r.profile.rounds, 10u);  // window 1 behavior
}

}  // namespace
}  // namespace pargreedy
