// Property-based tests for the paper's MIS theory:
//   * Theorem 3.5 — dependence length O(log^2 n) w.h.p. for random pi;
//   * adversarial orders exist with Omega(n) dependence length;
//   * Lemma 3.1-flavored degree decay after processing a prefix;
//   * Lemmas 4.3/4.4 — small prefixes induce sparse subgraphs.
// These are statistical, so thresholds carry generous constants; they are
// chosen to fail loudly on asymptotic regressions (e.g. a broken
// permutation), not to certify the constants in the paper.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/analysis/priority_dag.hpp"
#include "core/mis/mis.hpp"
#include "core/mis/verify.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "graph/graph_ops.hpp"
#include "support/check.hpp"

namespace pargreedy {
namespace {

double log2d(double x) { return std::log2(x); }

// --------------------------------------------------- dependence length ---

class DependenceSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DependenceSweep, RandomOrderGivesPolylogDependenceOnRandomGraph) {
  const uint64_t n = GetParam();
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(n, 5 * n, 1));
  double worst = 0;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    const VertexOrder order = VertexOrder::random(n, seed);
    worst = std::max(worst,
                     static_cast<double>(dependence_length(g, order)));
  }
  // Theorem 3.5: O(log Delta * log n). The observed constant is ~1; allow 4.
  const double bound =
      4.0 * log2d(static_cast<double>(g.max_degree() + 2)) *
      log2d(static_cast<double>(n));
  EXPECT_LT(worst, bound) << "n=" << n;
  EXPECT_GE(worst, 2.0);  // never trivially small on a connected-ish graph
}

TEST_P(DependenceSweep, DependenceGrowsSlowerThanSqrtN) {
  // A scale-free sanity check: for random pi the dependence length must be
  // exponentially smaller than the adversarial Theta(n) witness below.
  const uint64_t n = GetParam();
  const CsrGraph g = CsrGraph::from_edges(path_graph(n));
  const VertexOrder order = VertexOrder::random(n, 7);
  EXPECT_LT(dependence_length(g, order),
            static_cast<uint64_t>(8 * std::sqrt(static_cast<double>(n))));
}

INSTANTIATE_TEST_SUITE_P(Sizes, DependenceSweep,
                         ::testing::Values(256, 1'024, 4'096, 16'384));

TEST(DependenceAdversarial, PathWithIdentityOrderIsLinear) {
  // Identity order on a path: only vertex 0 is a root, and each step
  // unlocks one new root two positions down — Theta(n) steps. This is the
  // P-completeness intuition (Section 1): *some* orders are sequential.
  const uint64_t n = 1'000;
  const CsrGraph g = CsrGraph::from_edges(path_graph(n));
  const uint64_t d = dependence_length(g, VertexOrder::identity(n));
  EXPECT_EQ(d, n / 2);  // add 2i, remove 2i+1, per step
}

TEST(DependenceAdversarial, RandomOrderCrushesThePathWitness) {
  const uint64_t n = 1'000;
  const CsrGraph g = CsrGraph::from_edges(path_graph(n));
  const uint64_t adversarial =
      dependence_length(g, VertexOrder::identity(n));
  const uint64_t random = dependence_length(g, VertexOrder::random(n, 3));
  EXPECT_GT(adversarial, 10 * random);
}

TEST(DependenceAdversarial, CompleteGraphIsOneStepForAnyOrder) {
  // Longest path in the priority DAG is n, but the dependence length is 1:
  // the first vertex removes everything (the paper's Section 3 example).
  const CsrGraph g = CsrGraph::from_edges(complete_graph(30));
  for (uint64_t seed = 0; seed < 3; ++seed)
    EXPECT_EQ(dependence_length(g, VertexOrder::random(30, seed)), 1u);
}

// --------------------------------------- Lemma 3.1: prefix degree decay ---

TEST(PrefixDegreeDecay, ProcessingAPrefixCapsRemainingDegree) {
  // Lemma 3.1 with l = 2 ln n: after processing an (l/d)-prefix, remaining
  // vertices have degree <= d w.h.p. Verify the *mechanism* end to end: run
  // the sequential greedy on the prefix only, delete its MIS's neighbors,
  // and measure the residual degree.
  const uint64_t n = 4'000;
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(n, 10 * n, 2));
  const VertexOrder order = VertexOrder::random(n, 5);
  const double ell = 2.0 * std::log(static_cast<double>(n));
  const uint64_t d = 40;  // target degree bound
  const uint64_t prefix = static_cast<uint64_t>(
      std::min(static_cast<double>(n), ell / d * n));

  // Greedy over the prefix only.
  std::vector<uint8_t> dead(n, 0);
  for (uint64_t i = 0; i < prefix; ++i) {
    const VertexId v = order.nth(i);
    if (dead[v]) continue;
    dead[v] = 1;
    for (VertexId w : g.neighbors(v)) dead[w] = 1;
  }
  // All prefix vertices are now decided; the residual graph is the rest.
  for (uint64_t i = 0; i < prefix; ++i) dead[order.nth(i)] = 1;

  uint64_t max_residual_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (dead[v]) continue;
    uint64_t deg = 0;
    for (VertexId w : g.neighbors(v)) deg += dead[w] ? 0 : 1;
    max_residual_degree = std::max(max_residual_degree, deg);
  }
  EXPECT_LE(max_residual_degree, d);
}

// ------------------------------------- Lemmas 4.3/4.4: prefix sparsity ---

TEST(PrefixSparsity, SmallPrefixesHaveFewInternalEdges) {
  // delta < k/d => expected internal edges O(k |P|). With k = 1/8 the
  // prefix sub-DAG should have far fewer edges than vertices.
  const uint64_t n = 20'000;
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(n, 10 * n, 3));
  const uint64_t d = degree_stats(g).max_degree;
  const VertexOrder order = VertexOrder::random(n, 4);
  const double k = 0.125;
  const uint64_t prefix_size =
      std::max<uint64_t>(1'000, static_cast<uint64_t>(k / d * n));

  std::vector<uint8_t> in_prefix(n, 0);
  for (uint64_t i = 0; i < prefix_size; ++i) in_prefix[order.nth(i)] = 1;
  uint64_t internal = 0;
  for (const Edge& e : g.edges())
    internal += (in_prefix[e.u] && in_prefix[e.v]) ? 1 : 0;

  // Expected bound ~ k |P|; allow 4x for variance.
  EXPECT_LT(internal, static_cast<uint64_t>(
                          4.0 * k * static_cast<double>(prefix_size) + 16));
}

TEST(PrefixSparsity, MostPrefixVerticesAreIsolatedInThePrefix) {
  // Lemma 4.4: vertices with >= 1 internal edge number O(k |P|).
  const uint64_t n = 20'000;
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(n, 5 * n, 5));
  const uint64_t d = degree_stats(g).max_degree;
  const VertexOrder order = VertexOrder::random(n, 6);
  const double k = 0.125;
  const uint64_t prefix_size =
      std::max<uint64_t>(1'000, static_cast<uint64_t>(k / d * n));

  std::vector<uint8_t> in_prefix(n, 0);
  for (uint64_t i = 0; i < prefix_size; ++i) in_prefix[order.nth(i)] = 1;
  std::vector<uint8_t> touched(n, 0);
  for (const Edge& e : g.edges()) {
    if (in_prefix[e.u] && in_prefix[e.v]) {
      touched[e.u] = 1;
      touched[e.v] = 1;
    }
  }
  uint64_t with_internal = 0;
  for (VertexId v = 0; v < n; ++v) with_internal += touched[v];
  EXPECT_LT(with_internal, static_cast<uint64_t>(
                               8.0 * k * static_cast<double>(prefix_size) +
                               16));
}

// -------------------------------------------- MIS size and set structure ---

class MisSizeBounds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MisSizeBounds, SizeIsWithinClassicalBounds) {
  // Any MIS satisfies n/(Delta+1) <= |MIS| (greedy covers each chosen
  // vertex plus at most Delta neighbors) and is at most the independence
  // number; we check the lower bound and the trivial upper bound n.
  const uint64_t seed = GetParam();
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(2'000, 8'000, seed));
  const VertexOrder order = VertexOrder::random(2'000, seed + 50);
  const MisResult r = mis_sequential(g, order);
  const uint64_t delta = g.max_degree();
  EXPECT_GE(r.size() * (delta + 1), g.num_vertices());
  EXPECT_LE(r.size(), g.num_vertices());
}

TEST_P(MisSizeBounds, DifferentSeedsGiveValidButGenerallyDifferentSets) {
  const uint64_t seed = GetParam();
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(1'000, 4'000, 9));
  const MisResult a = mis_sequential(g, VertexOrder::random(1'000, seed));
  const MisResult b =
      mis_sequential(g, VertexOrder::random(1'000, seed + 1'000));
  EXPECT_TRUE(is_maximal_independent_set(g, a.in_set));
  EXPECT_TRUE(is_maximal_independent_set(g, b.in_set));
  EXPECT_NE(a.in_set, b.in_set);  // astronomically unlikely to collide
}

INSTANTIATE_TEST_SUITE_P(Seeds, MisSizeBounds, ::testing::Range<uint64_t>(0, 5));

// ------------------------------------- work bounds of the rootset version ---

TEST(RootsetWork, TotalWorkIsLinearInEdges) {
  // Lemma 4.2: O(n + m) work. The profiled edge inspections should be a
  // small multiple of 2m + n regardless of the dependence length.
  for (uint64_t seed = 0; seed < 3; ++seed) {
    const CsrGraph g =
        CsrGraph::from_edges(random_graph_nm(3'000, 15'000, seed));
    const VertexOrder order = VertexOrder::random(3'000, seed + 7);
    const MisResult r = mis_rootset(g, order, ProfileLevel::kCounters);
    EXPECT_LE(r.profile.work_edges, 3 * (2 * g.num_edges()) + g.num_vertices())
        << "seed " << seed;
  }
}

TEST(NaiveWork, GrowsWithDependenceLength) {
  // Naive Algorithm 2 (the prefix kernel at window n) re-scans every
  // undecided vertex each step, so its work exceeds the rootset
  // implementation's on a deep instance.
  const uint64_t n = 2'000;
  const CsrGraph g = CsrGraph::from_edges(path_graph(n));
  const VertexOrder order = VertexOrder::identity(n);  // Theta(n) steps
  const MisResult naive = mis_prefix(g, order, n, ProfileLevel::kCounters);
  const MisResult rootset = mis_rootset(g, order, ProfileLevel::kCounters);
  EXPECT_GT(naive.profile.work_items, 20 * rootset.profile.work_items);
}

}  // namespace
}  // namespace pargreedy
