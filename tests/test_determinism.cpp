// Cross-cutting determinism suite — the paper's central practical promise
// (Section 1): "once an ordering is fixed, the approach guarantees the same
// result whether run in parallel or sequentially, or, in fact, choosing any
// schedule of the iterations that respects the dependences."
//
// Every randomized component must be a pure function of its seed, and every
// algorithm a pure function of (graph, ordering) — independent of worker
// count, window size, and repetition.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/matching/matching.hpp"
#include "core/mis/mis.hpp"
#include "extensions/coloring.hpp"
#include "extensions/spanning_forest.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "parallel/arch.hpp"

namespace pargreedy {
namespace {

struct Fixture {
  CsrGraph g;
  VertexOrder vorder;
  EdgeOrder eorder;

  static Fixture make(uint64_t seed) {
    Fixture f;
    f.g = CsrGraph::from_edges(random_graph_nm(1'500, 7'500, seed));
    f.vorder = VertexOrder::random(f.g.num_vertices(), seed + 1);
    f.eorder = EdgeOrder::random(f.g.num_edges(), seed + 2);
    return f;
  }
};

class DeterminismAcrossWidths : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeterminismAcrossWidths, EveryMisVariantIsByteIdenticalEverywhere) {
  const Fixture f = Fixture::make(GetParam());
  std::vector<uint8_t> reference;
  for (int workers : {1, 2, 4, 8}) {
    ScopedNumWorkers guard(workers);
    const std::vector<std::vector<uint8_t>> results = {
        mis_sequential(f.g, f.vorder).in_set,
        mis_rootset(f.g, f.vorder).in_set,
        mis_prefix(f.g, f.vorder, 1).in_set,
        mis_prefix(f.g, f.vorder, 64).in_set,
        mis_prefix(f.g, f.vorder, f.g.num_vertices()).in_set,
    };
    if (reference.empty()) reference = results[0];
    for (std::size_t i = 0; i < results.size(); ++i)
      EXPECT_EQ(results[i], reference)
          << "variant " << i << " at " << workers << " workers";
  }
}

TEST_P(DeterminismAcrossWidths, EveryMmVariantIsByteIdenticalEverywhere) {
  const Fixture f = Fixture::make(GetParam());
  std::vector<uint8_t> reference;
  for (int workers : {1, 2, 4, 8}) {
    ScopedNumWorkers guard(workers);
    const std::vector<std::vector<uint8_t>> results = {
        mm_sequential(f.g, f.eorder).in_matching,
        mm_parallel_naive(f.g, f.eorder).in_matching,
        mm_rootset(f.g, f.eorder).in_matching,
        mm_prefix(f.g, f.eorder, 1).in_matching,
        mm_prefix(f.g, f.eorder, 64).in_matching,
        mm_prefix(f.g, f.eorder, f.g.num_edges()).in_matching,
    };
    if (reference.empty()) reference = results[0];
    for (std::size_t i = 0; i < results.size(); ++i)
      EXPECT_EQ(results[i], reference)
          << "variant " << i << " at " << workers << " workers";
  }
}

TEST_P(DeterminismAcrossWidths, ExtensionsAreByteIdenticalEverywhere) {
  const Fixture f = Fixture::make(GetParam());
  std::vector<uint8_t> forest_ref;
  std::vector<uint32_t> color_ref;
  for (int workers : {1, 2, 4}) {
    ScopedNumWorkers guard(workers);
    const ForestResult forest = spanning_forest_prefix(f.g, f.eorder, 128);
    const ColoringResult coloring =
        greedy_coloring_prefix(f.g, f.vorder, 128);
    if (forest_ref.empty()) {
      forest_ref = forest.in_forest;
      color_ref = coloring.color;
    }
    EXPECT_EQ(forest.in_forest, forest_ref) << workers << " workers";
    EXPECT_EQ(coloring.color, color_ref) << workers << " workers";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismAcrossWidths,
                         ::testing::Values(0, 1, 2, 3));

TEST(Determinism, RepeatedRunsAreStable) {
  // Same inputs, same process, many repetitions: results never wobble
  // (catches e.g. accidental use of unseeded randomness or memory reuse).
  const Fixture f = Fixture::make(99);
  ScopedNumWorkers guard(4);
  const std::vector<uint8_t> mis0 = mis_prefix(f.g, f.vorder, 100).in_set;
  const std::vector<uint8_t> mm0 = mm_prefix(f.g, f.eorder, 100).in_matching;
  for (int rep = 0; rep < 5; ++rep) {
    EXPECT_EQ(mis_prefix(f.g, f.vorder, 100).in_set, mis0);
    EXPECT_EQ(mm_prefix(f.g, f.eorder, 100).in_matching, mm0);
  }
}

TEST(Determinism, WindowSizeNeverChangesTheAnswer) {
  // The window is a *performance* dial, not a semantic one: sweep it finely.
  const Fixture f = Fixture::make(123);
  const std::vector<uint8_t> mis_ref = mis_sequential(f.g, f.vorder).in_set;
  const std::vector<uint8_t> mm_ref =
      mm_sequential(f.g, f.eorder).in_matching;
  for (uint64_t w = 1; w <= f.g.num_vertices(); w = w * 3 + 1) {
    EXPECT_EQ(mis_prefix(f.g, f.vorder, w).in_set, mis_ref) << "w=" << w;
  }
  for (uint64_t w = 1; w <= f.g.num_edges(); w = w * 3 + 1) {
    EXPECT_EQ(mm_prefix(f.g, f.eorder, w).in_matching, mm_ref) << "w=" << w;
  }
}

TEST(Determinism, WholePipelineIsAPureFunctionOfSeeds) {
  // End to end: generator -> CSR -> ordering -> algorithm, twice, at
  // different worker counts, must produce bit-identical artifacts.
  auto run = [](int workers) {
    ScopedNumWorkers guard(workers);
    const CsrGraph g = CsrGraph::from_edges(rmat_graph(11, 8'000, 5));
    const VertexOrder vo = VertexOrder::random(g.num_vertices(), 6);
    const EdgeOrder eo = EdgeOrder::random(g.num_edges(), 7);
    return std::make_tuple(mis_rootset(g, vo).in_set,
                           mm_rootset(g, eo).in_matching,
                           luby_mis(g, 8).in_set);
  };
  const auto a = run(1);
  const auto b = run(4);
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
}

TEST(Determinism, ProfilesOfWindowedAlgorithmsAreScheduleIndependent) {
  // Not just the answers: the *round counts* of the windowed algorithms are
  // pure functions of (graph, order, window) — this is what makes the
  // Figure 1(b)/2(b) series reproducible on any machine.
  const Fixture f = Fixture::make(321);
  uint64_t mis_rounds = 0;
  uint64_t mm_rounds = 0;
  for (int workers : {1, 2, 4}) {
    ScopedNumWorkers guard(workers);
    const uint64_t mr =
        mis_prefix(f.g, f.vorder, 200, ProfileLevel::kCounters)
            .profile.rounds;
    const uint64_t er =
        mm_prefix(f.g, f.eorder, 200, ProfileLevel::kCounters)
            .profile.rounds;
    if (mis_rounds == 0) {
      mis_rounds = mr;
      mm_rounds = er;
    }
    EXPECT_EQ(mr, mis_rounds) << "workers=" << workers;
    EXPECT_EQ(er, mm_rounds) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace pargreedy
