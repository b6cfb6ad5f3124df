// DynamicMis behavior tests: batch semantics, repropagation cascades,
// activity toggles, compaction, the exact seed counts of each seeding
// rule, and exact agreement with the sequential greedy oracle after every
// batch.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/mis/mis.hpp"
#include "core/mis/vertex_order.hpp"
#include "core/priority/priority_source.hpp"
#include "dynamic/dynamic_mis.hpp"
#include "dynamic/update_batch.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "parallel/arch.hpp"
#include "support/check.hpp"

namespace pargreedy {
namespace {

/// The exact-equivalence invariant from the class header: engine bitmap ==
/// from-scratch sequential greedy on the active-induced subgraph, masked
/// by activity (inactive vertices are isolated in the oracle graph and
/// must report 0 here).
void expect_matches_oracle(const DynamicMis& dm) {
  const CsrGraph h = dm.active_subgraph();
  std::vector<uint8_t> expect =
      mis_sequential(h, dm.vertex_order_for(h)).in_set;
  for (VertexId v = 0; v < dm.num_vertices(); ++v)
    if (!dm.active(v)) expect[v] = 0;
  ASSERT_EQ(dm.solution(), expect);
}

/// An engine under the identity order (vertex 0 first): vertex_weight
/// priorities on vertex weights n - v.
DynamicMis identity_engine(CsrGraph g) {
  const uint64_t n = g.num_vertices();
  std::vector<Weight> weights(n);
  for (VertexId v = 0; v < n; ++v) weights[v] = static_cast<Weight>(n - v);
  g.set_vertex_weights(std::move(weights));
  return DynamicMis(EngineOptions::with_source(
      std::move(g), PrioritySource::vertex_weight()));
}

DynamicMis identity_engine(uint64_t n, std::vector<Edge> edges) {
  return identity_engine(CsrGraph::from_edges(EdgeList(n, std::move(edges))));
}

TEST(DynamicMis, InitialSolutionIsTheGreedyMis) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(500, 2'000, 3));
  const DynamicMis dm(EngineOptions::seeded(g, /*seed=*/17));
  EXPECT_EQ(dm.solution(), mis_sequential(g, dm.vertex_order_for(g)).in_set);
  EXPECT_EQ(dm.num_edges(), g.num_edges());
}

TEST(DynamicMis, EmptyBatchIsANoOp) {
  DynamicMis dm(EngineOptions::seeded(CsrGraph::from_edges(path_graph(10)), 1));
  const std::vector<uint8_t> before = dm.solution();
  const BatchStats stats = dm.apply_batch(UpdateBatch{});
  EXPECT_EQ(stats.seeds, 0u);
  EXPECT_EQ(stats.rounds, 0u);
  EXPECT_EQ(dm.solution(), before);
}

TEST(DynamicMis, NoOpOperationsDoNotSeed) {
  DynamicMis dm(EngineOptions::seeded(CsrGraph::from_edges(path_graph(6)), 2));
  UpdateBatch batch;
  batch.insert_edge(0, 1);   // already present
  batch.delete_edge(0, 5);   // absent
  batch.activate(3);         // already active
  const BatchStats stats = dm.apply_batch(batch);
  EXPECT_EQ(stats.inserted, 0u);
  EXPECT_EQ(stats.deleted, 0u);
  EXPECT_EQ(stats.activated, 0u);
  EXPECT_EQ(stats.seeds, 0u);
}

TEST(DynamicMis, SingleEdgeInsertAndDeleteRoundTrip) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(200, 600, 5));
  DynamicMis dm(EngineOptions::seeded(g, 23));
  const std::vector<uint8_t> before = dm.solution();
  // Find a non-edge between two set members: inserting it must evict one.
  VertexId a = kInvalidVertex, b = kInvalidVertex;
  for (VertexId u = 0; u < 200 && a == kInvalidVertex; ++u)
    for (VertexId v = u + 1; v < 200; ++v)
      if (dm.in_set(u) && dm.in_set(v) && !dm.graph().has_edge(u, v)) {
        a = u;
        b = v;
        break;
      }
  ASSERT_NE(a, kInvalidVertex);
  dm.apply_batch(UpdateBatch{}.insert_edge(a, b));
  EXPECT_FALSE(dm.in_set(a) && dm.in_set(b));
  expect_matches_oracle(dm);
  dm.apply_batch(UpdateBatch{}.delete_edge(a, b));
  EXPECT_EQ(dm.solution(), before);  // exact reversibility
}

TEST(DynamicMis, CascadeAlongAPathReachesEveryVertex) {
  // Path with identity priorities: MIS = {0, 2, 4, ...}. Deactivating 0
  // must flip the entire alternation — the classic Theta(n) dependence
  // chain — and reactivating must restore it.
  const uint64_t n = 101;
  DynamicMis dm = identity_engine(CsrGraph::from_edges(path_graph(n)));
  for (VertexId v = 0; v < n; ++v) EXPECT_EQ(dm.in_set(v), v % 2 == 0);
  BatchStats stats = dm.apply_batch(UpdateBatch{}.deactivate(0));
  for (VertexId v = 1; v < n; ++v) EXPECT_EQ(dm.in_set(v), v % 2 == 1);
  EXPECT_FALSE(dm.in_set(0));
  // The flip walks the whole path: one round per vertex.
  EXPECT_GE(stats.rounds, n - 2);
  EXPECT_GE(stats.changed, n - 1);
  stats = dm.apply_batch(UpdateBatch{}.activate(0));
  for (VertexId v = 0; v < n; ++v) EXPECT_EQ(dm.in_set(v), v % 2 == 0);
  expect_matches_oracle(dm);
}

TEST(DynamicMis, LocalizedUpdateTouchesFewVertices) {
  // On a star, deleting one leaf edge only re-examines that leaf.
  const uint64_t n = 1'000;
  DynamicMis dm = identity_engine(CsrGraph::from_edges(star_graph(n)));
  ASSERT_TRUE(dm.in_set(0));
  const BatchStats stats = dm.apply_batch(UpdateBatch{}.delete_edge(0, 500));
  EXPECT_TRUE(dm.in_set(500));  // freed leaf joins
  EXPECT_LE(stats.recomputed, 2u);
  expect_matches_oracle(dm);
}

TEST(DynamicMis, IntraBatchPrecedenceInsertsWinActivationsWin) {
  DynamicMis dm(EngineOptions::seeded(CsrGraph::from_edges(path_graph(4)), 9));
  UpdateBatch batch;
  batch.delete_edge(1, 2).insert_edge(1, 2);  // delete applied first
  batch.deactivate(3).activate(3);            // activation applied last
  dm.apply_batch(batch);
  EXPECT_TRUE(dm.graph().has_edge(1, 2));
  EXPECT_TRUE(dm.active(3));
  expect_matches_oracle(dm);
}

TEST(DynamicMis, EdgesInsertedAtInactiveVerticesWaitForActivation) {
  DynamicMis dm = identity_engine(CsrGraph::from_edges(path_graph(3)));
  dm.apply_batch(UpdateBatch{}.deactivate(0));
  // Edge stored, but 0 is not in the graph: 1's decision unaffected.
  dm.apply_batch(UpdateBatch{}.insert_edge(0, 2));
  EXPECT_TRUE(dm.graph().has_edge(0, 2));
  EXPECT_FALSE(dm.in_set(0));
  EXPECT_TRUE(dm.in_set(1));
  expect_matches_oracle(dm);
  dm.apply_batch(UpdateBatch{}.activate(0));
  // 0 (earliest) rejoins and now suppresses both 1 and 2.
  EXPECT_TRUE(dm.in_set(0));
  EXPECT_FALSE(dm.in_set(1));
  EXPECT_FALSE(dm.in_set(2));
  expect_matches_oracle(dm);
}

TEST(DynamicMis, AutoCompactionPreservesTheSolution) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(300, 900, 8));
  DynamicMis dm(EngineOptions::seeded(g, 31));
  dm.set_compaction_threshold(0.05);
  bool compacted = false;
  for (uint64_t round = 0; round < 20; ++round) {
    const UpdateBatch batch = UpdateBatch::random(
        300, dm.graph().live_edge_list().edges(), /*inserts=*/12,
        /*deletes=*/8, /*toggles=*/0, /*seed=*/1'000 + round);
    compacted = dm.apply_batch(batch).compacted || compacted;
    expect_matches_oracle(dm);
  }
  EXPECT_TRUE(compacted);
  EXPECT_LT(dm.graph().overlay_fraction(), 0.1);
}

TEST(DynamicMis, ManualCompactionIsTransparent) {
  DynamicMis dm(EngineOptions::seeded(
      CsrGraph::from_edges(random_graph_nm(150, 400, 2)), 5));
  dm.set_compaction_threshold(0.0);  // disable auto
  dm.apply_batch(UpdateBatch::random(
      150, dm.graph().live_edge_list().edges(), 30, 20, 0, 77));
  const std::vector<uint8_t> before = dm.solution();
  dm.compact();
  EXPECT_EQ(dm.solution(), before);
  expect_matches_oracle(dm);
}

TEST(DynamicMis, DeterministicAcrossWorkerCounts) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(800, 3'200, 4));
  std::vector<std::vector<uint8_t>> runs;
  for (int workers : {1, 2, 4}) {
    ScopedNumWorkers guard(workers);
    DynamicMis dm(EngineOptions::seeded(g, 99));
    for (uint64_t round = 0; round < 6; ++round)
      dm.apply_batch(UpdateBatch::random(
          800, dm.graph().live_edge_list().edges(), 40, 30, 6,
          500 + round));
    runs.push_back(dm.solution());
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(DynamicMis, RejectsOutOfRangeBatch) {
  DynamicMis dm(EngineOptions::seeded(CsrGraph::from_edges(path_graph(4)), 1));
  EXPECT_THROW(dm.apply_batch(UpdateBatch{}.insert_edge(0, 4)),
               CheckFailure);
  EXPECT_THROW(dm.apply_batch(UpdateBatch{}.deactivate(9)), CheckFailure);
}

TEST(DynamicMis, StatsAccounting) {
  DynamicMis dm(EngineOptions::seeded(CsrGraph::from_edges(path_graph(8)), 6));
  UpdateBatch batch;
  batch.insert_edge(0, 7).delete_edge(3, 4).deactivate(5);
  const BatchStats stats = dm.apply_batch(batch);
  EXPECT_EQ(stats.inserted, 1u);
  EXPECT_EQ(stats.deleted, 1u);
  EXPECT_EQ(stats.deactivated, 1u);
  // Seed 6 ranks the path 7, 1, 0, 5, 2, 6, 4, 3, so the pre-batch MIS is
  // {1, 3, 5, 7}. Insert 0-7: only 7 is IN, no seed. Delete 3-4: the
  // earlier endpoint 4 is OUT, no seed. Deactivate 5: IN, one seed.
  EXPECT_EQ(stats.seeds, 1u);
  EXPECT_GE(stats.recomputed, stats.seeds);
  EXPECT_FALSE(stats.summary().empty());
  expect_matches_oracle(dm);
}

// --- Seeding rules ------------------------------------------------------
// Every rule reads the pre-batch greedy state. Under the identity order
// (vertex 0 first) that state can be read off the graph by hand.

TEST(DynamicMisSeeds, InsertSeedsOnlyWhenBothEndpointsAreIn) {
  DynamicMis dm = identity_engine(6, {{0, 1}, {2, 3}});
  ASSERT_EQ(dm.solution(), (std::vector<uint8_t>{1, 0, 1, 0, 1, 1}));
  struct Case {
    Edge edge;
    uint64_t seeds;
  };
  // 1-3: both OUT. 0-3: only the earlier endpoint IN, so 3 just gains a
  // second blocker. 1-4: only the later endpoint IN, and an OUT vertex
  // blocks nobody. 4-5: both IN, so 5 must leave.
  for (const Case& c : {Case{{1, 3}, 0}, Case{{0, 3}, 0}, Case{{1, 4}, 0},
                        Case{{4, 5}, 1}}) {
    const BatchStats stats =
        dm.apply_batch(UpdateBatch{}.insert_edge(c.edge.u, c.edge.v));
    EXPECT_EQ(stats.inserted, 1u);
    EXPECT_EQ(stats.seeds, c.seeds) << c.edge.u << "-" << c.edge.v;
    EXPECT_EQ(stats.changed, c.seeds);
    expect_matches_oracle(dm);
  }
  EXPECT_FALSE(dm.in_set(5));
}

TEST(DynamicMisSeeds, DeleteSeedsOnlyWhenTheEarlierEndpointIsIn) {
  DynamicMis dm = identity_engine(3, {{0, 1}, {1, 2}});  // MIS {0, 2}
  // 1-2: the earlier endpoint 1 is OUT, so 2 loses no blocker.
  BatchStats stats = dm.apply_batch(UpdateBatch{}.delete_edge(1, 2));
  EXPECT_EQ(stats.seeds, 0u);
  EXPECT_EQ(stats.rounds, 0u);
  expect_matches_oracle(dm);
  // 0-1: 0 is IN, so 1 loses its only blocker and joins.
  stats = dm.apply_batch(UpdateBatch{}.delete_edge(0, 1));
  EXPECT_EQ(stats.seeds, 1u);
  EXPECT_EQ(stats.changed, 1u);
  EXPECT_TRUE(dm.in_set(1));
  expect_matches_oracle(dm);
}

TEST(DynamicMisSeeds, DeactivationSeedsOnlyAnInVertex) {
  DynamicMis dm = identity_engine(3, {{0, 1}, {1, 2}});  // MIS {0, 2}
  // 1 is OUT: it blocked nobody, and inactive it stays OUT.
  BatchStats stats = dm.apply_batch(UpdateBatch{}.deactivate(1));
  EXPECT_EQ(stats.seeds, 0u);
  EXPECT_EQ(stats.rounds, 0u);
  expect_matches_oracle(dm);
  dm.apply_batch(UpdateBatch{}.activate(1));
  expect_matches_oracle(dm);
  // 0 is IN: its departure cascades — 1 joins, 2 leaves.
  stats = dm.apply_batch(UpdateBatch{}.deactivate(0));
  EXPECT_EQ(stats.seeds, 1u);
  EXPECT_EQ(stats.changed, 3u);
  expect_matches_oracle(dm);
}

TEST(DynamicMisSeeds, FlipToInDoesNotRedecideOutSuccessors) {
  // 0 blocks 1; 2 blocks 3, 4 and 5, which are also 1's later neighbours.
  DynamicMis dm = identity_engine(
      6, {{0, 1}, {1, 3}, {1, 4}, {1, 5}, {2, 3}, {2, 4}, {2, 5}});
  ASSERT_EQ(dm.solution(), (std::vector<uint8_t>{1, 0, 1, 0, 0, 0}));
  // Deleting 0-1 frees 1, which joins. Its later neighbours 3-5 are OUT
  // and a new IN neighbour only blocks them further, so none of them is
  // decided again: one seed, one decision, one round.
  const BatchStats stats = dm.apply_batch(UpdateBatch{}.delete_edge(0, 1));
  EXPECT_EQ(stats.seeds, 1u);
  EXPECT_EQ(stats.recomputed, 1u);
  EXPECT_EQ(stats.changed, 1u);
  EXPECT_EQ(stats.rounds, 1u);
  expect_matches_oracle(dm);
}

}  // namespace
}  // namespace pargreedy
