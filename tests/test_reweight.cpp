// First-class reweight updates: batch semantics, precedence, the
// random_hash provable-no-op guarantee, the exact seeds of a moved key,
// equivalence with delete+re-insert and with from-scratch recomputation
// under every priority policy, and the named-element weight validation
// errors.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/matching/matching.hpp"
#include "core/mis/mis.hpp"
#include "core/priority/priority_source.hpp"
#include "dynamic/dynamic_matching.hpp"
#include "dynamic/dynamic_mis.hpp"
#include "dynamic/update_batch.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "random/hash.hpp"
#include "support/check.hpp"

namespace pargreedy {
namespace {

constexpr uint64_t kN = 300;
constexpr uint64_t kM = 1'200;

CsrGraph weighted_graph(uint64_t seed, uint64_t levels = 4) {
  CsrGraph g = CsrGraph::from_edges(random_graph_nm(kN, kM, seed));
  g.set_vertex_weights(quantized_weights(g.num_vertices(), seed + 1, levels));
  g.set_edge_weights(quantized_weights(g.num_edges(), seed + 2, levels));
  return g;
}

/// A reweight-only batch over `count` live edges and `count` vertices,
/// deterministic in the seed.
UpdateBatch reweight_batch(const OverlayGraph& graph, uint64_t count,
                           uint64_t seed) {
  const EdgeList live_list = graph.live_edge_list();
  const std::span<const Edge> live = live_list.edges();
  UpdateBatch batch;
  for (uint64_t i = 0; i < count; ++i) {
    const Edge e = live[hash_range(seed, i, live.size())];
    batch.reweight_edge(e.u, e.v,
                        static_cast<Weight>(1 + hash_range(seed, 100 + i, 9)));
    batch.reweight_vertex(
        static_cast<VertexId>(hash_range(seed, 200 + i, graph.num_vertices())),
        static_cast<Weight>(1 + hash_range(seed, 300 + i, 9)));
  }
  return batch;
}

// --- The random_hash provable no-op -----------------------------------

TEST(ReweightNoOp, MisRandomHashReweightTriggersZeroRepropagation) {
  DynamicMis dm(EngineOptions::seeded(weighted_graph(11), /*seed=*/5));
  const std::vector<uint8_t> before = dm.solution();
  const BatchStats stats = dm.apply_batch(reweight_batch(dm.graph(), 20, 7));
  EXPECT_GT(stats.reweighted, 0u);
  // Hash keys never read weights: the whole batch must be a provable
  // no-op for the solution — zero seeds, zero rounds, zero decisions
  // re-evaluated.
  EXPECT_EQ(stats.seeds, 0u);
  EXPECT_EQ(stats.rounds, 0u);
  EXPECT_EQ(stats.recomputed, 0u);
  EXPECT_EQ(stats.changed, 0u);
  EXPECT_EQ(dm.solution(), before);
}

TEST(ReweightNoOp, MatchingRandomHashReweightTriggersZeroRepropagation) {
  DynamicMatching dm(EngineOptions::seeded(weighted_graph(13), /*seed=*/6));
  const std::vector<VertexId> before = dm.solution();
  const BatchStats stats = dm.apply_batch(reweight_batch(dm.graph(), 20, 9));
  EXPECT_GT(stats.reweighted, 0u);
  EXPECT_EQ(stats.seeds, 0u);
  EXPECT_EQ(stats.rounds, 0u);
  EXPECT_EQ(stats.recomputed, 0u);
  EXPECT_EQ(dm.solution(), before);
}

TEST(ReweightNoOp, SameWeightReweightIsSkippedEntirely) {
  CsrGraph g = weighted_graph(17);
  DynamicMis dm(EngineOptions::with_source(g, PrioritySource::vertex_weight()));
  UpdateBatch batch;
  batch.reweight_vertex(4, g.vertex_weight(4));  // identical weight
  const Edge e = g.edge(0);
  batch.reweight_edge(e.u, e.v, g.edge_weight(0));
  const BatchStats stats = dm.apply_batch(batch);
  EXPECT_EQ(stats.reweighted, 0u);
  EXPECT_EQ(stats.seeds, 0u);
  EXPECT_EQ(stats.rounds, 0u);
}

// --- Exactness under every policy -------------------------------------

/// After any reweight traffic the maintained MIS must equal the weighted
/// sequential oracle recomputed from the engine's own snapshot (which
/// carries the updated weights), and mis_sequential under the engine's
/// vertex_order_for() of that snapshot must agree too.
void expect_mis_exact(const DynamicMis& dm, const PrioritySource& src) {
  const CsrGraph h = dm.active_subgraph();
  std::vector<uint8_t> expect = mis_weighted_sequential(h, src).in_set;
  for (VertexId v = 0; v < dm.num_vertices(); ++v)
    if (!dm.active(v)) expect[v] = 0;
  ASSERT_EQ(dm.solution(), expect);
  std::vector<uint8_t> via_order =
      mis_sequential(h, dm.vertex_order_for(h)).in_set;
  for (VertexId v = 0; v < dm.num_vertices(); ++v)
    if (!dm.active(v)) via_order[v] = 0;
  ASSERT_EQ(dm.solution(), via_order);
}

class ReweightPolicy : public ::testing::TestWithParam<int> {
 protected:
  PrioritySource vertex_source() const {
    switch (GetParam()) {
      case 0:
        return PrioritySource::random_hash(21);
      case 1:
        return PrioritySource::vertex_weight();
      default:
        return PrioritySource::weight_hash_tiebreak(23);
    }
  }
  PrioritySource edge_source() const {
    switch (GetParam()) {
      case 0:
        return PrioritySource::random_hash(31);
      case 1:
        return PrioritySource::edge_weight();
      default:
        return PrioritySource::weight_hash_tiebreak(33);
    }
  }
};

TEST_P(ReweightPolicy, MisVertexReweightsStayExact) {
  const PrioritySource src = vertex_source();
  DynamicMis dm(EngineOptions::with_source(
      weighted_graph(41, /*levels=*/3), src));
  for (uint64_t round = 0; round < 6; ++round) {
    dm.apply_batch(reweight_batch(dm.graph(), 10, 50 + round));
    expect_mis_exact(dm, src);
  }
}

TEST_P(ReweightPolicy, MisDeactivateAndReweightInOneBatchStaysExact) {
  // Each batch deactivates vertices and reweights the same vertices,
  // mostly downwards, and re-activates the previous batch's. A vertex
  // that loses priority while it leaves no longer reaches, under its new
  // key, the neighbours it blocked under the old one; they must still be
  // re-examined.
  const PrioritySource src = vertex_source();
  DynamicMis dm(EngineOptions::with_source(
      weighted_graph(45, /*levels=*/3), src));
  std::vector<VertexId> previous;
  for (uint64_t round = 0; round < 6; ++round) {
    UpdateBatch batch;
    for (const VertexId v : previous) batch.activate(v);
    previous.clear();
    for (uint64_t i = 0; i < 12; ++i) {
      const auto v = static_cast<VertexId>(hash_range(70 + round, i, kN));
      batch.deactivate(v).reweight_vertex(
          v, 0.5 + static_cast<Weight>(hash_range(71 + round, i, 3)));
      previous.push_back(v);
    }
    dm.apply_batch(batch);
    expect_mis_exact(dm, src);
  }
}

TEST_P(ReweightPolicy, MatchingEdgeReweightEqualsDeleteReinsert) {
  const PrioritySource src = edge_source();
  const CsrGraph g = weighted_graph(43, /*levels=*/3);
  DynamicMatching via_reweight(EngineOptions::with_source(g, src));
  DynamicMatching via_churn(EngineOptions::with_source(g, src));
  for (uint64_t round = 0; round < 6; ++round) {
    const EdgeList live_list = via_reweight.graph().live_edge_list();
    const std::span<const Edge> live = live_list.edges();
    UpdateBatch reweights, churn;
    std::set<uint64_t> chosen;
    for (uint64_t i = 0; i < 12; ++i) {
      const Edge e = live[hash_range(60 + round, i, live.size())];
      if (!chosen.insert(edge_pair_key(e)).second) continue;  // distinct
      const Weight w =
          static_cast<Weight>(1 + hash_range(61 + round, i, 9));
      reweights.reweight_edge(e.u, e.v, w);
      // The historical workaround the reweight op replaces: tear the edge
      // down and re-insert it with the new weight, in one batch.
      churn.delete_edge(e.u, e.v).insert_edge(e.u, e.v, w);
    }
    const BatchStats rs = via_reweight.apply_batch(reweights);
    const BatchStats cs = via_churn.apply_batch(churn);
    ASSERT_EQ(via_reweight.solution(), via_churn.solution())
        << "policy " << priority_policy_name(src.policy()) << " round "
        << round;
    // Reweight perturbs the same solution without structural churn.
    EXPECT_EQ(cs.deleted + cs.inserted, 2 * chosen.size());
    EXPECT_EQ(rs.deleted + rs.inserted, 0u);
    const CsrGraph h = via_reweight.active_subgraph();
    ASSERT_EQ(via_reweight.solution(),
              mm_weighted_sequential(h, src).matched_with);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ReweightPolicy,
                         ::testing::Values(0, 1, 2));

// --- Precedence and edge cases ----------------------------------------

TEST(ReweightPrecedence, AbsentEdgeReweightIsSilentlySkipped) {
  DynamicMatching dm(EngineOptions::with_source(
      weighted_graph(51), PrioritySource::edge_weight()));
  const std::vector<VertexId> before = dm.solution();
  VertexId a = 0, b = 0;
  for (VertexId u = 0; u < kN && a == b; ++u)
    for (VertexId v = u + 1; v < kN; ++v)
      if (!dm.graph().has_edge(u, v)) {
        a = u;
        b = v;
        break;
      }
  const BatchStats stats =
      dm.apply_batch(UpdateBatch{}.reweight_edge(a, b, 7.0));
  EXPECT_EQ(stats.reweighted, 0u);
  EXPECT_EQ(stats.seeds, 0u);
  EXPECT_EQ(dm.solution(), before);
}

TEST(ReweightPrecedence, ReweightAfterDeleteInSameBatchIsANoOp) {
  const CsrGraph g = weighted_graph(53);
  DynamicMatching dm(EngineOptions::with_source(
      g, PrioritySource::edge_weight()));
  const Edge e = g.edge(5);
  // Deletions (step 2) precede reweights (step 5): the edge is gone by
  // the time the reweight applies.
  const BatchStats stats = dm.apply_batch(
      UpdateBatch{}.delete_edge(e.u, e.v).reweight_edge(e.u, e.v, 99.0));
  EXPECT_EQ(stats.deleted, 1u);
  EXPECT_EQ(stats.reweighted, 0u);
  EXPECT_FALSE(dm.graph().has_edge(e.u, e.v));
}

TEST(ReweightPrecedence, ReweightWinsOverInsertWeightInSameBatch) {
  const CsrGraph g = weighted_graph(55);
  DynamicMatching dm(EngineOptions::with_source(
      g, PrioritySource::edge_weight()));
  VertexId a = 0, b = 0;
  for (VertexId u = 0; u < kN && a == b; ++u)
    for (VertexId v = u + 1; v < kN; ++v)
      if (!dm.graph().has_edge(u, v)) {
        a = u;
        b = v;
        break;
      }
  dm.apply_batch(
      UpdateBatch{}.insert_edge(a, b, 2.0).reweight_edge(a, b, 8.0));
  const EdgeSlot s = dm.graph().find_slot(a, b);
  ASSERT_NE(s, kInvalidSlot);
  EXPECT_EQ(dm.graph().slot_weight(s), 8.0);
  const CsrGraph h = dm.active_subgraph();
  ASSERT_EQ(dm.solution(),
            mm_weighted_sequential(h, dm.priority_source()).matched_with);
}

TEST(ReweightPrecedence, LastReweightOfAnElementWins) {
  const CsrGraph g = weighted_graph(57);
  DynamicMis dm(EngineOptions::with_source(g, PrioritySource::vertex_weight()));
  dm.apply_batch(
      UpdateBatch{}.reweight_vertex(3, 5.0).reweight_vertex(3, 2.0));
  EXPECT_EQ(dm.graph().vertex_weight(3), 2.0);
  expect_mis_exact(dm, dm.priority_source());
}

TEST(ReweightPrecedence, DeactivatedVertexReweightDefersItsEffect) {
  const PrioritySource src = PrioritySource::vertex_weight();
  DynamicMis dm(EngineOptions::with_source(weighted_graph(59), src));
  dm.apply_batch(UpdateBatch{}.deactivate(7));
  // Reweighting the inactive vertex stores the weight but cannot touch
  // any decision: zero seeds, zero rounds.
  const BatchStats stats =
      dm.apply_batch(UpdateBatch{}.reweight_vertex(7, 123.0));
  EXPECT_EQ(stats.reweighted, 1u);
  EXPECT_EQ(stats.seeds, 0u);
  EXPECT_EQ(stats.rounds, 0u);
  EXPECT_EQ(dm.graph().vertex_weight(7), 123.0);
  expect_mis_exact(dm, src);
  // On activation the deferred priority takes effect: weight 123 beats
  // every quantized level, so vertex 7 must enter the weighted MIS.
  dm.apply_batch(UpdateBatch{}.activate(7));
  EXPECT_TRUE(dm.in_set(7));
  expect_mis_exact(dm, src);
}

TEST(ReweightPrecedence, InactiveEndpointEdgeReweightAppliesOnActivation) {
  const PrioritySource src = PrioritySource::edge_weight();
  const CsrGraph g = weighted_graph(61);
  DynamicMatching dm(EngineOptions::with_source(g, src));
  const Edge e = g.edge(9);
  dm.apply_batch(UpdateBatch{}.deactivate(e.u));
  // The edge is live (not deleted) but outside the matching's graph; the
  // reweight lands on the stored slot without seeding anything.
  const BatchStats stats =
      dm.apply_batch(UpdateBatch{}.reweight_edge(e.u, e.v, 77.0));
  EXPECT_EQ(stats.reweighted, 1u);
  EXPECT_EQ(stats.seeds, 0u);
  dm.apply_batch(UpdateBatch{}.activate(e.u));
  const CsrGraph h = dm.active_subgraph();
  ASSERT_EQ(dm.solution(), mm_weighted_sequential(h, src).matched_with);
}

TEST(ReweightPrecedence, MisEdgeReweightReachesSnapshotsWithoutSeeding) {
  const CsrGraph g = weighted_graph(63);
  DynamicMis dm(EngineOptions::with_source(g, PrioritySource::vertex_weight()));
  const Edge e = g.edge(4);
  const BatchStats stats =
      dm.apply_batch(UpdateBatch{}.reweight_edge(e.u, e.v, 42.0));
  EXPECT_EQ(stats.reweighted, 1u);
  EXPECT_EQ(stats.seeds, 0u);  // edge weights never enter vertex priorities
  const CsrGraph h = dm.active_subgraph();
  bool found = false;
  for (EdgeId id = 0; id < h.num_edges(); ++id)
    if (h.edge(id) == Edge{e.u, e.v}.canonical()) {
      EXPECT_EQ(h.edge_weight(id), 42.0);
      found = true;
    }
  EXPECT_TRUE(found);
}

// --- Seeds of a moved key ----------------------------------------------
// A reweight seeds the element whose key moved and, only while it is IN,
// the neighbours whose order with it flipped. On a 4-vertex path the
// pre-batch state is read off the weights.

/// Path 0-1-2-3 with the given vertex and edge weights (edges in path
/// order).
CsrGraph weighted_path(std::vector<Weight> vertex_weights,
                       std::vector<Weight> edge_weights) {
  CsrGraph g = CsrGraph::from_edges(path_graph(4));
  g.set_vertex_weights(std::move(vertex_weights));
  g.set_edge_weights(std::move(edge_weights));
  return g;
}

TEST(ReweightSeeds, MisReweightOfAnOutVertexSeedsOnlyIt) {
  const PrioritySource src = PrioritySource::vertex_weight();
  DynamicMis dm(EngineOptions::with_source(
      weighted_path({4.0, 3.0, 2.0, 1.0}, {1.0, 1.0, 1.0}), src));
  ASSERT_EQ(dm.solution(), (std::vector<uint8_t>{1, 0, 1, 0}));
  // 1 is OUT and constrains nobody, so moving it ahead of everyone seeds
  // only 1 itself; the rounds find the rest (0 and 2 leave, 3 joins).
  const BatchStats stats =
      dm.apply_batch(UpdateBatch{}.reweight_vertex(1, 5.0));
  EXPECT_EQ(stats.seeds, 1u);
  EXPECT_EQ(stats.changed, 4u);
  EXPECT_EQ(dm.solution(), (std::vector<uint8_t>{0, 1, 0, 1}));
  expect_mis_exact(dm, src);
}

TEST(ReweightSeeds, MisReweightOfAnInVertexSeedsOnlyFlippedNeighbours) {
  const PrioritySource src = PrioritySource::vertex_weight();
  DynamicMis dm(EngineOptions::with_source(
      weighted_path({4.0, 3.0, 2.0, 1.0}, {1.0, 1.0, 1.0}), src));
  ASSERT_EQ(dm.solution(), (std::vector<uint8_t>{1, 0, 1, 0}));
  // 2 is IN. Weight 0.5 moves it behind 3 but not behind 1: seeds 2 and
  // 3, not 1. 3 joins and 2 leaves.
  const BatchStats stats =
      dm.apply_batch(UpdateBatch{}.reweight_vertex(2, 0.5));
  EXPECT_EQ(stats.seeds, 2u);
  EXPECT_EQ(stats.changed, 2u);
  EXPECT_EQ(dm.solution(), (std::vector<uint8_t>{1, 0, 0, 1}));
  expect_mis_exact(dm, src);
}

TEST(ReweightSeeds, MatchingReweightOfAMatchedEdgeSeedsOnlyFlippedEdges) {
  const PrioritySource src = PrioritySource::edge_weight();
  DynamicMatching dm(EngineOptions::with_source(
      weighted_path({1.0, 1.0, 1.0, 1.0}, {1.0, 3.0, 2.0}), src));
  ASSERT_TRUE(dm.matched(1, 2));  // the heaviest edge blocks both others
  // Weight 1.5 moves 1-2 behind 2-3 but not behind 0-1: seeds 1-2 and
  // 2-3, not 0-1. 2-3 joins, 1-2 leaves, and then 0-1 joins.
  const BatchStats stats =
      dm.apply_batch(UpdateBatch{}.reweight_edge(1, 2, 1.5));
  EXPECT_EQ(stats.seeds, 2u);
  EXPECT_EQ(stats.changed, 3u);
  EXPECT_EQ(dm.matched_edges(), (std::vector<Edge>{{0, 1}, {2, 3}}));
  const CsrGraph h = dm.active_subgraph();
  ASSERT_EQ(dm.solution(), mm_weighted_sequential(h, src).matched_with);
  ASSERT_EQ(dm.solution(), mm_sequential(h, dm.edge_order_for(h)).matched_with);
}

// --- Batch plumbing ----------------------------------------------------

TEST(ReweightBatch, SizeEmptyClearAndRangeCoverReweights) {
  UpdateBatch batch;
  EXPECT_TRUE(batch.empty());
  batch.reweight_edge(1, 2, 3.0);
  batch.reweight_vertex(4, 5.0);
  EXPECT_FALSE(batch.empty());
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.edge_reweights().size(), 1u);
  EXPECT_EQ(batch.vertex_reweights().size(), 1u);
  EXPECT_TRUE(batch.endpoints_in_range(6));
  EXPECT_FALSE(batch.endpoints_in_range(4));  // reweighted vertex 4 >= 4
  batch.clear();
  EXPECT_TRUE(batch.empty());

  UpdateBatch out_of_range;
  out_of_range.reweight_edge(0, 99, 1.0);
  EXPECT_FALSE(out_of_range.endpoints_in_range(10));
  DynamicMis dm(EngineOptions::seeded(CsrGraph::from_edges(path_graph(10)), 1));
  EXPECT_THROW(dm.apply_batch(out_of_range), CheckFailure);
}

TEST(ReweightBatch, RandomWeightedEmitsMixedReweightBatches) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(100, 400, 3));
  const std::vector<Edge> live(g.edges().begin(), g.edges().end());
  const UpdateBatch batch = UpdateBatch::random_weighted(
      100, live, /*inserts=*/4, /*deletes=*/2, /*reweights=*/10,
      /*toggles=*/1, /*levels=*/3, /*seed=*/77);
  EXPECT_EQ(batch.edge_reweights().size() + batch.vertex_reweights().size(),
            10u);
  EXPECT_GT(batch.edge_reweights().size(), 0u);
  EXPECT_GT(batch.vertex_reweights().size(), 0u);
  for (Weight w : batch.edge_reweight_weights()) {
    EXPECT_GE(w, 1.0);
    EXPECT_LE(w, 3.0);
  }
  for (Weight w : batch.vertex_reweight_weights()) {
    EXPECT_GE(w, 1.0);
    EXPECT_LE(w, 3.0);
  }
  // The 7-argument overload is the reweights=0 case, byte-identical to
  // its historical behavior.
  const UpdateBatch legacy = UpdateBatch::random_weighted(
      100, live, 4, 2, /*toggles=*/1, /*levels=*/3, /*seed=*/77);
  EXPECT_EQ(legacy.inserts(), batch.inserts());
  EXPECT_EQ(legacy.insert_weights(), batch.insert_weights());
  EXPECT_TRUE(legacy.edge_reweights().empty());
  EXPECT_TRUE(legacy.vertex_reweights().empty());
}

// --- Validation names the offending element ---------------------------

TEST(ReweightValidation, ErrorMessagesNameTheOffendingElement) {
  constexpr Weight kNan = std::numeric_limits<Weight>::quiet_NaN();
  constexpr Weight kInf = std::numeric_limits<Weight>::infinity();
  UpdateBatch batch;
  try {
    batch.reweight_edge(3, 7, kNan);
    FAIL() << "non-finite reweight weight must throw";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("{3,7}"), std::string::npos)
        << e.what();
  }
  try {
    batch.reweight_vertex(5, kInf);
    FAIL() << "non-finite reweight weight must throw";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("vertex 5"), std::string::npos)
        << e.what();
  }
  try {
    batch.insert_edge(4, 9, kNan);
    FAIL() << "non-finite insert weight must throw";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("{4,9}"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(batch.empty());  // nothing was queued by the rejected ops
  EXPECT_THROW(batch.reweight_edge(2, 2, 1.0), CheckFailure);  // self loop
}

}  // namespace
}  // namespace pargreedy
