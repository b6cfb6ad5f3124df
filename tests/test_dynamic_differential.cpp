// Differential oracle fuzzing for the dynamic engines (the PR's
// acceptance bar): across random / rMat / structured generators and
// worker counts {1, 2, 4}, apply long sequences of randomized mixed
// batches and after EVERY batch require the maintained solutions to be
// bit-identical to the from-scratch sequential greedy on the updated
// graph under the same priorities.
//
// 30 seeds x 2 engines x 20 batches = 1200 oracle-checked batches per
// run of this suite, on whichever backend (OpenMP or serial) it was
// built with.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/matching/matching.hpp"
#include "core/mis/mis.hpp"
#include "dynamic/batch_stats.hpp"
#include "dynamic/dynamic_matching.hpp"
#include "dynamic/dynamic_mis.hpp"
#include "dynamic/update_batch.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "obs/obs.hpp"
#include "parallel/arch.hpp"
#include "random/hash.hpp"

namespace pargreedy {
namespace {

constexpr uint64_t kBatchesPerInstance = 20;

#if PARGREEDY_OBS
/// Tracks the global obs counters an engine instance should advance, so
/// each test can assert the deterministic counters (rounds, seeds,
/// recomputed) match the BatchStats the engine returned EXACTLY — at
/// every worker width, since instrumentation lives on the serial driver
/// thread and is keyed by deterministic quantities only.
class ObsCounterOracle {
 public:
  ObsCounterOracle()
      : rounds0_(obs::counter_value(obs::kEngineRounds)),
        seeds0_(obs::counter_value(obs::kEngineSeeds)),
        recomputed0_(obs::counter_value(obs::kEngineRecomputed)) {}

  void accumulate(const BatchStats& stats) {
    rounds_ += stats.rounds;
    seeds_ += stats.seeds;
    recomputed_ += stats.recomputed;
  }

  void check(uint64_t seed) const {
    if (!obs::enabled()) return;  // runtime-disabled: counters stay put
    EXPECT_EQ(obs::counter_value(obs::kEngineRounds) - rounds0_, rounds_)
        << "engine.rounds diverged from BatchStats (seed " << seed << ")";
    EXPECT_EQ(obs::counter_value(obs::kEngineSeeds) - seeds0_, seeds_)
        << "engine.seeds diverged from BatchStats (seed " << seed << ")";
    EXPECT_EQ(obs::counter_value(obs::kEngineRecomputed) - recomputed0_,
              recomputed_)
        << "engine.recomputed diverged from BatchStats (seed " << seed << ")";
  }

 private:
  uint64_t rounds0_, seeds0_, recomputed0_;
  uint64_t rounds_ = 0, seeds_ = 0, recomputed_ = 0;
};
#else
class ObsCounterOracle {
 public:
  void accumulate(const BatchStats&) {}
  void check(uint64_t) const {}
};
#endif

class DynamicDifferential : public ::testing::TestWithParam<uint64_t> {
 protected:
  uint64_t seed() const { return GetParam(); }

  /// Rotates through the three generator families of the acceptance
  /// criterion; sizes stay small so 1200 oracle recomputes finish fast.
  CsrGraph make_graph() const {
    switch (seed() % 3) {
      case 0:
        return CsrGraph::from_edges(
            random_graph_nm(400 + 40 * (seed() % 5),
                            1'600 + 100 * (seed() % 7), seed()));
      case 1:
        return CsrGraph::from_edges(
            rmat_graph(/*scale=*/9, /*m=*/1'500, seed()));
      default:
        return CsrGraph::from_edges(grid_graph(20 + seed() % 9, 21));
    }
  }

  /// Worker widths {1, 2, 4} from the acceptance criterion. Derived from
  /// seed() / 3 so width and generator family (seed() % 3) decorrelate:
  /// over 9 consecutive seeds every (generator, width) pair occurs.
  int workers() const { return 1 << (seed() / 3 % 3); }

  UpdateBatch make_batch(uint64_t n, std::span<const Edge> live,
                         uint64_t round) const {
    const uint64_t salt = hash64(seed(), 1'000 + round);
    // Mixed shapes: mostly small batches, occasionally a large one.
    const uint64_t scale = salt % 10 == 0 ? 100 : 1 + salt % 20;
    return UpdateBatch::random(n, live, /*inserts=*/scale,
                               /*deletes=*/scale / 2 + 1,
                               /*toggles=*/salt % 4, salt);
  }
};

TEST_P(DynamicDifferential, MisMatchesFromScratchAfterEveryBatch) {
  ScopedNumWorkers guard(workers());
  const CsrGraph g = make_graph();
  DynamicMis dm(EngineOptions::seeded(g, seed() + 101));
  // Half the instances compact aggressively so the fold-back path is
  // fuzzed too; the other half never compact.
  dm.set_compaction_threshold(seed() % 2 == 0 ? 0.02 : 0.0);
  ASSERT_EQ(dm.solution(), mis_sequential(g, dm.vertex_order_for(g)).in_set);

  ObsCounterOracle obs_oracle;
  for (uint64_t round = 0; round < kBatchesPerInstance; ++round) {
    obs_oracle.accumulate(dm.apply_batch(
        make_batch(g.num_vertices(), dm.graph().live_edge_list().edges(),
                   round)));
    const CsrGraph h = dm.active_subgraph();
    std::vector<uint8_t> expect =
        mis_sequential(h, dm.vertex_order_for(h)).in_set;
    for (VertexId v = 0; v < dm.num_vertices(); ++v)
      if (!dm.active(v)) expect[v] = 0;
    ASSERT_EQ(dm.solution(), expect)
        << "MIS diverged from oracle at batch " << round << " (seed "
        << seed() << ")";
  }
  obs_oracle.check(seed());
}

TEST_P(DynamicDifferential, MatchingMatchesFromScratchAfterEveryBatch) {
  ScopedNumWorkers guard(workers());
  const CsrGraph g = make_graph();
  DynamicMatching dm(EngineOptions::seeded(g, seed() + 202));
  dm.set_compaction_threshold(seed() % 2 == 0 ? 0.02 : 0.0);
  ASSERT_EQ(dm.solution(),
            mm_sequential(g, dm.edge_order_for(g)).matched_with);

  ObsCounterOracle obs_oracle;
  for (uint64_t round = 0; round < kBatchesPerInstance; ++round) {
    obs_oracle.accumulate(dm.apply_batch(
        make_batch(g.num_vertices(), dm.graph().live_edge_list().edges(),
                   round)));
    const CsrGraph h = dm.active_subgraph();
    const MatchResult ref = mm_sequential(h, dm.edge_order_for(h));
    ASSERT_EQ(dm.solution(), ref.matched_with)
        << "matching diverged from oracle at batch " << round << " (seed "
        << seed() << ")";
  }
  obs_oracle.check(seed());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicDifferential,
                         ::testing::Range<uint64_t>(0, 30));

}  // namespace
}  // namespace pargreedy
