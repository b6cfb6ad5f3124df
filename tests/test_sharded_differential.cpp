// Differential fuzzing of the sharded engines (the PR's acceptance
// bar): across three small generator families, shard counts
// {1, 2, 4, 8}, both partitioner strategies, both engines, and both
// priority regimes (random_hash and weight_hash_tiebreak), every round
// drives the SAME user batch through a single-engine Transaction and a
// ShardedEngine and checks
//
//   what-if equivalence   sharded.what_if(B) returns the solution a
//                         speculative single-engine apply produces, and
//                         leaves the sharded committed state, version
//                         clock, and live solution untouched, and
//   commit equivalence    sharded.apply_batch(B) lands on the
//                         single-engine committed solution bit-exactly
//                         (composed reads, live reads, and the
//                         checksummed ShardedReadView all agree), and
//   history equivalence   every version the single engine's Transaction
//                         still retains is reproduced bit-exactly by
//                         the sharded composed read at that version,
//                         with the lockstep clock unified throughout.
//
// Graphs stay small (n <= 90) because the matrix is wide: 30 seeds x 4
// shard counts x 2 policies x 2 engines, each with mixed aborted and
// committed batches. PARGREEDY_STRESS_ITERS scales rounds per instance
// (the concurrent-stress CI lane raises it).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "core/priority/priority_source.hpp"
#include "dynamic/dynamic_matching.hpp"
#include "dynamic/dynamic_mis.hpp"
#include "dynamic/update_batch.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "parallel/arch.hpp"
#include "random/hash.hpp"
#include "shard/partitioner.hpp"
#include "shard/sharded_engine.hpp"
#include "support/env.hpp"
#include "txn/transaction.hpp"

namespace pargreedy {
namespace {

constexpr uint64_t kWeightLevels = 6;  // coarse: force equal-weight ties

uint64_t rounds_per_instance() {
  return std::max<uint64_t>(
      4, static_cast<uint64_t>(env_int64("PARGREEDY_STRESS_ITERS", 40)) / 5);
}

class ShardedDifferential : public ::testing::TestWithParam<uint64_t> {
 public:
  uint64_t seed() const { return GetParam(); }

  /// Small rotating families — the matrix is wide, the graphs are not.
  CsrGraph make_graph() const {
    CsrGraph g;
    switch (seed() % 3) {
      case 0:
        g = CsrGraph::from_edges(random_graph_nm(
            40 + 10 * (seed() % 5), 150 + 30 * (seed() % 4), seed()));
        break;
      case 1:
        g = CsrGraph::from_edges(rmat_graph(/*scale=*/6, /*m=*/200, seed()));
        break;
      default:
        g = CsrGraph::from_edges(grid_graph(8 + seed() % 3, 9));
        break;
    }
    g.set_vertex_weights(
        quantized_weights(g.num_vertices(), seed() + 50, kWeightLevels));
    g.set_edge_weights(
        quantized_weights(g.num_edges(), seed() + 51, kWeightLevels));
    return g;
  }

  /// Worker widths {1, 2, 4}, decorrelated from the generator family.
  int workers() const { return 1 << (seed() / 3 % 3); }

  UpdateBatch make_batch(uint64_t n, std::span<const Edge> live,
                         uint64_t round, uint64_t salt2) const {
    const uint64_t salt = hash64(seed(), 20'000 + 101 * round + salt2);
    const uint64_t scale = 1 + salt % 10;
    return UpdateBatch::random_weighted(
        n, live, /*inserts=*/scale, /*deletes=*/scale / 2 + 1,
        /*reweights=*/scale / 3 + 1, /*toggles=*/salt % 4, kWeightLevels,
        salt);
  }
};

/// One (graph, source, shards) instance: a single-engine Transaction and
/// a ShardedEngine fed identical batches, state-compared every round.
template <typename Traits>
void run_instance(const ShardedDifferential& fix, const CsrGraph& g,
                  PrioritySource src, uint32_t shards) {
  using Engine = typename Traits::Engine;
  const uint64_t n = g.num_vertices();

  Engine single(EngineOptions::with_source(g, src));
  Transaction<Traits> txn(single);

  // Partitioner strategy decorrelated from everything else.
  std::unique_ptr<Partitioner> part;
  if ((fix.seed() + shards) % 2 == 0)
    part = std::make_unique<RangePartitioner>(n, shards);
  else
    part = std::make_unique<HashPartitioner>(shards, fix.seed() + 7);
  ShardedEngine<Traits> sharded(g, *part, src);

  // version -> committed single-engine solution, as deep as the
  // published window retains (kDefaultVersionRetention on both sides).
  std::deque<std::vector<typename Traits::Value>> history{
      txn.solution_at(0)};

  ASSERT_EQ(txn.committed_solution(), sharded.committed_solution())
      << "construction diverged (seed " << fix.seed() << ", shards "
      << shards << ")";

  const uint64_t rounds = rounds_per_instance();
  for (uint64_t round = 0; round < rounds; ++round) {
    const auto live = single.graph().live_edge_list();

    // Speculative phase: what_if on the sharded engine vs a speculative
    // apply+abort on the single engine — same solution, no residue.
    {
      const UpdateBatch spec =
          fix.make_batch(n, live.edges(), round, /*salt2=*/1);
      std::vector<typename Traits::Value> expect;
      {
        support::RoleScope writer(txn.writer_role_);
        txn.begin();
        txn.apply(spec);
        expect = single.solution();
        txn.abort();
      }
      typename ShardedEngine<Traits>::WhatIfResult what;
      {
        support::RoleScope writer(sharded.writer_role_);
        what = sharded.what_if(spec);
      }
      ASSERT_EQ(what.solution, expect)
          << "what_if diverged at round " << round << " (seed "
          << fix.seed() << ", shards " << shards << ")";
      ASSERT_EQ(sharded.committed_solution(), history.back())
          << "what_if left committed residue at round " << round
          << " (seed " << fix.seed() << ", shards " << shards << ")";
      ASSERT_EQ(sharded.version().value(), txn.version());
    }

    // Committed phase: identical batch through both engines.
    const UpdateBatch batch =
        fix.make_batch(n, live.edges(), round, /*salt2=*/2);
    {
      support::RoleScope writer(txn.writer_role_);
      txn.begin();
      txn.apply(batch);
      txn.commit();
    }
    ASSERT_EQ(txn.committed_solution(), single.solution())
        << "single-engine publish diverged at round " << round << " (seed "
        << fix.seed() << ", shards " << shards << ")";
    {
      support::RoleScope writer(sharded.writer_role_);
      sharded.apply_batch(batch);
    }
    ASSERT_TRUE(sharded.version().unified());
    ASSERT_EQ(sharded.version().value(), txn.version());
    ASSERT_EQ(sharded.committed_solution(), txn.committed_solution())
        << "commit diverged at round " << round << " (seed " << fix.seed()
        << ", shards " << shards << ")";
    ASSERT_EQ(sharded.solution(), single.solution())
        << "live solution diverged at round " << round << " (seed "
        << fix.seed() << ", shards " << shards << ")";

    history.push_back(txn.committed_solution());
    if (history.size() > 4) history.pop_front();

    // History equivalence across the retained window, through the
    // composed checksummed view.
    for (std::size_t back = 0; back < history.size(); ++back) {
      const uint64_t v = txn.version() - (history.size() - 1 - back);
      const ShardedReadView<typename Traits::Value> view = sharded.read(v);
      ASSERT_TRUE(view.verify_checksums());
      ASSERT_EQ(view.version(), v);
      ASSERT_EQ(view.to_vector(), txn.solution_at(v))
          << "versioned read diverged at round " << round << ", version "
          << v << " (seed " << fix.seed() << ", shards " << shards << ")";
      ASSERT_EQ(view.to_vector(), history[back]);
    }
  }
}

template <typename Traits>
void run_matrix(const ShardedDifferential& fix) {
  ScopedNumWorkers guard(fix.workers());
  const CsrGraph g = fix.make_graph();
  for (const uint32_t shards : {1u, 2u, 4u, 8u}) {
    run_instance<Traits>(fix, g, PrioritySource::random_hash(fix.seed() + 60),
                         shards);
    run_instance<Traits>(
        fix, g, PrioritySource::weight_hash_tiebreak(fix.seed() + 61),
        shards);
  }
}

TEST_P(ShardedDifferential, MisMatchesSingleEngineAcrossShardCounts) {
  run_matrix<MisTxnTraits>(*this);
}

TEST_P(ShardedDifferential, MatchingMatchesSingleEngineAcrossShardCounts) {
  run_matrix<MatchingTxnTraits>(*this);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedDifferential,
                         ::testing::Range<uint64_t>(0, 30));

}  // namespace
}  // namespace pargreedy
