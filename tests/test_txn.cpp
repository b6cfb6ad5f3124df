// Unit tests for the transactional layer (src/txn/): snapshot/rollback
// bit-exactness, commit equivalence, nested savepoints, the retained
// version window, the epoch staleness guard, a commit that throws while
// publishing or while compacting after it, and the overlay's undo
// records replayed on their own.
//
// The heavy randomized coverage lives in test_txn_differential.cpp; this
// suite pins down the API contract and the corner cases one at a time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "core/mis/mis.hpp"
#include "core/matching/matching.hpp"
#include "core/priority/priority_source.hpp"
#include "dynamic/dynamic_matching.hpp"
#include "dynamic/dynamic_mis.hpp"
#include "dynamic/undo_log.hpp"
#include "dynamic/update_batch.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "obs/obs.hpp"
#include "support/check.hpp"
#include "support/thread_annotations.hpp"
#include "txn/epoch.hpp"
#include "txn/published_state.hpp"
#include "txn/transaction.hpp"

namespace pargreedy {
namespace {

// --- full-state capture helpers -------------------------------------

/// Everything the abort-equivalence criterion compares for DynamicMis:
/// live graph (canonical CSR incl. weights), solution, activity, cached
/// priority keys (which pin the priority order), lifetime stats.
struct MisState {
  std::vector<Edge> edges;
  std::vector<Weight> edge_weights;
  std::vector<Weight> vertex_weights;
  std::vector<uint8_t> solution;
  std::vector<uint8_t> active;
  std::vector<PriorityKey> keys;
  BatchStats lifetime;
};

MisState capture(const DynamicMis& dm) {
  MisState s;
  const CsrGraph g = dm.graph().to_csr();
  s.edges.assign(g.edges().begin(), g.edges().end());
  s.edge_weights.assign(g.edge_weights().begin(), g.edge_weights().end());
  s.vertex_weights.assign(g.vertex_weights().begin(),
                          g.vertex_weights().end());
  s.solution = dm.solution();
  s.active.resize(dm.num_vertices());
  for (VertexId v = 0; v < dm.num_vertices(); ++v)
    s.active[v] = dm.active(v) ? 1 : 0;
  s.keys.resize(dm.num_vertices());
  for (VertexId v = 0; v < dm.num_vertices(); ++v)
    s.keys[v] = dm.cached_key(v);
  s.lifetime = dm.lifetime_stats();
  return s;
}

void expect_state_eq(const MisState& a, const MisState& b,
                     bool compare_lifetime = true) {
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.edge_weights, b.edge_weights);
  EXPECT_EQ(a.vertex_weights, b.vertex_weights);
  EXPECT_EQ(a.solution, b.solution);
  EXPECT_EQ(a.active, b.active);
  EXPECT_EQ(a.keys, b.keys);
  if (compare_lifetime) {
    EXPECT_EQ(a.lifetime, b.lifetime);
  }
}

/// Matching counterpart; cached keys are captured per live *edge* (not
/// slot) so states stay comparable across engines with different
/// compaction histories.
struct MmState {
  std::vector<Edge> edges;
  std::vector<Weight> edge_weights;
  std::vector<Weight> vertex_weights;
  std::vector<VertexId> solution;
  std::vector<uint8_t> active;
  std::vector<std::pair<Edge, PriorityKey>> keys;
  std::vector<Edge> matched;
  BatchStats lifetime;
};

MmState capture(const DynamicMatching& dm) {
  MmState s;
  const CsrGraph g = dm.graph().to_csr();
  s.edges.assign(g.edges().begin(), g.edges().end());
  s.edge_weights.assign(g.edge_weights().begin(), g.edge_weights().end());
  s.vertex_weights.assign(g.vertex_weights().begin(),
                          g.vertex_weights().end());
  s.solution = dm.solution();
  s.active.resize(dm.num_vertices());
  for (VertexId v = 0; v < dm.num_vertices(); ++v)
    s.active[v] = dm.active(v) ? 1 : 0;
  for (EdgeSlot slot = 0; slot < dm.graph().slot_bound(); ++slot)
    if (dm.graph().slot_live(slot))
      s.keys.emplace_back(dm.graph().slot_edge(slot),
                          dm.cached_key(slot));
  std::sort(s.keys.begin(), s.keys.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  s.matched = dm.matched_edges();
  s.lifetime = dm.lifetime_stats();
  return s;
}

void expect_state_eq(const MmState& a, const MmState& b,
                     bool compare_lifetime = true) {
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.edge_weights, b.edge_weights);
  EXPECT_EQ(a.vertex_weights, b.vertex_weights);
  EXPECT_EQ(a.solution, b.solution);
  EXPECT_EQ(a.active, b.active);
  EXPECT_EQ(a.keys, b.keys);
  EXPECT_EQ(a.matched, b.matched);
  if (compare_lifetime) {
    EXPECT_EQ(a.lifetime, b.lifetime);
  }
}

CsrGraph weighted_graph(uint64_t n, uint64_t m, uint64_t seed) {
  CsrGraph g = CsrGraph::from_edges(random_graph_nm(n, m, seed));
  g.set_vertex_weights(quantized_weights(n, seed + 1, 16));
  g.set_edge_weights(quantized_weights(g.num_edges(), seed + 2, 16));
  return g;
}

UpdateBatch mixed_batch(const OverlayGraph& graph, uint64_t scale,
                        uint64_t seed) {
  return UpdateBatch::random_weighted(
      graph.num_vertices(), graph.live_edge_list().edges(),
      /*inserts=*/scale, /*deletes=*/scale / 2 + 1, /*reweights=*/scale,
      /*toggles=*/seed % 3, /*levels=*/16, seed);
}

// --- MIS: abort / commit / savepoints -------------------------------

TEST(TxnMis, AbortRestoresStateBitExactly) {
  DynamicMis dm(EngineOptions::with_source(
      weighted_graph(300, 1200, 7), PrioritySource::weight_hash_tiebreak(11)));
  MisTransaction txn(dm);
  const MisState before = capture(dm);

  txn.begin();
  for (uint64_t i = 0; i < 3; ++i)
    txn.apply(mixed_batch(dm.graph(), 20, 100 + i));
  EXPECT_GT(txn.txn_stats().inserted + txn.txn_stats().deleted +
                txn.txn_stats().reweighted,
            0u);
  txn.abort();

  expect_state_eq(capture(dm), before);
  EXPECT_FALSE(txn.in_transaction());
  EXPECT_EQ(txn.version(), 0u);
}

TEST(TxnMis, CommitMatchesDirectApply) {
  const CsrGraph g = weighted_graph(300, 1200, 8);
  const PrioritySource src = PrioritySource::weight_hash_tiebreak(12);
  DynamicMis txn_engine(EngineOptions::with_source(g, src));
  DynamicMis direct(EngineOptions::with_source(g, src));
  MisTransaction txn(txn_engine);

  for (uint64_t round = 0; round < 5; ++round) {
    const UpdateBatch batch = mixed_batch(direct.graph(), 25, 200 + round);
    txn.begin();
    txn.apply(batch);
    const uint64_t v = txn.commit();
    EXPECT_EQ(v, round + 1);
    direct.apply_batch(batch);
    expect_state_eq(capture(txn_engine), capture(direct),
                    /*compare_lifetime=*/false);
  }
}

TEST(TxnMis, SavepointRollbackUndoesOnlyLaterBatches) {
  DynamicMis dm(EngineOptions::with_source(
      weighted_graph(250, 900, 9), PrioritySource::weight_hash_tiebreak(13)));
  MisTransaction txn(dm);

  txn.begin();
  txn.apply(mixed_batch(dm.graph(), 15, 300));
  const MisState after_b1 = capture(dm);
  const BatchStats stats_b1 = txn.txn_stats();
  const EngineSnapshot sp = txn.savepoint();

  txn.apply(mixed_batch(dm.graph(), 30, 301));
  txn.rollback_to(sp);
  expect_state_eq(capture(dm), after_b1);
  EXPECT_EQ(txn.txn_stats(), stats_b1);

  // The transaction is still live and committable after a rollback.
  txn.apply(mixed_batch(dm.graph(), 10, 302));
  txn.commit();
  EXPECT_EQ(txn.version(), 1u);
}

TEST(TxnMis, NestedSavepointsUnwindLifo) {
  DynamicMis dm(EngineOptions::with_source(
      weighted_graph(250, 900, 10), PrioritySource::weight_hash_tiebreak(14)));
  MisTransaction txn(dm);
  const MisState before = capture(dm);

  txn.begin();
  txn.apply(mixed_batch(dm.graph(), 10, 400));
  const MisState after_b1 = capture(dm);
  const EngineSnapshot sp1 = txn.savepoint();
  txn.apply(mixed_batch(dm.graph(), 10, 401));
  const MisState after_b2 = capture(dm);
  const EngineSnapshot sp2 = txn.savepoint();
  txn.apply(mixed_batch(dm.graph(), 10, 402));

  txn.rollback_to(sp2);
  expect_state_eq(capture(dm), after_b2);
  txn.rollback_to(sp1);
  expect_state_eq(capture(dm), after_b1);
  txn.abort();
  expect_state_eq(capture(dm), before);
}

TEST(TxnMis, InvalidatedSavepointIsRejected) {
  DynamicMis dm(EngineOptions::with_source(
      weighted_graph(200, 700, 18), PrioritySource::weight_hash_tiebreak(22)));
  MisTransaction txn(dm);

  txn.begin();
  const EngineSnapshot sp1 = txn.savepoint();
  txn.apply(mixed_batch(dm.graph(), 10, 420));
  const EngineSnapshot sp2 = txn.savepoint();
  txn.rollback_to(sp1);
  // sp2's watermark now falls inside journal space that later applies
  // will reuse — restoring it would be silent corruption, so it throws.
  txn.apply(mixed_batch(dm.graph(), 30, 421));
  EXPECT_THROW(txn.rollback_to(sp2), CheckFailure);
  // Rolling back to the same (still-valid) snapshot repeatedly is fine.
  txn.rollback_to(sp1);
  const MisState at_sp1 = capture(dm);
  txn.apply(mixed_batch(dm.graph(), 10, 422));
  txn.rollback_to(sp1);
  expect_state_eq(capture(dm), at_sp1);
  txn.abort();
}

TEST(TxnMis, OverlayOnlySavepointInvalidationIsRejected) {
  // Edge reweights under random_hash never touch vertex priorities or
  // decisions: they append *overlay* records only, and the invalidation
  // guard must still see them move the journal watermark.
  const CsrGraph g = weighted_graph(100, 300, 19);
  DynamicMis dm(EngineOptions::seeded(g, 23u));
  MisTransaction txn(dm);

  txn.begin();
  const EngineSnapshot sp1 = txn.savepoint();
  UpdateBatch b1;
  b1.reweight_edge(g.edge(0).u, g.edge(0).v, 42.0);
  txn.apply(b1);
  const EngineSnapshot sp2 = txn.savepoint();
  txn.rollback_to(sp1);
  UpdateBatch b2;
  b2.reweight_edge(g.edge(1).u, g.edge(1).v, 43.0)
      .reweight_edge(g.edge(2).u, g.edge(2).v, 44.0);
  txn.apply(b2);  // the journal regrows past sp2's watermark
  EXPECT_THROW(txn.rollback_to(sp2), CheckFailure);
  txn.abort();
  EXPECT_EQ(capture(dm).edge_weights,
            std::vector<Weight>(g.edge_weights().begin(),
                                g.edge_weights().end()));
}

TEST(TxnMis, RetainedWindowServesRecentCommits) {
  DynamicMis dm(EngineOptions::with_source(
      weighted_graph(200, 800, 11), PrioritySource::weight_hash_tiebreak(15)));
  MisTransaction txn(dm, /*retention=*/4);

  std::vector<std::vector<uint8_t>> history{dm.solution()};  // version 0
  for (uint64_t round = 0; round < 7; ++round) {
    txn.begin();
    txn.apply(mixed_batch(dm.graph(), 12, 500 + round));
    txn.commit();
    history.push_back(dm.solution());
  }
  EXPECT_EQ(txn.version(), 7u);
  EXPECT_EQ(txn.oldest_version(), 3u);
  for (uint64_t v = txn.oldest_version(); v <= txn.version(); ++v)
    EXPECT_EQ(txn.solution_at(v), history[v]) << "version " << v;
  EXPECT_THROW(txn.solution_at(2), CheckFailure);  // evicted
  EXPECT_EQ(txn.committed_solution(), history.back());
}

TEST(TxnMis, InflightReadsSeeLastCommittedState) {
  DynamicMis dm(EngineOptions::with_source(
      weighted_graph(200, 800, 12), PrioritySource::weight_hash_tiebreak(16)));
  MisTransaction txn(dm);

  txn.begin();
  txn.apply(mixed_batch(dm.graph(), 10, 600));
  txn.commit();
  const std::vector<uint8_t> committed = dm.solution();

  txn.begin();
  txn.apply(mixed_batch(dm.graph(), 40, 601));
  // The engine itself serves the speculative state; the versioned reads
  // still see the last committed one.
  EXPECT_EQ(txn.committed_solution(), committed);
  EXPECT_EQ(txn.solution_at(1), committed);
  txn.abort();
  EXPECT_EQ(dm.solution(), committed);
}

TEST(TxnMis, EpochGuardRejectsExternalMutation) {
  DynamicMis dm(EngineOptions::with_source(
      weighted_graph(150, 500, 13), PrioritySource::weight_hash_tiebreak(17)));
  MisTransaction txn(dm);
  txn.begin();
  txn.apply(mixed_batch(dm.graph(), 5, 700));
  txn.commit();
  const std::vector<uint8_t> last_published = dm.solution();

  dm.apply_batch(mixed_batch(dm.graph(), 5, 701));  // behind txn's back
  EXPECT_THROW(txn.begin(), CheckFailure);
  // Reads do NOT throw: they are served from the published window and
  // keep reporting the last *published* commit — stale-bounded by
  // design, immune to what the engine was put through behind the
  // wrapper's back (see the contract in txn/transaction.hpp).
  EXPECT_EQ(txn.committed_solution(), last_published);
  EXPECT_EQ(txn.solution_at(1), last_published);
  EXPECT_EQ(txn.version(), 1u);
}

TEST(TxnMis, SolutionAtRetentionBoundaries) {
  DynamicMis dm(EngineOptions::with_source(
      weighted_graph(200, 800, 21), PrioritySource::weight_hash_tiebreak(22)));
  MisTransaction txn(dm, /*retention=*/4);
  std::vector<std::vector<uint8_t>> history{dm.solution()};  // version 0
  for (uint64_t round = 0; round < 7; ++round) {
    txn.begin();
    txn.apply(mixed_batch(dm.graph(), 12, 540 + round));
    txn.commit();
    history.push_back(dm.solution());
  }
  ASSERT_EQ(txn.version(), 7u);
  ASSERT_EQ(txn.oldest_version(), 3u);
  // The eviction boundary, one version at a time: the oldest retained
  // version reads fine, one past it in either direction throws.
  EXPECT_NO_THROW((void)txn.solution_at(txn.oldest_version()));
  EXPECT_THROW((void)txn.solution_at(txn.oldest_version() - 1),
               CheckFailure);
  EXPECT_NO_THROW((void)txn.solution_at(txn.version()));
  EXPECT_THROW((void)txn.solution_at(txn.version() + 1), CheckFailure);
  // And the oldest boundary is exact, not just non-throwing: it equals
  // the solution the engine held right after that commit.
  EXPECT_EQ(txn.solution_at(txn.oldest_version()),
            history[txn.oldest_version()]);
}

TEST(TxnMis, PublishedWindowMatchesRingBitExactly) {
  DynamicMis dm(EngineOptions::with_source(
      weighted_graph(200, 800, 23), PrioritySource::weight_hash_tiebreak(24)));
  MisTransaction txn(dm, /*retention=*/3);
  std::vector<std::vector<uint8_t>> history{dm.solution()};  // version 0
  for (uint64_t round = 0; round < 6; ++round) {
    txn.begin();
    txn.apply(mixed_batch(dm.graph(), 10, 560 + round));
    txn.commit();
    history.push_back(dm.solution());
  }
  const auto& state = txn.published_state();
  ReadGuard guard(state.epochs_);
  const auto& window = state.window(guard);
  ASSERT_EQ(window.versions.size(), 4u);  // retention + 1
  uint64_t expect_id = 3;                 // versions 3..6
  for (const auto& ver : window.versions) {
    EXPECT_EQ(ver->version, expect_id++);
    EXPECT_TRUE(ver->verify_checksum()) << "version " << ver->version;
    EXPECT_EQ(ver->solution, history[ver->version])
        << "version " << ver->version;
  }
}

TEST(TxnMis, ApiMisuseThrows) {
  DynamicMis dm(EngineOptions::seeded(
      CsrGraph::from_edges(random_graph_nm(100, 300, 14)), 18u));
  MisTransaction txn(dm);

  EXPECT_THROW(txn.apply(UpdateBatch{}), CheckFailure);
  EXPECT_THROW(txn.commit(), CheckFailure);
  EXPECT_THROW(txn.abort(), CheckFailure);
  EXPECT_THROW((void)txn.savepoint(), CheckFailure);
  EXPECT_THROW((void)txn.txn_stats(), CheckFailure);

  txn.begin();
  EXPECT_THROW(txn.begin(), CheckFailure);
  const EngineSnapshot sp = txn.savepoint();
  EXPECT_THROW(dm.compact(), CheckFailure);  // no inverse under a journal
  txn.commit();
  EXPECT_THROW(txn.rollback_to(sp), CheckFailure);  // stale transaction

  txn.begin();
  EXPECT_THROW(txn.rollback_to(sp), CheckFailure);  // older txn_id
  txn.abort();
}

TEST(TxnMis, AbortRestoresLifetimeStats) {
  DynamicMis dm(EngineOptions::seeded(
      CsrGraph::from_edges(random_graph_nm(150, 600, 15)), 19u));
  dm.apply_batch(mixed_batch(dm.graph(), 10, 800));
  const BatchStats before = dm.lifetime_stats();

  MisTransaction txn(dm);
  txn.begin();
  txn.apply(mixed_batch(dm.graph(), 10, 801));
  EXPECT_NE(dm.lifetime_stats(), before);
  txn.abort();
  EXPECT_EQ(dm.lifetime_stats(), before);
}

TEST(TxnMis, DestructorAbortsOpenTransaction) {
  DynamicMis dm(EngineOptions::seeded(
      CsrGraph::from_edges(random_graph_nm(150, 600, 16)), 20u));
  const MisState before = capture(dm);
  {
    MisTransaction txn(dm);
    txn.begin();
    txn.apply(mixed_batch(dm.graph(), 15, 900));
  }  // destroyed while open: must abort, not leak the journal attachment
  expect_state_eq(capture(dm), before);
  // The engine is detached again: a fresh transaction can attach.
  MisTransaction txn2(dm);
  txn2.begin();
  txn2.apply(mixed_batch(dm.graph(), 5, 901));
  txn2.commit();
}

TEST(TxnMis, CommitRunsDeferredCompaction) {
  DynamicMis dm(EngineOptions::seeded(
      CsrGraph::from_edges(random_graph_nm(100, 400, 17)), 21u));
  dm.set_compaction_threshold(0.01);
  MisTransaction txn(dm);

  txn.begin();
  for (uint64_t i = 0; i < 4; ++i) {
    const BatchStats stats = txn.apply(mixed_batch(dm.graph(), 30, 950 + i));
    EXPECT_FALSE(stats.compacted) << "compaction must be deferred in-txn";
  }
  EXPECT_GT(dm.graph().overlay_fraction(), 0.01);
  txn.commit();
  EXPECT_DOUBLE_EQ(dm.graph().overlay_fraction(), 0.0);  // folded at commit
}

// --- commit fault injection -----------------------------------------

/// MisTxnTraits whose change-gathering hook throws while `fail` is set,
/// standing in for any allocation failure on the publication path,
/// which runs before commit() drops the journal.
struct FailingCommitMisTraits : MisTxnTraits {
  static inline bool fail = false;

  static std::vector<EntryChange<Value>> changed_entries(
      const Engine& engine, const UndoJournal& journal) {
    if (fail) throw std::bad_alloc();
    return MisTxnTraits::changed_entries(engine, journal);
  }
};

TEST(TxnMis, ThrowingCommitLeavesTransactionOpenAndWindowUnchanged) {
  DynamicMis dm(EngineOptions::with_source(
      weighted_graph(250, 1000, 25), PrioritySource::weight_hash_tiebreak(26)));
  Transaction<FailingCommitMisTraits> txn(dm, /*retention=*/2);
  for (uint64_t round = 0; round < 3; ++round) {  // a full window
    txn.begin();
    txn.apply(mixed_batch(dm.graph(), 12, 1500 + round));
    txn.commit();
  }
  const std::vector<uint8_t> before = dm.solution();
  ASSERT_EQ(txn.committed_solution(), before);
  const uint64_t version = txn.version();
  const uint64_t oldest = txn.oldest_version();

  txn.begin();
  txn.apply(mixed_batch(dm.graph(), 30, 1510));
  ASSERT_NE(dm.solution(), before) << "the batch must change the solution";
  FailingCommitMisTraits::fail = true;
  EXPECT_THROW(txn.commit(), std::bad_alloc);
  FailingCommitMisTraits::fail = false;

  EXPECT_TRUE(txn.in_transaction());
  EXPECT_EQ(txn.version(), version);
  EXPECT_EQ(txn.oldest_version(), oldest);
  EXPECT_EQ(txn.read().to_vector(), before);
  EXPECT_TRUE(txn.read().verify_checksum());
  txn.abort();
  EXPECT_EQ(dm.solution(), before);

  // The history is still whole: the next commit patches the unchanged
  // newest version into exactly the engine's solution.
  txn.begin();
  txn.apply(mixed_batch(dm.graph(), 30, 1511));
  EXPECT_EQ(txn.commit(), version + 1);
  EXPECT_EQ(txn.committed_solution(), dm.solution());
  EXPECT_TRUE(txn.read().verify_checksum());
  EXPECT_EQ(txn.solution_at(version), before);
}

/// A DynamicMis whose deferred compaction throws while `fail` is set,
/// standing in for an allocation failure inside the compaction that
/// commit() runs after it has published and closed the transaction.
struct ThrowingCompactionMis : DynamicMis {
  using DynamicMis::DynamicMis;
  static inline bool fail = false;

  bool compact_if_needed() PARGREEDY_REQUIRES(writer_role_) {
    if (fail) throw std::bad_alloc();
    return DynamicMis::compact_if_needed();
  }
};

struct FailingCompactionMisTraits : MisTxnTraits {
  using Engine = ThrowingCompactionMis;
};

TEST(TxnMis, ThrowingCompactionAfterPublishLeavesTransactionUsable) {
  ThrowingCompactionMis dm(EngineOptions::with_source(
      weighted_graph(250, 1000, 29), PrioritySource::weight_hash_tiebreak(30)));
  Transaction<FailingCompactionMisTraits> txn(dm);
  const uint64_t version = txn.version();

  txn.begin();
  txn.apply(mixed_batch(dm.graph(), 30, 1530));
  const std::vector<uint8_t> committed = dm.solution();
  ThrowingCompactionMis::fail = true;
  EXPECT_THROW(txn.commit(), std::bad_alloc);
  ThrowingCompactionMis::fail = false;

  // The version was published before the compaction ran.
  EXPECT_FALSE(txn.in_transaction());
  EXPECT_EQ(txn.version(), version + 1);
  EXPECT_EQ(txn.committed_solution(), committed);
  EXPECT_TRUE(txn.read().verify_checksum());

  // The epoch stamp matches the committed engine, so the next
  // transaction opens and publishes exactly the engine's solution.
  txn.begin();
  txn.apply(mixed_batch(dm.graph(), 30, 1531));
  EXPECT_EQ(txn.commit(), version + 2);
  EXPECT_EQ(txn.committed_solution(), dm.solution());
  EXPECT_TRUE(txn.read().verify_checksum());
  EXPECT_EQ(txn.solution_at(version + 1), committed);
}

#if PARGREEDY_OBS
/// MisTxnTraits that keeps the last change list it produced.
struct RecordingMisTraits : MisTxnTraits {
  static inline std::vector<EntryChange<Value>> last;

  static std::vector<EntryChange<Value>> changed_entries(
      const Engine& engine, const UndoJournal& journal) {
    last = MisTxnTraits::changed_entries(engine, journal);
    return last;
  }
};

TEST(TxnMis, CommitRecordsChangedEntriesOnce) {
  obs::set_enabled(true);
  DynamicMis dm(EngineOptions::with_source(
      weighted_graph(250, 1000, 27), PrioritySource::weight_hash_tiebreak(28)));
  Transaction<RecordingMisTraits> txn(dm);
  const std::vector<uint8_t> before = dm.solution();
  const obs::Histogram& hist =
      obs::MetricsRegistry::global().histogram(obs::kPublishedChangedEntries);
  const uint64_t count_before = hist.count();
  const uint64_t sum_before = hist.sum();

  txn.begin();
  txn.apply(mixed_batch(dm.graph(), 30, 1520));
  txn.apply(mixed_batch(dm.graph(), 30, 1521));
  txn.commit();

  const auto& changes = RecordingMisTraits::last;
  EXPECT_EQ(hist.count(), count_before + 1);
  EXPECT_EQ(hist.sum(), sum_before + changes.size());
  // Distinct entries, and a superset of the entries that changed value.
  for (std::size_t i = 1; i < changes.size(); ++i)
    EXPECT_LT(changes[i - 1].first, changes[i].first);
  const std::vector<uint8_t> after = dm.solution();
  std::size_t differing = 0;
  for (std::size_t v = 0; v < after.size(); ++v) {
    if (after[v] == before[v]) continue;
    ++differing;
    EXPECT_TRUE(std::binary_search(
        changes.begin(), changes.end(), EntryChange<uint8_t>{v, after[v]}))
        << "vertex " << v << " changed but was not published";
  }
  EXPECT_GT(differing, 0u);
}
#endif

// --- matching: the same contract one level up -----------------------

TEST(TxnMatching, AbortRestoresStateBitExactly) {
  DynamicMatching dm(EngineOptions::with_source(
      weighted_graph(300, 1200, 20), PrioritySource::weight_hash_tiebreak(30)));
  MatchingTransaction txn(dm);
  const MmState before = capture(dm);
  const EdgeSlot bound_before = dm.graph().slot_bound();

  txn.begin();
  for (uint64_t i = 0; i < 3; ++i)
    txn.apply(mixed_batch(dm.graph(), 20, 1000 + i));
  txn.abort();

  expect_state_eq(capture(dm), before);
  // Slots appended by the speculative inserts are popped again.
  EXPECT_EQ(dm.graph().slot_bound(), bound_before);
}

TEST(TxnMatching, CommitMatchesDirectApply) {
  const CsrGraph g = weighted_graph(300, 1200, 21);
  const PrioritySource src = PrioritySource::weight_hash_tiebreak(31);
  DynamicMatching txn_engine(EngineOptions::with_source(g, src));
  DynamicMatching direct(EngineOptions::with_source(g, src));
  MatchingTransaction txn(txn_engine);

  for (uint64_t round = 0; round < 5; ++round) {
    const UpdateBatch batch = mixed_batch(direct.graph(), 25, 1100 + round);
    txn.begin();
    txn.apply(batch);
    txn.commit();
    direct.apply_batch(batch);
    expect_state_eq(capture(txn_engine), capture(direct),
                    /*compare_lifetime=*/false);
  }
}

TEST(TxnMatching, NestedSavepointsUnwindLifo) {
  DynamicMatching dm(EngineOptions::with_source(
      weighted_graph(250, 900, 22), PrioritySource::weight_hash_tiebreak(32)));
  MatchingTransaction txn(dm);
  const MmState before = capture(dm);

  txn.begin();
  txn.apply(mixed_batch(dm.graph(), 10, 1200));
  const MmState after_b1 = capture(dm);
  const EngineSnapshot sp1 = txn.savepoint();
  txn.apply(mixed_batch(dm.graph(), 10, 1201));
  const MmState after_b2 = capture(dm);
  const EngineSnapshot sp2 = txn.savepoint();
  txn.apply(mixed_batch(dm.graph(), 10, 1202));

  txn.rollback_to(sp2);
  expect_state_eq(capture(dm), after_b2);
  txn.rollback_to(sp1);
  expect_state_eq(capture(dm), after_b1);
  txn.abort();
  expect_state_eq(capture(dm), before);
}

TEST(TxnMatching, RetainedVersionsAndInflightReads) {
  DynamicMatching dm(EngineOptions::with_source(
      weighted_graph(200, 800, 23), PrioritySource::weight_hash_tiebreak(33)));
  MatchingTransaction txn(dm, /*retention=*/4);

  std::vector<std::vector<VertexId>> history{dm.solution()};
  for (uint64_t round = 0; round < 6; ++round) {
    txn.begin();
    txn.apply(mixed_batch(dm.graph(), 12, 1300 + round));
    txn.commit();
    history.push_back(dm.solution());
  }
  for (uint64_t v = txn.oldest_version(); v <= txn.version(); ++v)
    EXPECT_EQ(txn.solution_at(v), history[v]) << "version " << v;
  EXPECT_THROW(txn.solution_at(txn.oldest_version() - 1), CheckFailure);

  txn.begin();
  txn.apply(mixed_batch(dm.graph(), 40, 1399));
  EXPECT_EQ(txn.committed_solution(), history.back());
  EXPECT_EQ(txn.solution_at(txn.version()), history.back());
  txn.abort();
}

TEST(TxnMatching, OracleExactnessAfterCommitAndAbort) {
  DynamicMatching dm(EngineOptions::with_source(
      weighted_graph(200, 700, 24), PrioritySource::weight_hash_tiebreak(34)));
  MatchingTransaction txn(dm);

  txn.begin();
  txn.apply(mixed_batch(dm.graph(), 20, 1400));
  txn.abort();
  {
    const CsrGraph h = dm.active_subgraph();
    EXPECT_EQ(dm.solution(),
              mm_sequential(h, dm.edge_order_for(h)).matched_with);
  }
  txn.begin();
  txn.apply(mixed_batch(dm.graph(), 20, 1401));
  txn.commit();
  {
    const CsrGraph h = dm.active_subgraph();
    EXPECT_EQ(dm.solution(),
              mm_sequential(h, dm.edge_order_for(h)).matched_with);
  }
}

// --- the txn_* seams themselves, on both engines ---------------------

/// Transaction only ever calls the seams in order; these cases call them
/// directly, once per engine.
template <typename Engine>
class TxnSeams : public ::testing::Test {
 protected:
  Engine engine{EngineOptions::with_source(
      weighted_graph(250, 1000, 41), PrioritySource::weight_hash_tiebreak(43))};
};
using SeamEngines = ::testing::Types<DynamicMis, DynamicMatching>;
TYPED_TEST_SUITE(TxnSeams, SeamEngines);

TYPED_TEST(TxnSeams, MisuseThrows) {
  TypeParam& dm = this->engine;
  support::RoleScope writer(dm.writer_role_);
  UndoJournal journal;
  EXPECT_THROW(dm.txn_detach(), CheckFailure);
  EXPECT_THROW((void)dm.txn_mark(), CheckFailure);
  EXPECT_THROW(dm.txn_rollback(TxnMark{}), CheckFailure);
  EXPECT_THROW(dm.txn_attach(nullptr), CheckFailure);

  dm.txn_attach(&journal);
  EXPECT_THROW(dm.txn_attach(&journal), CheckFailure);
  dm.apply_batch(mixed_batch(dm.graph(), 10, 1600));
  TxnMark past = dm.txn_mark();
  ++past.records;
  EXPECT_THROW(dm.txn_rollback(past), CheckFailure);
  dm.txn_detach();
  EXPECT_THROW(dm.txn_detach(), CheckFailure);
}

TYPED_TEST(TxnSeams, RollbackRestoresSolutionEpochAndLifetimeStats) {
  TypeParam& dm = this->engine;
  support::RoleScope writer(dm.writer_role_);
  dm.apply_batch(mixed_batch(dm.graph(), 10, 1610));
  const auto solution = dm.solution();
  const uint64_t epoch = dm.epoch();
  const BatchStats lifetime = dm.lifetime_stats();

  UndoJournal journal;
  dm.txn_attach(&journal);
  const TxnMark mark = dm.txn_mark();
  for (uint64_t i = 0; i < 3; ++i)
    dm.apply_batch(mixed_batch(dm.graph(), 20, 1611 + i));
  EXPECT_NE(dm.solution(), solution);
  EXPECT_NE(dm.epoch(), epoch);
  dm.txn_rollback(mark);
  dm.txn_detach();

  EXPECT_EQ(dm.solution(), solution);
  EXPECT_EQ(dm.epoch(), epoch);
  EXPECT_EQ(dm.lifetime_stats(), lifetime);
  EXPECT_EQ(journal.size(), mark.records);
}

TEST(TxnSeamsMatching, OverlayAndEngineRecordsShareOneStreamInOrder) {
  // An insert of a new edge appends its overlay slot, then the engine
  // grows its slot arrays and keys the slot: one stream, mutation order,
  // so the rollback undoes the key and the growth before popping the slot.
  DynamicMatching dm(EngineOptions::with_source(
      weighted_graph(100, 300, 44), PrioritySource::weight_hash_tiebreak(45)));
  support::RoleScope writer(dm.writer_role_);
  VertexId u = 0, v = 1;
  while (dm.graph().has_edge(u, v)) ++v;
  const EdgeSlot bound_before = dm.graph().slot_bound();
  const auto solution = dm.solution();

  UndoJournal journal;
  dm.txn_attach(&journal);
  const TxnMark mark = dm.txn_mark();
  UpdateBatch batch;
  batch.insert_edge(u, v, 2.0);
  dm.apply_batch(batch);
  ASSERT_GE(journal.size(), 3u);
  EXPECT_EQ(journal[0].kind, UndoRecord::Kind::kAppendExtra);
  EXPECT_EQ(journal[1].kind, UndoRecord::Kind::kGrowth);
  EXPECT_EQ(journal[1].index, bound_before);
  EXPECT_EQ(journal[2].kind, UndoRecord::Kind::kKey);
  EXPECT_EQ(journal[2].index, bound_before);

  dm.txn_rollback(mark);
  dm.txn_detach();
  EXPECT_EQ(journal.size(), 0u);
  EXPECT_EQ(dm.graph().slot_bound(), bound_before);
  EXPECT_FALSE(dm.graph().has_edge(u, v));
  EXPECT_EQ(dm.solution(), solution);
}

// --- the overlay's undo records on their own --------------------------

/// Replays `journal` newest-first into `overlay` and empties it — the
/// overlay half of GreedyEngine::txn_rollback's loop.
void undo_all(OverlayGraph& overlay, UndoJournal& journal) {
  for (std::size_t i = journal.size(); i-- > 0;) overlay.undo(journal[i]);
  journal.truncate(0);
}

TEST(OverlayJournal, UndoRestoresStructureAndWeights) {
  CsrGraph g = CsrGraph::from_edges(random_graph_nm(60, 150, 40));
  g.set_edge_weights(quantized_weights(g.num_edges(), 41, 8));
  OverlayGraph overlay{g};
  overlay.insert_edge(0, 1);  // pre-journal mutation (maybe a no-op)
  const CsrGraph before = overlay.to_csr();
  const uint64_t live_before = overlay.num_live_edges();

  UndoJournal journal;
  overlay.set_journal(&journal);
  const Edge victim = before.edge(3);
  overlay.erase_edge(victim.u, victim.v);
  overlay.insert_edge(55, 57, 3.0);
  overlay.insert_edge(victim.u, victim.v, 5.0);  // revive with new weight
  overlay.set_edge_weight(before.edge(0).u, before.edge(0).v, 7.0);
  overlay.set_vertex_weight(9, 2.5);  // upgrades to vertex-weighted
  EXPECT_TRUE(overlay.has_vertex_weights());
  EXPECT_THROW(overlay.compact(), CheckFailure);

  undo_all(overlay, journal);
  overlay.set_journal(nullptr);
  EXPECT_EQ(overlay.num_live_edges(), live_before);
  EXPECT_FALSE(overlay.has_vertex_weights());
  const CsrGraph after = overlay.to_csr();
  EXPECT_EQ(std::vector<Edge>(after.edges().begin(), after.edges().end()),
            std::vector<Edge>(before.edges().begin(), before.edges().end()));
  EXPECT_EQ(std::vector<Weight>(after.edge_weights().begin(),
                                after.edge_weights().end()),
            std::vector<Weight>(before.edge_weights().begin(),
                                before.edge_weights().end()));
}

TEST(OverlayJournal, UnweightedUpgradeIsUndone) {
  OverlayGraph overlay{CsrGraph::from_edges(random_graph_nm(30, 60, 42))};
  EXPECT_FALSE(overlay.has_edge_weights());
  UndoJournal journal;
  overlay.set_journal(&journal);
  overlay.insert_edge(1, 2, 4.0);  // weighted insert upgrades the overlay
  EXPECT_TRUE(overlay.has_edge_weights());
  undo_all(overlay, journal);
  EXPECT_FALSE(overlay.has_edge_weights());
  EXPECT_FALSE(overlay.has_edge(1, 2));
  overlay.set_journal(nullptr);
}

}  // namespace
}  // namespace pargreedy
