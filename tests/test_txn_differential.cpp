// Differential fuzzing of the transactional layer (the PR's acceptance
// bar): across random / rMat / structured generators, worker counts
// {1, 2, 4}, and both priority regimes (random_hash and
// weight_hash_tiebreak), every round checks
//
//   abort-equivalence   apply(B...); abort()  is state-identical —
//                       to_csr(), solution, activity, every cached
//                       priority key, lifetime stats — to never having
//                       applied the batches (some rounds also wind
//                       through nested savepoints first), and
//   commit-equivalence  apply(B); commit()  is state-identical to a twin
//                       engine's direct apply_batch(B), and
//   publish oracle      right after each commit() the published version
//                       equals the engine's own solution() and its
//                       checksum verifies (commits publish patches, so
//                       a missed entry would show here first), and
//   versioned reads     solution_at(v) reproduces the solutions the test
//                       recorded at the last few commits, even while a
//                       speculative transaction is in flight, and
//   concurrent reads    a background reader thread hammers the lock-free
//                       published window for the whole run, validating
//                       checksums (no torn reads) and monotone version
//                       ids (aborted speculation never visible).
//
// 30 seeds x 20 rounds x 2 engine kinds = 1200 aborted + 1200 committed
// transactions per run, each state-compared bit-exactly; every fifth
// commit is additionally audited against the from-scratch sequential
// oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <span>
#include <thread>
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
#include "parallel/arch.hpp"
#include "random/hash.hpp"
#include "txn/epoch.hpp"
#include "txn/published_state.hpp"
#include "txn/transaction.hpp"

namespace pargreedy {
namespace {

constexpr uint64_t kRoundsPerInstance = 20;
constexpr uint64_t kWeightLevels = 8;  // coarse: force equal-weight ties

class TxnDifferential : public ::testing::TestWithParam<uint64_t> {
 public:  // run_rounds (a free function) drives the fixture
  uint64_t seed() const { return GetParam(); }

  /// Rotates generator families; sizes stay small so 2400 state compares
  /// and the oracle audits finish fast.
  CsrGraph make_graph() const {
    CsrGraph g;
    switch (seed() % 3) {
      case 0:
        g = CsrGraph::from_edges(random_graph_nm(
            300 + 30 * (seed() % 5), 1'200 + 90 * (seed() % 7), seed()));
        break;
      case 1:
        g = CsrGraph::from_edges(rmat_graph(/*scale=*/8, /*m=*/1'100,
                                            seed()));
        break;
      default:
        g = CsrGraph::from_edges(grid_graph(18 + seed() % 7, 19));
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

  /// Half the instances run the paper's random-hash priorities (where
  /// reweights must be provable no-ops), half the recommended weighted
  /// policy (where reweights genuinely move priorities).
  PrioritySource source() const {
    return seed() % 2 == 0 ? PrioritySource::random_hash(seed() + 60)
                           : PrioritySource::weight_hash_tiebreak(seed() + 61);
  }

  UpdateBatch make_batch(uint64_t n, std::span<const Edge> live,
                         uint64_t round, uint64_t salt2) const {
    const uint64_t salt = hash64(seed(), 10'000 + 97 * round + salt2);
    const uint64_t scale = salt % 12 == 0 ? 80 : 1 + salt % 16;
    return UpdateBatch::random_weighted(
        n, live, /*inserts=*/scale, /*deletes=*/scale / 2 + 1,
        /*reweights=*/scale / 2 + 1, /*toggles=*/salt % 4, kWeightLevels,
        salt);
  }
};

// Full-state fingerprints: everything the acceptance criterion names —
// the live graph as a canonical CSR (structure + both weight arrays),
// the solution, activity, and every cached priority key — flattened into
// comparable vectors. Keys are captured per edge, not per slot, so twins
// with different compaction histories stay comparable.

struct EngineState {
  std::vector<Edge> edges;
  std::vector<Weight> edge_weights;
  std::vector<Weight> vertex_weights;
  std::vector<uint64_t> solution;  // widened: in_set bit or partner id
  std::vector<uint8_t> active;
  std::vector<std::pair<Edge, PriorityKey>> edge_keys;
  std::vector<PriorityKey> vertex_keys;

  friend bool operator==(const EngineState&, const EngineState&) = default;
};

template <typename Engine>
void capture_graph(const Engine& dm, EngineState& s) {
  const CsrGraph g = dm.graph().to_csr();
  s.edges.assign(g.edges().begin(), g.edges().end());
  s.edge_weights.assign(g.edge_weights().begin(), g.edge_weights().end());
  s.vertex_weights.assign(g.vertex_weights().begin(),
                          g.vertex_weights().end());
  s.active.resize(dm.num_vertices());
  for (VertexId v = 0; v < dm.num_vertices(); ++v)
    s.active[v] = dm.active(v) ? 1 : 0;
}

EngineState capture(const DynamicMis& dm) {
  EngineState s;
  capture_graph(dm, s);
  const std::vector<uint8_t> sol = dm.solution();
  s.solution.assign(sol.begin(), sol.end());
  s.vertex_keys.resize(dm.num_vertices());
  for (VertexId v = 0; v < dm.num_vertices(); ++v)
    s.vertex_keys[v] = dm.cached_key(v);
  return s;
}

EngineState capture(const DynamicMatching& dm) {
  EngineState s;
  capture_graph(dm, s);
  const std::vector<VertexId> sol = dm.solution();
  s.solution.assign(sol.begin(), sol.end());
  for (EdgeSlot slot = 0; slot < dm.graph().slot_bound(); ++slot)
    if (dm.graph().slot_live(slot))
      s.edge_keys.emplace_back(dm.graph().slot_edge(slot),
                               dm.cached_key(slot));
  std::sort(s.edge_keys.begin(), s.edge_keys.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return s;
}

void oracle_audit(const DynamicMis& dm) {
  const CsrGraph h = dm.active_subgraph();
  std::vector<uint8_t> expect =
      mis_sequential(h, dm.vertex_order_for(h)).in_set;
  for (VertexId v = 0; v < dm.num_vertices(); ++v)
    if (!dm.active(v)) expect[v] = 0;
  ASSERT_EQ(dm.solution(), expect);
}

void oracle_audit(const DynamicMatching& dm) {
  const CsrGraph h = dm.active_subgraph();
  ASSERT_EQ(dm.solution(),
            mm_sequential(h, dm.edge_order_for(h)).matched_with);
}

/// The shared round loop: Engine is DynamicMis or DynamicMatching, Txn
/// its Transaction alias.
template <typename Engine, typename Txn, typename Fixture>
void run_rounds(const Fixture& fix, Engine& engine, Engine& twin) {
  // Both engines see the same compaction policy; half the instances
  // compact aggressively so the deferred-compaction path is fuzzed too.
  const double threshold = fix.seed() % 2 == 0 ? 0.05 : 0.0;
  engine.set_compaction_threshold(threshold);
  twin.set_compaction_threshold(threshold);

  Txn txn(engine);
  std::deque<std::vector<typename Txn::Value>> history{txn.solution_at(0)};

  // Concurrent-reader oracle: while the rounds below speculate, abort,
  // and commit, a background reader continuously validates the
  // published window — every version's checksum recomputes (no torn
  // reads), ids are consecutive within a window and the latest id is
  // monotonically non-decreasing across observations (stale is allowed,
  // reordering is not). Version ids advance only at commit(), so a
  // monotone, checksummed stream can never expose aborted speculation.
  // Failures are tallied in atomics and asserted after join (gtest
  // assertions are not thread-safe off the main thread).
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn_reads{0};
  std::atomic<uint64_t> order_violations{0};
  std::atomic<uint64_t> observations{0};
  std::thread reader([&txn, &stop, &torn_reads, &order_violations,
                      &observations] {
    const auto& state = txn.published_state();
    uint64_t last_latest = 0;
    while (!stop.load(std::memory_order_acquire)) {
      ReadGuard guard(state.epochs_);
      const auto& window = state.window(guard);
      uint64_t expect = window.versions.front()->version;
      for (const auto& ver : window.versions) {
        if (!ver->verify_checksum()) torn_reads.fetch_add(1);
        if (ver->version != expect++) order_violations.fetch_add(1);
      }
      const uint64_t latest = window.versions.back()->version;
      if (latest < last_latest) order_violations.fetch_add(1);
      last_latest = latest;
      observations.fetch_add(1);
    }
  });
  // Stop/join even when an ASSERT below returns out of this function —
  // the reader must not outlive the transaction it reads.
  struct Joiner {
    std::atomic<bool>& stop;
    std::thread& reader;
    void join() {
      stop.store(true, std::memory_order_release);
      if (reader.joinable()) reader.join();
    }
    ~Joiner() { join(); }
  } joiner{stop, reader};

  const uint64_t n = engine.num_vertices();
  for (uint64_t round = 0; round < kRoundsPerInstance; ++round) {
    // Speculative phase: apply and abort, sometimes through savepoints;
    // the engine must come back bit-exactly.
    const EngineState before = capture(engine);
    const BatchStats lifetime_before = engine.lifetime_stats();
    txn.begin();
    txn.apply(fix.make_batch(n, engine.graph().live_edge_list().edges(),
                             round, /*salt2=*/1));
    if (round % 3 == 1) {
      const EngineSnapshot sp = txn.savepoint();
      txn.apply(fix.make_batch(n, engine.graph().live_edge_list().edges(),
                               round, /*salt2=*/2));
      if (round % 6 == 1) {
        const EngineSnapshot sp2 = txn.savepoint();
        txn.apply(fix.make_batch(
            n, engine.graph().live_edge_list().edges(), round, /*salt2=*/3));
        txn.rollback_to(sp2);
      }
      txn.rollback_to(sp);
    }
    // In-flight versioned read: must still see the last committed state.
    ASSERT_EQ(txn.committed_solution(), history.back())
        << "in-flight read diverged at round " << round << " (seed "
        << fix.seed() << ")";
    txn.abort();
    ASSERT_EQ(capture(engine), before)
        << "abort was not state-identical at round " << round << " (seed "
        << fix.seed() << ")";
    ASSERT_EQ(engine.lifetime_stats(), lifetime_before);

    // Committed phase: the same batch through the transaction and
    // directly through the twin must land on the identical state.
    const UpdateBatch batch = fix.make_batch(
        n, engine.graph().live_edge_list().edges(), round, /*salt2=*/4);
    txn.begin();
    txn.apply(batch);
    txn.commit();
    // Per-commit publish oracle (see the file comment).
    ASSERT_EQ(txn.committed_solution(), engine.solution())
        << "published version diverged from the engine at round " << round
        << " (seed " << fix.seed() << ")";
    ASSERT_TRUE(txn.read().verify_checksum());
    twin.apply_batch(batch);
    ASSERT_EQ(capture(engine), capture(twin))
        << "commit diverged from direct apply at round " << round
        << " (seed " << fix.seed() << ")";

    history.push_back(txn.committed_solution());
    if (history.size() > 4) history.pop_front();
    // Versioned reads across the retained window.
    for (std::size_t back = 0; back < history.size(); ++back) {
      const uint64_t v = txn.version() - (history.size() - 1 - back);
      ASSERT_EQ(txn.solution_at(v), history[back])
          << "versioned read diverged at round " << round << ", version "
          << v << " (seed " << fix.seed() << ")";
    }

    if (round % 5 == 4) oracle_audit(engine);
  }

  // The rounds can finish before the reader thread has run at all; hold
  // it open until it has completed one validated pass (it never blocks,
  // so this terminates), then join so the tallies below are final.
  while (observations.load() == 0) std::this_thread::yield();
  joiner.join();
  ASSERT_EQ(torn_reads.load(), 0u)
      << "background reader saw torn published state (seed " << fix.seed()
      << ")";
  ASSERT_EQ(order_violations.load(), 0u)
      << "background reader saw non-monotone or gapped versions (seed "
      << fix.seed() << ")";
  ASSERT_GT(observations.load(), 0u);
}

TEST_P(TxnDifferential, MisAbortCommitAndVersionedReads) {
  ScopedNumWorkers guard(workers());
  const CsrGraph g = make_graph();
  const PrioritySource src = source();
  DynamicMis engine(EngineOptions::with_source(g, src));
  DynamicMis twin(EngineOptions::with_source(g, src));
  run_rounds<DynamicMis, MisTransaction>(*this, engine, twin);
}

TEST_P(TxnDifferential, MatchingAbortCommitAndVersionedReads) {
  ScopedNumWorkers guard(workers());
  const CsrGraph g = make_graph();
  const PrioritySource src = source();
  DynamicMatching engine(EngineOptions::with_source(g, src));
  DynamicMatching twin(EngineOptions::with_source(g, src));
  run_rounds<DynamicMatching, MatchingTransaction>(*this, engine, twin);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TxnDifferential,
                         ::testing::Range<uint64_t>(0, 30));

}  // namespace
}  // namespace pargreedy
