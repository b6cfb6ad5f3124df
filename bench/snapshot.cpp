// Snapshot benchmark: what the transactional layer's checkpoint, abort,
// and versioned reads cost, against the recompute they replace.
//
// For each workload and speculative-batch size the bench drives a
// Transaction-wrapped dynamic engine and reports, per batch:
//
//   * begin_us       — taking the O(1) checkpoint (journal attach + marks),
//   * apply_ms       — applying the speculative batch under the journal,
//   * abort_ms       — rolling the batch back through the undo logs,
//   * rebuild_ms     — the alternative to abort without the subsystem:
//                      recomputing the pre-batch solution from scratch
//                      (active_subgraph + parallel rootset),
//   * rebuild/undo   — the win: rebuild_ms / (begin_us/1000 + abort_ms);
//                      checkpoint+abort must beat full recompute on small
//                      batches (the acceptance criterion),
//   * commit_us      — detaching the journal, the deferred compaction
//                      check, and publishing the new version,
//   * read_ms        — committed_solution() *while a speculative batch is
//                      in flight* (a copy of the last published version),
//   * read@-3_ms     — solution_at(version - 3): a copy of the version
//                      three commits back in the published window,
//   * txn_aborts     — the txn.abort obs-counter delta over the row.
//
// Abort bit-exactness is asserted outside the timers on every batch
// (solution compared to the pre-transaction capture). Engines run the
// weight_hash_tiebreak policy so speculative reweights genuinely move
// priorities. With PARGREEDY_JSON_DIR set, tables land in
// BENCH_snapshot.json.
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/matching/matching.hpp"
#include "core/mis/mis.hpp"
#include "core/priority/priority_source.hpp"
#include "dynamic/dynamic_matching.hpp"
#include "dynamic/dynamic_mis.hpp"
#include "dynamic/update_batch.hpp"
#include "support/check.hpp"
#include "txn/transaction.hpp"

namespace pargreedy {
namespace {

constexpr uint64_t kBatchesPerSize = 5;
constexpr uint64_t kWeightLevels = 1024;
constexpr uint64_t kReadBack = 3;  // versioned-read depth (window keeps 8)

std::vector<uint64_t> batch_sizes(uint64_t m) {
  std::vector<uint64_t> sizes;
  for (uint64_t s = 2; s <= m / 10; s *= 10) sizes.push_back(s);
  if (sizes.empty()) sizes.push_back(2);
  return sizes;
}

// Deterministic obs counter read, 0 when the layer is compiled out — the
// txn_aborts column stays present either way.
uint64_t obs_counter(const char* name) {
#if PARGREEDY_OBS
  return obs::counter_value(name);
#else
  (void)name;
  return 0;
#endif
}

UpdateBatch speculative_batch(const OverlayGraph& graph, uint64_t ops,
                              uint64_t seed) {
  // Mixed speculative traffic: inserts, deletes, and reweights in equal
  // thirds (rounded up so tiny batches still mix).
  return UpdateBatch::random_weighted(
      graph.num_vertices(), graph.live_edge_list().edges(),
      /*inserts=*/ops / 3 + 1, /*deletes=*/ops / 3 + 1,
      /*reweights=*/ops / 3 + 1, /*toggles=*/0, kWeightLevels, seed);
}

/// One engine's sweep. Rebuild is the engine-specific from-scratch
/// recompute of the current solution; it receives the engine by
/// reference so it always measures the *pre-batch* state.
template <typename Engine, typename Txn, typename Rebuild>
void run_engine(const std::string& series, Engine& engine,
                Rebuild&& rebuild, uint64_t seed) {
  Txn txn(engine);
  Table table({"batch_ops", "begin_us", "apply_ms", "abort_ms", "rebuild_ms",
               "rebuild/undo", "commit_us", "read_ms", "read@-3_ms",
               "txn_aborts"});
  for (uint64_t ops : batch_sizes(engine.num_edges())) {
    double begin_s = 0, apply_s = 0, abort_s = 0, commit_s = 0;
    double inflight_read_s = 0, versioned_read_s = 0;
    // Deterministic obs delta for this row (a driver-thread counter — the
    // same at any worker count, so the compare gate can pin it).
    const uint64_t aborts_before = obs_counter(obs::kTxnAbort);
    for (uint64_t b = 0; b < kBatchesPerSize; ++b) {
      const uint64_t salt = seed + 41 * ops + b;
      const auto before = engine.solution();

      // Speculate and undo.
      const UpdateBatch spec = speculative_batch(engine.graph(), ops, salt);
      Timer t_begin;
      txn.begin();
      begin_s += t_begin.elapsed_seconds();
      Timer t_apply;
      txn.apply(spec);
      apply_s += t_apply.elapsed_seconds();
      Timer t_read;
      const auto committed = txn.committed_solution();
      inflight_read_s += t_read.elapsed_seconds();
      Timer t_abort;
      txn.abort();
      abort_s += t_abort.elapsed_seconds();
      PG_CHECK_MSG(engine.solution() == before,
                   "abort was not bit-exact at ops=" << ops);
      PG_CHECK_MSG(committed == before,
                   "in-flight read diverged at ops=" << ops);

      // Advance real state so later rows do not speculate off a stale
      // graph, and measure commit + versioned reads along the way.
      txn.begin();
      txn.apply(speculative_batch(engine.graph(), ops, salt + 7'000));
      Timer t_commit;
      txn.commit();
      commit_s += t_commit.elapsed_seconds();
      if (txn.version() > kReadBack) {
        Timer t_vread;
        const auto old = txn.solution_at(txn.version() - kReadBack);
        versioned_read_s += t_vread.elapsed_seconds();
        PG_CHECK(old.size() == before.size());
      }
    }
    const double rebuild_s = time_best_of(bench::timing_reps(), rebuild);
    const double avg_begin_s = begin_s / kBatchesPerSize;
    const double avg_abort_s = abort_s / kBatchesPerSize;
    const double undo_s = avg_begin_s + avg_abort_s;
    table.add_row(
        {fmt_count(static_cast<int64_t>(ops)),
         fmt_double(avg_begin_s * 1e6, 3),
         fmt_double(apply_s / kBatchesPerSize * 1e3, 4),
         fmt_double(avg_abort_s * 1e3, 4),
         fmt_double(rebuild_s * 1e3, 4),
         fmt_double(rebuild_s / (undo_s > 0 ? undo_s : 1e-9), 3),
         fmt_double(commit_s / kBatchesPerSize * 1e6, 3),
         fmt_double(inflight_read_s / kBatchesPerSize * 1e3, 4),
         fmt_double(versioned_read_s / kBatchesPerSize * 1e3, 4),
         fmt_count(static_cast<int64_t>(obs_counter(obs::kTxnAbort) -
                                        aborts_before))});
  }
  bench::emit("snapshot", series, table);
}

void run_mis(const bench::Workload& w, uint64_t seed) {
  CsrGraph g = w.graph;
  g.set_vertex_weights(
      quantized_weights(g.num_vertices(), seed, kWeightLevels));
  DynamicMis engine(EngineOptions::with_source(
      g, PrioritySource::weight_hash_tiebreak(seed)));
  bench::print_header("snapshot",
                      w.name + " — DynamicMis checkpoint/abort vs rebuild");
  run_engine<DynamicMis, MisTransaction>(
      "mis: " + w.name, engine,
      [&] {
        const CsrGraph h = engine.active_subgraph();
        const MisResult full = mis_rootset(h, engine.vertex_order_for(h));
        PG_CHECK(full.in_set.size() == h.num_vertices());
      },
      seed);
}

void run_matching(const bench::Workload& w, uint64_t seed) {
  CsrGraph g = w.graph;
  g.set_edge_weights(quantized_weights(g.num_edges(), seed, kWeightLevels));
  DynamicMatching engine(EngineOptions::with_source(
      g, PrioritySource::weight_hash_tiebreak(seed)));
  bench::print_header(
      "snapshot", w.name + " — DynamicMatching checkpoint/abort vs rebuild");
  run_engine<DynamicMatching, MatchingTransaction>(
      "matching: " + w.name, engine,
      [&] {
        const CsrGraph h = engine.active_subgraph();
        const MatchResult full = mm_rootset(h, engine.edge_order_for(h));
        PG_CHECK(full.matched_with.size() == h.num_vertices());
      },
      seed);
}

}  // namespace
}  // namespace pargreedy

int main() {
  using namespace pargreedy;
  const BenchScale scale = bench_scale();
  if (!bench::csv_output())
    std::cout << "snapshot — scale preset: " << scale.name << "\n";
  const bench::Workload random = bench::make_random_workload(scale);
  const bench::Workload rmat = bench::make_rmat_workload(scale);
  run_mis(random, 601);
  run_mis(rmat, 602);
  run_matching(random, 603);
  run_matching(rmat, 604);
  return 0;
}
