// Dynamic-engine benchmark: amortized batch-update cost vs from-scratch
// recomputation, as a function of batch size.
//
// For each workload and batch size the bench streams mixed insert/delete
// batches through DynamicMis / DynamicMatching and reports
//
//   * avg_update_ms   — wall time of apply_batch (repropagation included),
//   * avg_recomputed  — greedy decisions re-evaluated per batch (the
//                       affected cone; full recompute would be n or m),
//   * full_ms         — rebuilding the CSR from the live edge set and
//                       recomputing the static greedy solution, which is
//                       what a non-dynamic deployment would do per batch,
//   * full/update     — the speedup of staying dynamic.
//
// The dynamic engine's win shrinks as batches approach the graph size —
// the crossover is the point where recomputation is the better strategy.
// With PARGREEDY_JSON_DIR set, the tables land in BENCH_dynamic_batch.json
// for cross-PR diffing.
#include <cstdint>
#include <iostream>

#include "bench_common.hpp"
#include "core/mis/mis.hpp"
#include "core/matching/matching.hpp"
#include "dynamic/dynamic_matching.hpp"
#include "dynamic/dynamic_mis.hpp"
#include "dynamic/update_batch.hpp"
#include "support/check.hpp"

namespace pargreedy {
namespace {

constexpr uint64_t kBatchesPerSize = 5;

std::vector<uint64_t> batch_sizes(uint64_t m) {
  std::vector<uint64_t> sizes;
  for (uint64_t s = 2; s <= m / 10; s *= 10) sizes.push_back(s);
  if (sizes.empty()) sizes.push_back(2);
  return sizes;
}

void run_mis(const bench::Workload& w, uint64_t seed) {
  const CsrGraph& g = w.graph;
  const uint64_t n = g.num_vertices();
  DynamicMis dm(EngineOptions::seeded(g, seed));

  bench::print_header("dynamic_batch",
                      w.name + " — DynamicMis batch update vs recompute");
  Table table({"batch_ops", "avg_update_ms", "avg_recomputed",
               "recomputed/n", "avg_rounds", "full_ms", "full/update"});
  for (uint64_t ops : batch_sizes(g.num_edges())) {
    double update_s = 0;
    uint64_t recomputed = 0, rounds = 0;
    for (uint64_t b = 0; b < kBatchesPerSize; ++b) {
      const UpdateBatch batch = UpdateBatch::random(
          n, dm.graph().live_edge_list().edges(), /*inserts=*/ops / 2,
          /*deletes=*/ops / 2, /*toggles=*/0, seed + 31 * ops + b);
      Timer t;
      const BatchStats stats = dm.apply_batch(batch);
      update_s += t.elapsed_seconds();
      recomputed += stats.recomputed;
      rounds += stats.rounds;
    }
    // What a static deployment does instead: rebuild the CSR from the
    // current edge set and recompute greedy from scratch. The oracle
    // comparison happens outside the timer — it is not recompute work.
    MisResult full;
    const double full_s = time_best_of(bench::timing_reps(), [&] {
      const CsrGraph h = CsrGraph::from_edges(dm.graph().live_edge_list());
      full = mis_rootset(h, dm.vertex_order_for(h));
    });
    PG_CHECK(full.in_set == dm.solution());
    const double avg_update_s = update_s / kBatchesPerSize;
    const double avg_recomputed =
        static_cast<double>(recomputed) / kBatchesPerSize;
    table.add_row(
        {fmt_count(static_cast<int64_t>(ops)),
         fmt_double(avg_update_s * 1e3, 4), fmt_double(avg_recomputed, 4),
         fmt_double(avg_recomputed / static_cast<double>(n), 4),
         fmt_double(static_cast<double>(rounds) / kBatchesPerSize, 3),
         fmt_double(full_s * 1e3, 4),
         fmt_double(full_s / avg_update_s, 3)});
  }
  bench::emit("dynamic_batch", "mis: " + w.name, table);
}

void run_matching(const bench::Workload& w, uint64_t seed) {
  const CsrGraph& g = w.graph;
  const uint64_t n = g.num_vertices();
  DynamicMatching dm(EngineOptions::seeded(g, seed));

  bench::print_header(
      "dynamic_batch",
      w.name + " — DynamicMatching batch update vs recompute");
  Table table({"batch_ops", "avg_update_ms", "avg_recomputed",
               "recomputed/m", "avg_rounds", "full_ms", "full/update"});
  for (uint64_t ops : batch_sizes(g.num_edges())) {
    double update_s = 0;
    uint64_t recomputed = 0, rounds = 0;
    for (uint64_t b = 0; b < kBatchesPerSize; ++b) {
      const UpdateBatch batch = UpdateBatch::random(
          n, dm.graph().live_edge_list().edges(), /*inserts=*/ops / 2,
          /*deletes=*/ops / 2, /*toggles=*/0, seed + 37 * ops + b);
      Timer t;
      const BatchStats stats = dm.apply_batch(batch);
      update_s += t.elapsed_seconds();
      recomputed += stats.recomputed;
      rounds += stats.rounds;
    }
    MatchResult full;
    const double full_s = time_best_of(bench::timing_reps(), [&] {
      const CsrGraph h = CsrGraph::from_edges(dm.graph().live_edge_list());
      full = mm_rootset(h, dm.edge_order_for(h));
    });
    PG_CHECK(full.matched_with == dm.solution());
    const double avg_update_s = update_s / kBatchesPerSize;
    const double avg_recomputed =
        static_cast<double>(recomputed) / kBatchesPerSize;
    table.add_row(
        {fmt_count(static_cast<int64_t>(ops)),
         fmt_double(avg_update_s * 1e3, 4), fmt_double(avg_recomputed, 4),
         fmt_double(avg_recomputed / static_cast<double>(g.num_edges()), 4),
         fmt_double(static_cast<double>(rounds) / kBatchesPerSize, 3),
         fmt_double(full_s * 1e3, 4),
         fmt_double(full_s / avg_update_s, 3)});
  }
  bench::emit("dynamic_batch", "matching: " + w.name, table);
}

}  // namespace
}  // namespace pargreedy

int main() {
  using namespace pargreedy;
  const BenchScale scale = bench_scale();
  if (!bench::csv_output())
    std::cout << "dynamic_batch — scale preset: " << scale.name << "\n";
  const bench::Workload random = bench::make_random_workload(scale);
  const bench::Workload rmat = bench::make_rmat_workload(scale);
  run_mis(random, 301);
  run_mis(rmat, 302);
  run_matching(random, 303);
  run_matching(rmat, 304);
  return 0;
}
