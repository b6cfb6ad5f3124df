// Reweight benchmark: what a first-class in-place weight update costs,
// against the two strategies it replaces.
//
// For each workload and batch size the bench streams weight perturbations
// through weighted dynamic engines three ways and reports, per batch of
// `ops` changed weights:
//
//   * reweight_ms     — UpdateBatch::reweight_* batches: keys refreshed in
//                       place, repropagation seeded from the reweighted
//                       elements' cones (no slot churn),
//   * churn_ms        — the historical workaround: delete + re-insert each
//                       edge with its new weight in one batch (matching
//                       only; vertices cannot be re-inserted at all, which
//                       is why vertex reweights needed this PR),
//   * full_ms         — rebuilding the CSR with the new weights and
//                       recomputing the static greedy solution,
//   * noop_rounds     — repropagation rounds of the identical reweight
//                       traffic under random_hash priorities, where weight
//                       changes must be provable no-ops (the column is an
//                       in-bench assertion that it stays 0).
//
// Engines run the weight_hash_tiebreak policy (the recommended weighted
// policy); every row is oracle-audited outside the timers. With
// PARGREEDY_JSON_DIR set, tables land in BENCH_reweight.json.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <set>
#include <vector>

#include "bench_common.hpp"
#include "core/matching/matching.hpp"
#include "core/mis/mis.hpp"
#include "core/priority/priority_source.hpp"
#include "dynamic/dynamic_matching.hpp"
#include "dynamic/dynamic_mis.hpp"
#include "dynamic/update_batch.hpp"
#include "random/hash.hpp"
#include "support/check.hpp"

namespace pargreedy {
namespace {

constexpr uint64_t kBatchesPerSize = 5;
constexpr uint64_t kWeightLevels = 1024;  // fine-grained: most reweights
                                          // actually move the priority

std::vector<uint64_t> batch_sizes(uint64_t m) {
  std::vector<uint64_t> sizes;
  for (uint64_t s = 2; s <= m / 10; s *= 10) sizes.push_back(s);
  if (sizes.empty()) sizes.push_back(2);
  return sizes;
}

/// ~ops distinct live edges with fresh weights, deterministic in the seed.
struct EdgeReweights {
  std::vector<Edge> edges;
  std::vector<Weight> weights;
};

EdgeReweights sample_edge_reweights(const OverlayGraph& graph, uint64_t ops,
                                    uint64_t seed) {
  const EdgeList live_list = graph.live_edge_list();
  const auto live = live_list.edges();
  EdgeReweights out;
  // Distinct edges only: duplicates would make the two spellings diverge
  // legitimately (for repeats of one edge, the last *reweight* wins but
  // the first *re-insert* does — the second insert is a no-op).
  std::set<uint64_t> chosen;
  for (uint64_t i = 0; i < ops; ++i) {
    const Edge e = live[hash_range(seed, i, live.size())];
    if (!chosen.insert(edge_pair_key(e)).second) continue;
    out.edges.push_back(e);
    out.weights.push_back(
        static_cast<Weight>(1 + hash_range(seed, ops + i, kWeightLevels)));
  }
  return out;
}

void run_mis(const bench::Workload& w, uint64_t seed) {
  CsrGraph g = w.graph;
  g.set_vertex_weights(
      quantized_weights(g.num_vertices(), seed, kWeightLevels));
  const uint64_t n = g.num_vertices();
  DynamicMis dm(EngineOptions::with_source(
      g, PrioritySource::weight_hash_tiebreak(seed)));
  DynamicMis noop(EngineOptions::seeded(
      g, /*seed=*/seed + 1));  // random_hash control

  bench::print_header("reweight",
                      w.name + " — DynamicMis vertex reweight vs recompute");
  Table table({"batch_ops", "reweight_ms", "avg_recomputed", "avg_rounds",
               "full_ms", "full/reweight", "noop_rounds"});
  for (uint64_t ops : batch_sizes(n)) {
    double update_s = 0;
    uint64_t recomputed = 0, rounds = 0, noop_rounds = 0;
    for (uint64_t b = 0; b < kBatchesPerSize; ++b) {
      UpdateBatch batch;
      const uint64_t salt = seed + 31 * ops + b;
      for (uint64_t i = 0; i < ops; ++i)
        batch.reweight_vertex(
            static_cast<VertexId>(hash_range(salt, i, n)),
            static_cast<Weight>(1 + hash_range(salt, ops + i,
                                               kWeightLevels)));
      Timer t;
      const BatchStats stats = dm.apply_batch(batch);
      update_s += t.elapsed_seconds();
      recomputed += stats.recomputed;
      rounds += stats.rounds;
      // Identical traffic under random_hash: must be a provable no-op.
      noop_rounds += noop.apply_batch(batch).rounds;
    }
    PG_CHECK_MSG(noop_rounds == 0,
                 "random_hash reweight triggered repropagation");
    MisResult full;
    const double full_s = time_best_of(bench::timing_reps(), [&] {
      const CsrGraph h = dm.active_subgraph();
      full = mis_rootset(h, dm.vertex_order_for(h));
    });
    PG_CHECK(full.in_set == dm.solution());
    const double avg_update_s = update_s / kBatchesPerSize;
    table.add_row(
        {fmt_count(static_cast<int64_t>(ops)),
         fmt_double(avg_update_s * 1e3, 4),
         fmt_double(static_cast<double>(recomputed) / kBatchesPerSize, 4),
         fmt_double(static_cast<double>(rounds) / kBatchesPerSize, 3),
         fmt_double(full_s * 1e3, 4),
         fmt_double(full_s / avg_update_s, 3),
         fmt_count(static_cast<int64_t>(noop_rounds))});
  }
  bench::emit("reweight", "mis: " + w.name, table);
}

void run_matching(const bench::Workload& w, uint64_t seed) {
  CsrGraph g = w.graph;
  g.set_edge_weights(quantized_weights(g.num_edges(), seed, kWeightLevels));
  DynamicMatching dm(EngineOptions::with_source(
      g, PrioritySource::weight_hash_tiebreak(seed)));
  DynamicMatching churn(EngineOptions::with_source(
      g, PrioritySource::weight_hash_tiebreak(seed)));

  bench::print_header(
      "reweight",
      w.name + " — DynamicMatching edge reweight vs delete+reinsert");
  Table table({"batch_ops", "reweight_ms", "avg_recomputed", "avg_rounds",
               "del+reins_ms", "churn/reweight", "full_ms",
               "full/reweight"});
  for (uint64_t ops : batch_sizes(g.num_edges())) {
    double update_s = 0, churn_s = 0;
    uint64_t recomputed = 0, rounds = 0;
    for (uint64_t b = 0; b < kBatchesPerSize; ++b) {
      const EdgeReweights rw =
          sample_edge_reweights(dm.graph(), ops, seed + 37 * ops + b);
      UpdateBatch batch, churn_batch;
      for (std::size_t i = 0; i < rw.edges.size(); ++i) {
        batch.reweight_edge(rw.edges[i].u, rw.edges[i].v, rw.weights[i]);
        churn_batch.delete_edge(rw.edges[i].u, rw.edges[i].v)
            .insert_edge(rw.edges[i].u, rw.edges[i].v, rw.weights[i]);
      }
      Timer t;
      const BatchStats stats = dm.apply_batch(batch);
      update_s += t.elapsed_seconds();
      recomputed += stats.recomputed;
      rounds += stats.rounds;
      Timer tc;
      churn.apply_batch(churn_batch);
      churn_s += tc.elapsed_seconds();
    }
    // Both strategies must land on the identical matching — the reweight
    // op is a faster spelling of the same semantic update.
    PG_CHECK_MSG(dm.solution() == churn.solution(),
                 "reweight and delete+reinsert diverged");
    MatchResult full;
    const double full_s = time_best_of(bench::timing_reps(), [&] {
      const CsrGraph h = dm.active_subgraph();
      full = mm_rootset(h, dm.edge_order_for(h));
    });
    PG_CHECK(full.matched_with == dm.solution());
    const double avg_update_s = update_s / kBatchesPerSize;
    const double avg_churn_s = churn_s / kBatchesPerSize;
    table.add_row(
        {fmt_count(static_cast<int64_t>(ops)),
         fmt_double(avg_update_s * 1e3, 4),
         fmt_double(static_cast<double>(recomputed) / kBatchesPerSize, 4),
         fmt_double(static_cast<double>(rounds) / kBatchesPerSize, 3),
         fmt_double(avg_churn_s * 1e3, 4),
         fmt_double(avg_churn_s / avg_update_s, 3),
         fmt_double(full_s * 1e3, 4),
         fmt_double(full_s / avg_update_s, 3)});
  }
  bench::emit("reweight", "matching: " + w.name, table);
}

}  // namespace
}  // namespace pargreedy

int main() {
  using namespace pargreedy;
  const BenchScale scale = bench_scale();
  if (!bench::csv_output())
    std::cout << "reweight — scale preset: " << scale.name << "\n";
  const bench::Workload random = bench::make_random_workload(scale);
  const bench::Workload rmat = bench::make_rmat_workload(scale);
  run_mis(random, 501);
  run_mis(rmat, 502);
  run_matching(random, 503);
  run_matching(rmat, 504);
  return 0;
}
