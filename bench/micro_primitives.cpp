// google-benchmark microbenchmarks for the parallel primitives substrate:
// scan, pack, reduce, counting sort, random permutation generation and
// the weighted priority orders (both built by the radix sorter of
// parallel/radix_sort.hpp) — the building blocks whose constants determine
// every algorithm's absolute running time.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "core/priority/priority_source.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "parallel/counting_sort.hpp"
#include "parallel/pack.hpp"
#include "parallel/reduce.hpp"
#include "parallel/scan.hpp"
#include "random/hash.hpp"
#include "random/permutation.hpp"

namespace pargreedy {
namespace {

void BM_ExclusiveScan(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<uint64_t> in(static_cast<std::size_t>(n), 3);
  std::vector<uint64_t> out(in.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exclusive_scan(std::span<const uint64_t>(in),
                       std::span<uint64_t>(out)));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExclusiveScan)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_PackHalf(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<uint32_t> in(static_cast<std::size_t>(n));
  std::iota(in.begin(), in.end(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pack(std::span<const uint32_t>(in),
                                  [](int64_t i) { return (i & 1) == 0; }));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PackHalf)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_ReduceAdd(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reduce_add<int64_t>(0, n, [](int64_t i) { return i & 7; }));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ReduceAdd)->Arg(1 << 16)->Arg(1 << 22);

void BM_CountingSort(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t buckets = 1'024;
  std::vector<uint32_t> in(static_cast<std::size_t>(n));
  for (int64_t i = 0; i < n; ++i)
    in[static_cast<std::size_t>(i)] = static_cast<uint32_t>(
        hash64(1, static_cast<uint64_t>(i)) % static_cast<uint64_t>(buckets));
  std::vector<uint32_t> out(in.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(counting_sort(
        std::span<const uint32_t>(in), std::span<uint32_t>(out), buckets,
        [](uint32_t v) { return static_cast<int64_t>(v); }));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CountingSort)->Arg(1 << 16)->Arg(1 << 20);

void BM_RandomPermutation(benchmark::State& state) {
  const int64_t n = state.range(0);
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        random_permutation(static_cast<uint64_t>(n), ++seed));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RandomPermutation)->Arg(1 << 14)->Arg(1 << 18)->Arg(1 << 21);

// PrioritySource::edge_order on a random graph of ~2^20 edges: the weighted
// order every dynamic matching engine builds at construction. Arg 0 is
// weight_hash_tiebreak over 64 weight levels (the serve workloads'
// policy: a few classes, hash ties), 1 is edge_weight over continuous
// weights.
void BM_WeightedEdgeOrder(benchmark::State& state) {
  const bool tiebreak = state.range(0) == 0;
  CsrGraph g = CsrGraph::from_edges(random_graph_nm(1 << 18, 1 << 20, 1));
  g.set_edge_weights(tiebreak ? quantized_weights(g.num_edges(), 2, 64)
                              : random_weights(g.num_edges(), 2));
  const PrioritySource source = tiebreak
                                    ? PrioritySource::weight_hash_tiebreak(3)
                                    : PrioritySource::edge_weight();
  for (auto _ : state) benchmark::DoNotOptimize(source.edge_order(g));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_edges()));
  state.SetLabel(tiebreak ? "weight_hash_tiebreak, 64 levels"
                          : "edge_weight, continuous");
}
BENCHMARK(BM_WeightedEdgeOrder)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_Hash64Stream(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    uint64_t acc = 0;
    for (int64_t i = 0; i < n; ++i)
      acc ^= hash64(42, static_cast<uint64_t>(i));
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Hash64Stream)->Arg(1 << 16);

}  // namespace
}  // namespace pargreedy

BENCHMARK_MAIN();
