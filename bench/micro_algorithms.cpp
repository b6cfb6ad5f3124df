// google-benchmark microbenchmarks over the algorithm variants — the
// ablation study behind the paper's implementation choices:
//   * MIS: sequential vs rootset vs prefix (several windows; the full
//     window is Algorithm 2's naive step-synchronous run) vs Luby —
//     quantifies the work/parallelism dial and the rootset version's
//     linear-work advantage on deep instances;
//   * MM: the same comparison for matching.
// Sizes are fixed small multiples so a full run stays in seconds; the
// figure-level benches (fig1..fig4) own the paper-scale measurements.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "core/matching/matching.hpp"
#include "core/mis/mis.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"

namespace pargreedy {
namespace {

const CsrGraph& bench_graph() {
  static const CsrGraph g =
      CsrGraph::from_edges(random_graph_nm(50'000, 250'000, 1));
  return g;
}

const CsrGraph& bench_rmat() {
  static const CsrGraph g = CsrGraph::from_edges(rmat_graph(16, 250'000, 2));
  return g;
}

const VertexOrder& bench_vorder(const CsrGraph& g) {
  static const VertexOrder o = VertexOrder::random(bench_graph().num_vertices(), 3);
  static const VertexOrder o2 = VertexOrder::random(bench_rmat().num_vertices(), 3);
  return g.num_vertices() == bench_graph().num_vertices() ? o : o2;
}

const EdgeOrder& bench_eorder(const CsrGraph& g) {
  static const EdgeOrder o = EdgeOrder::random(bench_graph().num_edges(), 4);
  static const EdgeOrder o2 = EdgeOrder::random(bench_rmat().num_edges(), 4);
  return g.num_edges() == bench_graph().num_edges() ? o : o2;
}

void BM_MisSequential(benchmark::State& state) {
  const CsrGraph& g = bench_graph();
  const VertexOrder& order = bench_vorder(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(mis_sequential(g, order));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_vertices()));
}
BENCHMARK(BM_MisSequential);

void BM_MisRootset(benchmark::State& state) {
  const CsrGraph& g = bench_graph();
  const VertexOrder& order = bench_vorder(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(mis_rootset(g, order));
}
BENCHMARK(BM_MisRootset);

void BM_MisPrefix(benchmark::State& state) {
  const CsrGraph& g = bench_graph();
  const VertexOrder& order = bench_vorder(g);
  const uint64_t window = static_cast<uint64_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(mis_prefix(g, order, window));
  state.SetLabel("window=" + std::to_string(window));
}
BENCHMARK(BM_MisPrefix)->Arg(64)->Arg(50'000 / 50)->Arg(50'000);

void BM_MisLuby(benchmark::State& state) {
  const CsrGraph& g = bench_graph();
  const VertexOrder& order = bench_vorder(g);  // force setup outside timing
  (void)order;
  for (auto _ : state) benchmark::DoNotOptimize(luby_mis(g, 5));
}
BENCHMARK(BM_MisLuby);

void BM_MisLubyArrays(benchmark::State& state) {
  const CsrGraph& g = bench_graph();
  for (auto _ : state) benchmark::DoNotOptimize(luby_mis_arrays(g, 5));
}
BENCHMARK(BM_MisLubyArrays);

void BM_MisRootsetRmat(benchmark::State& state) {
  const CsrGraph& g = bench_rmat();
  const VertexOrder& order = bench_vorder(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(mis_rootset(g, order));
}
BENCHMARK(BM_MisRootsetRmat);

void BM_MisPrefixRmat(benchmark::State& state) {
  const CsrGraph& g = bench_rmat();
  const VertexOrder& order = bench_vorder(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(mis_prefix(g, order, g.num_vertices() / 50));
}
BENCHMARK(BM_MisPrefixRmat);

void BM_MmSequential(benchmark::State& state) {
  const CsrGraph& g = bench_graph();
  const EdgeOrder& order = bench_eorder(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(mm_sequential(g, order));
}
BENCHMARK(BM_MmSequential);

void BM_MmNaive(benchmark::State& state) {
  const CsrGraph& g = bench_graph();
  const EdgeOrder& order = bench_eorder(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(mm_parallel_naive(g, order));
}
BENCHMARK(BM_MmNaive);

void BM_MmRootset(benchmark::State& state) {
  const CsrGraph& g = bench_graph();
  const EdgeOrder& order = bench_eorder(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(mm_rootset(g, order));
}
BENCHMARK(BM_MmRootset);

void BM_MmPrefix(benchmark::State& state) {
  const CsrGraph& g = bench_graph();
  const EdgeOrder& order = bench_eorder(g);
  const uint64_t window = static_cast<uint64_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(mm_prefix(g, order, window));
  state.SetLabel("window=" + std::to_string(window));
}
BENCHMARK(BM_MmPrefix)->Arg(64)->Arg(5'000)->Arg(250'000);

// Deep-instance ablation: adversarial identity order on a path — the
// rootset implementation stays linear while the full-window prefix run
// (Algorithm 2) degrades to Theta(n) steps over the whole graph.
void BM_MisFullWindowAdversarialPath(benchmark::State& state) {
  const uint64_t n = 20'000;
  static const CsrGraph g = CsrGraph::from_edges(path_graph(n));
  const VertexOrder order = VertexOrder::identity(n);
  for (auto _ : state) benchmark::DoNotOptimize(mis_prefix(g, order, n));
}
BENCHMARK(BM_MisFullWindowAdversarialPath);

void BM_MisRootsetAdversarialPath(benchmark::State& state) {
  const uint64_t n = 20'000;
  static const CsrGraph g = CsrGraph::from_edges(path_graph(n));
  const VertexOrder order = VertexOrder::identity(n);
  for (auto _ : state) benchmark::DoNotOptimize(mis_rootset(g, order));
}
BENCHMARK(BM_MisRootsetAdversarialPath);

}  // namespace
}  // namespace pargreedy

BENCHMARK_MAIN();
