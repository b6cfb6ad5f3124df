// Differential fuzzing: randomized inputs with randomized shapes, checked
// against independent reference implementations (std:: algorithms, brute
// force, or the sequential greedy oracle). Complements the hand-picked
// cases in the per-module suites with breadth: many seeds, ragged sizes,
// skewed distributions, and forced-parallel execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/matching/matching.hpp"
#include "core/matching/verify.hpp"
#include "core/mis/mis.hpp"
#include "core/mis/verify.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "parallel/arch.hpp"
#include "parallel/counting_sort.hpp"
#include "parallel/pack.hpp"
#include "parallel/radix_sort.hpp"
#include "parallel/scan.hpp"
#include "random/hash.hpp"
#include "random/permutation.hpp"

namespace pargreedy {
namespace {

struct FuzzItem {
  uint32_t key;
  uint32_t tag;
  friend bool operator==(const FuzzItem&, const FuzzItem&) = default;
};

class Fuzz : public ::testing::TestWithParam<uint64_t> {
 protected:
  uint64_t seed() const { return GetParam(); }
  // Ragged sizes around the parallel/sequential thresholds.
  int64_t fuzz_size(uint64_t salt) const {
    const uint64_t s = hash64(seed(), salt);
    const int64_t bases[] = {1,   7,    255,  256,  257,   511,
                             512, 1023, 4096, 9999, 65537, 100'000};
    const int64_t base = bases[s % (sizeof bases / sizeof bases[0])];
    return base + static_cast<int64_t>((s >> 32) % 7) - 3 < 0
               ? base
               : base + static_cast<int64_t>((s >> 32) % 7) - 3;
  }
};

TEST_P(Fuzz, ScanMatchesStdPartialSum) {
  ScopedNumWorkers guard(1 + seed() % 5);
  const int64_t n = fuzz_size(1);
  std::vector<int64_t> in(static_cast<std::size_t>(n));
  for (int64_t i = 0; i < n; ++i)
    in[static_cast<std::size_t>(i)] = static_cast<int64_t>(
        hash64(seed(), static_cast<uint64_t>(i)) % 1'000) - 500;
  std::vector<int64_t> expect(in.size());
  std::exclusive_scan(in.begin(), in.end(), expect.begin(), int64_t{0});
  std::vector<int64_t> out(in.size());
  exclusive_scan(std::span<const int64_t>(in), std::span<int64_t>(out));
  EXPECT_EQ(out, expect);
}

TEST_P(Fuzz, PackMatchesStdCopyIf) {
  ScopedNumWorkers guard(1 + seed() % 5);
  const int64_t n = fuzz_size(2);
  std::vector<uint64_t> in(static_cast<std::size_t>(n));
  for (int64_t i = 0; i < n; ++i)
    in[static_cast<std::size_t>(i)] = hash64(seed() + 1, uint64_t(i));
  const uint64_t threshold = hash64(seed(), 999);
  auto keep = [&](int64_t i) {
    return in[static_cast<std::size_t>(i)] < threshold;
  };
  std::vector<uint64_t> expect;
  for (int64_t i = 0; i < n; ++i)
    if (keep(i)) expect.push_back(in[static_cast<std::size_t>(i)]);
  EXPECT_EQ(pack(std::span<const uint64_t>(in), keep), expect);
}

TEST_P(Fuzz, CountingSortMatchesStdStableSort) {
  ScopedNumWorkers guard(1 + seed() % 5);
  const int64_t n = fuzz_size(3);
  const int64_t buckets = 1 + static_cast<int64_t>(hash64(seed(), 4) % 300);
  std::vector<FuzzItem> in(static_cast<std::size_t>(n));
  for (int64_t i = 0; i < n; ++i)
    in[static_cast<std::size_t>(i)] = FuzzItem{
        static_cast<uint32_t>(hash64(seed() + 2, uint64_t(i)) %
                              static_cast<uint64_t>(buckets)),
        static_cast<uint32_t>(i)};
  std::vector<FuzzItem> out(in.size());
  counting_sort(std::span<const FuzzItem>(in), std::span<FuzzItem>(out),
                buckets,
                [](const FuzzItem& it) { return static_cast<int64_t>(it.key); });
  std::vector<FuzzItem> expect = in;
  std::stable_sort(expect.begin(), expect.end(),
                   [](const FuzzItem& a, const FuzzItem& b) {
                     return a.key < b.key;
                   });
  EXPECT_EQ(out, expect);
}

TEST_P(Fuzz, PermutationSortAgreesWithStdSort) {
  ScopedNumWorkers guard(1 + seed() % 5);
  const uint64_t n = static_cast<uint64_t>(fuzz_size(5));
  std::vector<uint64_t> keys(n);
  for (uint64_t i = 0; i < n; ++i)
    keys[i] = hash64(seed() + 3, i) % 97;  // heavy ties
  std::vector<uint32_t> expect(n);
  std::iota(expect.begin(), expect.end(), 0);
  std::sort(expect.begin(), expect.end(), [&](uint32_t a, uint32_t b) {
    return keys[a] != keys[b] ? keys[a] < keys[b] : a < b;
  });
  std::vector<uint32_t> items(n);
  std::vector<uint32_t> rank(n);
  sort_ids_by_key(std::span<uint32_t>(items), std::span<uint32_t>(rank),
                  [&](uint32_t i) { return SortKey{keys[i], 0}; });
  EXPECT_EQ(items, expect);
  EXPECT_EQ(rank, invert_permutation(expect));
}

TEST_P(Fuzz, RandomMultigraphNormalizesToSimpleGraph) {
  // Arbitrary multigraph soup in, canonical simple graph out.
  const uint64_t n = 2 + hash64(seed(), 6) % 300;
  EdgeList el(n);
  const uint64_t edges = hash64(seed(), 7) % 3'000;
  for (uint64_t i = 0; i < edges; ++i) {
    el.add(static_cast<VertexId>(hash64(seed(), 100 + 2 * i) % n),
           static_cast<VertexId>(hash64(seed(), 101 + 2 * i) % n));
  }
  const CsrGraph g = CsrGraph::from_edges(el);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_LT(g.edge(e).u, g.edge(e).v);
    if (e > 0) {
      EXPECT_TRUE(g.edge(e - 1) < g.edge(e));
    }
  }
}

TEST_P(Fuzz, GreedyOracleOnArbitraryMultigraphSoup) {
  // End-to-end: soup -> CSR -> all MIS/MM variants == sequential oracle.
  ScopedNumWorkers guard(1 + seed() % 5);
  const uint64_t n = 2 + hash64(seed(), 8) % 400;
  EdgeList el(n);
  const uint64_t edges = hash64(seed(), 9) % 4'000;
  for (uint64_t i = 0; i < edges; ++i) {
    el.add(static_cast<VertexId>(hash64(seed(), 200 + 2 * i) % n),
           static_cast<VertexId>(hash64(seed(), 201 + 2 * i) % n));
  }
  const CsrGraph g = CsrGraph::from_edges(el);
  const VertexOrder vo = VertexOrder::random(g.num_vertices(), seed() + 11);
  const EdgeOrder eo = EdgeOrder::random(g.num_edges(), seed() + 12);
  const uint64_t vwindow = 1 + hash64(seed(), 13) % (g.num_vertices() + 1);
  const uint64_t ewindow = 1 + hash64(seed(), 14) % (g.num_edges() + 2);

  const MisResult mis_ref = mis_sequential(g, vo);
  EXPECT_TRUE(is_maximal_independent_set(g, mis_ref.in_set));
  EXPECT_EQ(mis_prefix(g, vo, g.num_vertices()).in_set, mis_ref.in_set);
  EXPECT_EQ(mis_rootset(g, vo).in_set, mis_ref.in_set);
  EXPECT_EQ(mis_prefix(g, vo, vwindow).in_set, mis_ref.in_set);

  const MatchResult mm_ref = mm_sequential(g, eo);
  EXPECT_TRUE(is_maximal_matching(g, mm_ref.in_matching));
  EXPECT_EQ(mm_parallel_naive(g, eo).in_matching, mm_ref.in_matching);
  EXPECT_EQ(mm_rootset(g, eo).in_matching, mm_ref.in_matching);
  EXPECT_EQ(mm_prefix(g, eo, ewindow).in_matching, mm_ref.in_matching);
}

TEST_P(Fuzz, DisconnectedAndDegenerateShapes) {
  // Unions of tiny components + isolated vertices; stress boundary logic.
  const uint64_t blocks = 1 + hash64(seed(), 15) % 8;
  EdgeList el(20 * blocks + 10);  // 10 extra isolated vertices
  for (uint64_t b = 0; b < blocks; ++b) {
    const VertexId base = static_cast<VertexId>(20 * b);
    switch (hash64(seed(), 16 + b) % 4) {
      case 0:  // tiny clique
        for (VertexId u = 0; u < 5; ++u)
          for (VertexId v = u + 1; v < 5; ++v) el.add(base + u, base + v);
        break;
      case 1:  // tiny path
        for (VertexId v = 1; v < 8; ++v) el.add(base + v - 1, base + v);
        break;
      case 2:  // tiny star
        for (VertexId v = 1; v < 9; ++v) el.add(base, base + v);
        break;
      default:  // single edge
        el.add(base, base + 1);
    }
  }
  const CsrGraph g = CsrGraph::from_edges(el);
  const VertexOrder vo = VertexOrder::random(g.num_vertices(), seed() + 21);
  const EdgeOrder eo = EdgeOrder::random(g.num_edges(), seed() + 22);
  EXPECT_EQ(mis_rootset(g, vo).in_set, mis_sequential(g, vo).in_set);
  EXPECT_EQ(mm_rootset(g, eo).in_matching, mm_sequential(g, eo).in_matching);
  EXPECT_TRUE(
      is_maximal_independent_set(g, mis_sequential(g, vo).in_set));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz, ::testing::Range<uint64_t>(0, 12));

}  // namespace
}  // namespace pargreedy
