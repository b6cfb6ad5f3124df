// Unit tests for PrioritySource: the key encoding, the four policies, the
// materialized orders, and the weighted sequential oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/matching/matching.hpp"
#include "core/mis/mis.hpp"
#include "core/priority/priority_source.hpp"
#include "dynamic/dynamic_mis.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "parallel/arch.hpp"
#include "random/hash.hpp"
#include "support/check.hpp"

namespace pargreedy {
namespace {

CsrGraph weighted_test_graph(uint64_t n, uint64_t m, uint64_t seed,
                             uint64_t levels) {
  CsrGraph g = CsrGraph::from_edges(random_graph_nm(n, m, seed));
  g.set_vertex_weights(quantized_weights(g.num_vertices(), seed + 1, levels));
  g.set_edge_weights(quantized_weights(g.num_edges(), seed + 2, levels));
  return g;
}

TEST(DescendingWeightBits, ReversesTheWeightOrder) {
  const std::vector<Weight> ascending = {-1e300, -5.0,   -1.5, -0.0, 0.0,
                                         1e-300, 0.5,    1.0,  1.5,  2.0,
                                         1e9,    1e300};
  for (std::size_t i = 0; i < ascending.size(); ++i)
    for (std::size_t j = 0; j < ascending.size(); ++j) {
      if (ascending[i] == ascending[j]) continue;  // -0.0 == 0.0 is a tie
      EXPECT_EQ(ascending[i] < ascending[j],
                descending_weight_bits(ascending[i]) >
                    descending_weight_bits(ascending[j]))
          << "weights " << ascending[i] << " vs " << ascending[j];
    }
  EXPECT_EQ(descending_weight_bits(1.0), descending_weight_bits(1.0));
  // Signed zeros compare equal as weights, so they must share one key.
  EXPECT_EQ(descending_weight_bits(-0.0), descending_weight_bits(0.0));
  EXPECT_THROW(
      descending_weight_bits(std::numeric_limits<Weight>::quiet_NaN()),
      CheckFailure);
}

TEST(PrioritySource, PolicyNamesAndAccessors) {
  EXPECT_STREQ(priority_policy_name(PriorityPolicy::kRandomHash),
               "random_hash");
  EXPECT_STREQ(priority_policy_name(PriorityPolicy::kVertexWeight),
               "vertex_weight");
  EXPECT_STREQ(priority_policy_name(PriorityPolicy::kEdgeWeight),
               "edge_weight");
  EXPECT_STREQ(priority_policy_name(PriorityPolicy::kWeightHashTiebreak),
               "weight_hash_tiebreak");

  EXPECT_EQ(PrioritySource::random_hash(7).seed(), 7u);
  EXPECT_FALSE(PrioritySource::random_hash(7).is_weighted());
  EXPECT_TRUE(PrioritySource::vertex_weight().is_weighted());
  EXPECT_TRUE(PrioritySource::edge_weight().is_weighted());
  EXPECT_TRUE(PrioritySource::weight_hash_tiebreak(3).is_weighted());
  EXPECT_EQ(PrioritySource().policy(), PriorityPolicy::kRandomHash);
  // EngineOptions::seeded is random_hash(seed) behind an engine.
  const DynamicMis seeded(EngineOptions::seeded(
      CsrGraph::from_edges(random_graph_nm(60, 150, 3)), 5));
  EXPECT_EQ(seeded.priority_source().policy(), PriorityPolicy::kRandomHash);
  EXPECT_EQ(seeded.priority_source().seed(), 5u);
}

TEST(PrioritySource, ContextMismatchesAreRejected) {
  EXPECT_THROW(
      static_cast<void>(PrioritySource::edge_weight().vertex_key(0, 1.0)),
      CheckFailure);
  EXPECT_THROW(static_cast<void>(
                   PrioritySource::vertex_weight().edge_key(Edge{0, 1}, 1.0)),
               CheckFailure);
}

TEST(PrioritySource, RandomHashVertexOrderMatchesVertexOrderRandom) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(500, 2'000, 11));
  for (uint64_t seed : {0u, 1u, 42u}) {
    const VertexOrder expect = VertexOrder::random(g.num_vertices(), seed);
    const VertexOrder got =
        PrioritySource::random_hash(seed).vertex_order(g);
    ASSERT_EQ(std::vector<VertexId>(got.order().begin(), got.order().end()),
              std::vector<VertexId>(expect.order().begin(),
                                    expect.order().end()));
  }
}

TEST(PrioritySource, RandomHashEdgeOrderIsTheHistoricalHashSort) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(300, 1'200, 13));
  const uint64_t seed = 5;
  const EdgeOrder got = PrioritySource::random_hash(seed).edge_order(g);
  // Reference: the pre-refactor engine order — edge ids sorted by
  // (hash64(seed, (u << 32) | v), id).
  std::vector<EdgeId> expect(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) expect[e] = e;
  std::sort(expect.begin(), expect.end(), [&](EdgeId a, EdgeId b) {
    const uint64_t ka = hash64(seed, edge_pair_key(g.edge(a)));
    const uint64_t kb = hash64(seed, edge_pair_key(g.edge(b)));
    return ka != kb ? ka < kb : a < b;
  });
  ASSERT_EQ(std::vector<EdgeId>(got.order().begin(), got.order().end()),
            expect);
}

TEST(PrioritySource, VertexWeightOrderIsDecreasingWithIdTies) {
  CsrGraph g = CsrGraph::from_edges(random_graph_nm(400, 1'000, 17));
  g.set_vertex_weights(quantized_weights(g.num_vertices(), 19, 5));
  const VertexOrder order = PrioritySource::vertex_weight().vertex_order(g);
  for (uint64_t i = 1; i < order.size(); ++i) {
    const VertexId prev = order.nth(i - 1);
    const VertexId cur = order.nth(i);
    const Weight wp = g.vertex_weight(prev);
    const Weight wc = g.vertex_weight(cur);
    ASSERT_TRUE(wp > wc || (wp == wc && prev < cur))
        << "position " << i << ": " << prev << " (w=" << wp << ") before "
        << cur << " (w=" << wc << ")";
  }
}

TEST(PrioritySource, EdgeWeightOrderIsDecreasingWithKeyTies) {
  CsrGraph g = CsrGraph::from_edges(random_graph_nm(300, 900, 23));
  g.set_edge_weights(quantized_weights(g.num_edges(), 29, 5));
  const EdgeOrder order = PrioritySource::edge_weight().edge_order(g);
  for (uint64_t i = 1; i < order.size(); ++i) {
    const EdgeId prev = order.nth(i - 1);
    const EdgeId cur = order.nth(i);
    const Weight wp = g.edge_weight(prev);
    const Weight wc = g.edge_weight(cur);
    ASSERT_TRUE(wp > wc || (wp == wc && prev < cur));
  }
}

TEST(PrioritySource, WeightHashTiebreakRespectsWeightClasses) {
  CsrGraph g = CsrGraph::from_edges(random_graph_nm(400, 1'200, 31));
  g.set_vertex_weights(quantized_weights(g.num_vertices(), 37, 3));
  const PrioritySource src = PrioritySource::weight_hash_tiebreak(41);
  const VertexOrder order = src.vertex_order(g);
  // Weights never increase along the order; equal weights are hash-ordered.
  for (uint64_t i = 1; i < order.size(); ++i) {
    const VertexId prev = order.nth(i - 1);
    const VertexId cur = order.nth(i);
    ASSERT_GE(g.vertex_weight(prev), g.vertex_weight(cur));
    if (g.vertex_weight(prev) == g.vertex_weight(cur)) {
      const uint64_t hp = hash64(src.seed(), prev);
      const uint64_t hc = hash64(src.seed(), cur);
      ASSERT_TRUE(hp < hc || (hp == hc && prev < cur));
    }
  }
}

TEST(PrioritySource, OrdersAreWorkerCountIndependent) {
  const CsrGraph g = weighted_test_graph(600, 2'400, 43, 4);
  for (const PrioritySource& src :
       {PrioritySource::random_hash(1), PrioritySource::vertex_weight(),
        PrioritySource::weight_hash_tiebreak(2)}) {
    std::vector<std::vector<VertexId>> orders;
    for (int workers : {1, 2, 4}) {
      ScopedNumWorkers guard(workers);
      const VertexOrder o = src.vertex_order(g);
      orders.emplace_back(o.order().begin(), o.order().end());
    }
    ASSERT_EQ(orders[0], orders[1]);
    ASSERT_EQ(orders[0], orders[2]);
  }
}

TEST(WeightedOracles, MisAgreesWithSequentialOnMaterializedOrder) {
  const CsrGraph g = weighted_test_graph(500, 2'000, 47, 4);
  for (const PrioritySource& src :
       {PrioritySource::random_hash(3), PrioritySource::vertex_weight(),
        PrioritySource::weight_hash_tiebreak(5)}) {
    ASSERT_EQ(mis_weighted_sequential(g, src).in_set,
              mis_sequential(g, src.vertex_order(g)).in_set)
        << priority_policy_name(src.policy());
  }
}

TEST(WeightedOracles, MatchingAgreesWithSequentialOnMaterializedOrder) {
  const CsrGraph g = weighted_test_graph(500, 2'000, 53, 4);
  for (const PrioritySource& src :
       {PrioritySource::random_hash(3), PrioritySource::edge_weight(),
        PrioritySource::weight_hash_tiebreak(5)}) {
    ASSERT_EQ(mm_weighted_sequential(g, src).matched_with,
              mm_sequential(g, src.edge_order(g)).matched_with)
        << priority_policy_name(src.policy());
  }
}

// ---- Orders at parallel sizes ---------------------------------------
//
// Every order is built by sort_ids_by_key (parallel/radix_sort.hpp). Its
// parallel split passes and bucket loop only run above one record buffer
// (2^15 ids), so these cases use 2^17-2^18 elements, at 1, 2 and 4
// workers, over the key shapes the policies produce: uniform hashes, a
// few weight classes split by hashes, one class, continuous weights, and
// heavy ties broken by id alone. With 4 levels a class outgrows a 4-worker
// share and takes the sorter's parallel re-split; at 1 worker it is split
// again inside the bucket loop.

struct OrderShape {
  const char* name;
  bool tiebreak;    // weight_hash_tiebreak, else vertex_/edge_weight
  uint64_t levels;  // quantized weight levels; 0 = continuous weights
};

// Shape 0 is random_hash; the others index kOrderShapes[shape - 1].
constexpr OrderShape kOrderShapes[] = {
    {"tiebreak_64_levels", true, 64},
    {"tiebreak_4_levels", true, 4},
    {"tiebreak_1_level", true, 1},
    {"tiebreak_continuous", true, 0},
    {"weight_5_levels", false, 5},
    {"weight_continuous", false, 0},
};
constexpr int kNumOrderShapes =
    1 + static_cast<int>(sizeof kOrderShapes / sizeof kOrderShapes[0]);

std::vector<Weight> shape_weights(uint64_t count, uint64_t levels,
                                  uint64_t seed) {
  return levels == 0 ? random_weights(count, seed)
                     : quantized_weights(count, seed, levels);
}

// Ids 0..count-1 sorted by (key(id), id) with std::sort: the reference.
template <typename KeyOf>
std::vector<uint32_t> reference_order(uint64_t count, const KeyOf& key_of) {
  std::vector<PriorityKey> keys(count);
  for (uint32_t i = 0; i < count; ++i) keys[i] = key_of(i);
  std::vector<uint32_t> ids(count);
  for (uint32_t i = 0; i < count; ++i) ids[i] = i;
  std::sort(ids.begin(), ids.end(), [&](uint32_t a, uint32_t b) {
    return keys[a] == keys[b] ? a < b : keys[a] < keys[b];
  });
  return ids;
}

template <typename Order>
void expect_order(const Order& got, const std::vector<uint32_t>& expect) {
  ASSERT_EQ(std::vector<uint32_t>(got.order().begin(), got.order().end()),
            expect);
  ASSERT_EQ(got.ranks().size(), expect.size());
  for (uint32_t i = 0; i < expect.size(); ++i)
    ASSERT_EQ(got.ranks()[expect[i]], i) << "rank of " << expect[i];
}

class OrderAtScale
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  int shape() const { return std::get<0>(GetParam()); }
  int workers() const { return std::get<1>(GetParam()); }
};

TEST_P(OrderAtScale, VertexOrderMatchesStdSort) {
  ScopedNumWorkers guard(workers());
  const uint64_t n = (uint64_t{1} << 17) + 5;
  PrioritySource src = PrioritySource::random_hash(61);
  std::vector<Weight> w;
  if (shape() > 0) {
    const OrderShape& s = kOrderShapes[shape() - 1];
    src = s.tiebreak ? PrioritySource::weight_hash_tiebreak(61)
                     : PrioritySource::vertex_weight();
    w = shape_weights(n, s.levels, 67);
  }
  CsrGraph g = CsrGraph::from_edges(EdgeList(n));
  if (!w.empty()) g.set_vertex_weights(w);
  const VertexOrder got = src.vertex_order(g);
  expect_order(got, reference_order(n, [&](uint32_t v) {
                 return src.vertex_key(v, w.empty() ? kDefaultWeight : w[v]);
               }));
}

TEST_P(OrderAtScale, EdgeOrderMatchesStdSort) {
  ScopedNumWorkers guard(workers());
  CsrGraph g = CsrGraph::from_edges(
      random_graph_nm(uint64_t{1} << 16, (uint64_t{1} << 18) + 100, 71));
  ASSERT_GT(g.num_edges(), uint64_t{1} << 17);
  PrioritySource src = PrioritySource::random_hash(73);
  if (shape() > 0) {
    const OrderShape& s = kOrderShapes[shape() - 1];
    src = s.tiebreak ? PrioritySource::weight_hash_tiebreak(73)
                     : PrioritySource::edge_weight();
    g.set_edge_weights(shape_weights(g.num_edges(), s.levels, 79));
  }
  const EdgeOrder got = src.edge_order(g);
  expect_order(got, reference_order(g.num_edges(), [&](uint32_t e) {
                 return src.edge_key(g.edge(e), g.edge_weight(e));
               }));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OrderAtScale,
    ::testing::Combine(::testing::Range(0, kNumOrderShapes),
                       ::testing::Values(1, 2, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      const int shape = std::get<0>(info.param);
      return std::string(shape == 0 ? "random_hash"
                                    : kOrderShapes[shape - 1].name) +
             "_w" + std::to_string(std::get<1>(info.param));
    });

// VertexOrder::random and EdgeOrder::random at the same sizes, against
// the hash-key reference: ids by (hash64(seed, id), id).
class RandomOrderAtScale : public ::testing::TestWithParam<int> {};

TEST_P(RandomOrderAtScale, MatchesHashKeySort) {
  ScopedNumWorkers guard(GetParam());
  const auto hash_key = [](uint64_t seed) {
    return [seed](uint32_t i) { return PriorityKey{hash64(seed, i), 0}; };
  };
  const uint64_t n = (uint64_t{1} << 17) + 3;
  const uint64_t m = (uint64_t{1} << 18) - 7;
  expect_order(VertexOrder::random(n, 83), reference_order(n, hash_key(83)));
  expect_order(EdgeOrder::random(m, 89), reference_order(m, hash_key(89)));
}

INSTANTIATE_TEST_SUITE_P(Workers, RandomOrderAtScale,
                         ::testing::Values(1, 2, 4));

TEST(WeightHelpers, RandomWeightsAreDeterministicAndInRange) {
  const std::vector<Weight> a = random_weights(1'000, 7, 2.0, 5.0);
  const std::vector<Weight> b = random_weights(1'000, 7, 2.0, 5.0);
  ASSERT_EQ(a, b);
  for (const Weight w : a) {
    ASSERT_GE(w, 2.0);
    ASSERT_LT(w, 5.0);
  }
  EXPECT_NE(a, random_weights(1'000, 8, 2.0, 5.0));
  EXPECT_THROW(random_weights(10, 1, 3.0, 3.0), CheckFailure);
}

TEST(WeightHelpers, QuantizedWeightsHitEveryLevel) {
  const std::vector<Weight> w = quantized_weights(2'000, 9, 4);
  ASSERT_EQ(w, quantized_weights(2'000, 9, 4));
  std::vector<uint64_t> counts(4, 0);
  for (const Weight x : w) {
    ASSERT_GE(x, 1.0);
    ASSERT_LE(x, 4.0);
    ASSERT_EQ(x, static_cast<Weight>(static_cast<uint64_t>(x)));
    ++counts[static_cast<std::size_t>(x) - 1];
  }
  for (const uint64_t c : counts) EXPECT_GT(c, 0u);
  EXPECT_THROW(quantized_weights(10, 1, 0), CheckFailure);
}

}  // namespace
}  // namespace pargreedy
