// Unit tests for VertexOrder and EdgeOrder — the total orderings pi whose
// randomness the paper's main theorem quantifies over, and whose fixedness
// is what makes every algorithm in the library deterministic.
#include <gtest/gtest.h>

#include <vector>

#include "core/matching/edge_order.hpp"
#include "core/mis/vertex_order.hpp"
#include "parallel/arch.hpp"
#include "random/permutation.hpp"
#include "support/check.hpp"

namespace pargreedy {
namespace {

TEST(VertexOrder, RandomIsAPermutation) {
  const VertexOrder order = VertexOrder::random(1'000, 5);
  EXPECT_EQ(order.size(), 1'000u);
  std::vector<uint32_t> perm(order.order().begin(), order.order().end());
  EXPECT_TRUE(is_valid_permutation(perm));
}

TEST(VertexOrder, NthAndRankAreInverse) {
  const VertexOrder order = VertexOrder::random(500, 7);
  for (uint64_t i = 0; i < order.size(); ++i)
    EXPECT_EQ(order.rank(order.nth(i)), i);
  for (VertexId v = 0; v < order.size(); ++v)
    EXPECT_EQ(order.nth(order.rank(v)), v);
}

TEST(VertexOrder, EarlierIsStrictTotalOrder) {
  const VertexOrder order = VertexOrder::random(100, 9);
  for (VertexId u = 0; u < 100; ++u) {
    EXPECT_FALSE(order.earlier(u, u));
    for (VertexId v = u + 1; v < 100; ++v)
      EXPECT_NE(order.earlier(u, v), order.earlier(v, u));
  }
}

TEST(VertexOrder, IdentityOrder) {
  const VertexOrder order = VertexOrder::identity(50);
  for (uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(order.nth(i), i);
    EXPECT_EQ(order.rank(static_cast<VertexId>(i)), i);
  }
  EXPECT_TRUE(order.earlier(3, 4));
  EXPECT_FALSE(order.earlier(4, 3));
}

TEST(VertexOrder, DeterministicInSeedAndWorkerCount) {
  VertexOrder base;
  {
    ScopedNumWorkers guard(1);
    base = VertexOrder::random(10'000, 42);
  }
  {
    ScopedNumWorkers guard(4);
    const VertexOrder again = VertexOrder::random(10'000, 42);
    for (uint64_t i = 0; i < base.size(); ++i)
      ASSERT_EQ(again.nth(i), base.nth(i));
  }
}

TEST(VertexOrder, SeedsDiffer) {
  const VertexOrder a = VertexOrder::random(1'000, 1);
  const VertexOrder b = VertexOrder::random(1'000, 2);
  bool differ = false;
  for (uint64_t i = 0; !differ && i < a.size(); ++i)
    differ = a.nth(i) != b.nth(i);
  EXPECT_TRUE(differ);
}

TEST(VertexOrder, FromPermutationValidates) {
  EXPECT_NO_THROW(VertexOrder::from_permutation({2, 0, 1}));
  EXPECT_THROW(VertexOrder::from_permutation({0, 0, 1}), CheckFailure);
  EXPECT_THROW(VertexOrder::from_permutation({0, 3, 1}), CheckFailure);
}

// The (order, rank) factories take the sorter's output as it is and
// check both halves: a permutation, and a rank that is its inverse.
TEST(VertexOrder, FromPermutationWithRanksValidatesBoth) {
  const VertexOrder order = VertexOrder::from_permutation({2, 0, 1}, {1, 2, 0});
  EXPECT_EQ(order.rank(2), 0u);
  EXPECT_EQ(order.nth(2), 1u);
  EXPECT_THROW(VertexOrder::from_permutation({2, 0, 1}, {2, 0, 1}),
               CheckFailure);  // rank
  EXPECT_THROW(VertexOrder::from_permutation({0, 0, 1}, {0, 2, 0}),
               CheckFailure);  // dup
  EXPECT_THROW(VertexOrder::from_permutation({0, 3, 1}, {0, 2, 1}),
               CheckFailure);  // range
  EXPECT_THROW(VertexOrder::from_permutation({1, 0}, {1, 0, 2}),
               CheckFailure);  // size
  EXPECT_NO_THROW(EdgeOrder::from_permutation({1, 0}, {1, 0}));
  EXPECT_THROW(EdgeOrder::from_permutation({1, 0}, {0, 1}), CheckFailure);
  EXPECT_NO_THROW(VertexOrder::from_permutation({}, {}));
}

TEST(VertexOrder, FromPermutationRoundTrips) {
  const std::vector<VertexId> perm{3, 1, 4, 0, 2};
  const VertexOrder order = VertexOrder::from_permutation(perm);
  for (uint64_t i = 0; i < perm.size(); ++i) EXPECT_EQ(order.nth(i), perm[i]);
  EXPECT_TRUE(order.earlier(3, 2));   // rank 0 vs rank 4
  EXPECT_TRUE(order.earlier(1, 0));   // rank 1 vs rank 3
}

TEST(VertexOrder, EmptyOrder) {
  const VertexOrder order = VertexOrder::random(0, 1);
  EXPECT_EQ(order.size(), 0u);
  EXPECT_NO_THROW(VertexOrder::identity(0));
  EXPECT_NO_THROW(VertexOrder::from_permutation({}));
}

// ------------------------------------------------------------- EdgeOrder ---

TEST(EdgeOrder, RandomIsAPermutation) {
  const EdgeOrder order = EdgeOrder::random(2'000, 3);
  EXPECT_EQ(order.size(), 2'000u);
  std::vector<uint32_t> perm(order.order().begin(), order.order().end());
  EXPECT_TRUE(is_valid_permutation(perm));
}

TEST(EdgeOrder, NthAndRankAreInverse) {
  const EdgeOrder order = EdgeOrder::random(777, 8);
  for (uint64_t i = 0; i < order.size(); ++i)
    EXPECT_EQ(order.rank(order.nth(i)), i);
}

TEST(EdgeOrder, IdentityAndFromPermutation) {
  const EdgeOrder ident = EdgeOrder::identity(10);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(ident.nth(i), i);
  EXPECT_THROW(EdgeOrder::from_permutation({1, 1}), CheckFailure);
  const EdgeOrder perm = EdgeOrder::from_permutation({2, 0, 1});
  EXPECT_TRUE(perm.earlier(2, 0));
  EXPECT_TRUE(perm.earlier(0, 1));
}

TEST(EdgeOrder, VertexAndEdgeOrdersWithSameSeedDiffer) {
  // The two order types must not accidentally share randomness streams:
  // mixing vertex and edge orders from the same seed must still be valid
  // (and in general different) permutations.
  const VertexOrder vo = VertexOrder::random(100, 5);
  const EdgeOrder eo = EdgeOrder::random(100, 5);
  std::vector<uint32_t> vp(vo.order().begin(), vo.order().end());
  std::vector<uint32_t> ep(eo.order().begin(), eo.order().end());
  EXPECT_TRUE(is_valid_permutation(vp));
  EXPECT_TRUE(is_valid_permutation(ep));
}

}  // namespace
}  // namespace pargreedy
