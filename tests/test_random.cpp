// Unit tests for the randomness substrate (src/random/): counter-based
// hashing, xoshiro256**, and the random permutations whose uniformity the
// paper's main theorem quantifies over.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "parallel/arch.hpp"
#include "parallel/radix_sort.hpp"
#include "random/hash.hpp"
#include "random/permutation.hpp"
#include "random/xoshiro.hpp"

namespace pargreedy {
namespace {

// ------------------------------------------------------------------ hash ---

TEST(Hash, Mix64IsBijectiveOnSamples) {
  // Bijectivity can't be checked exhaustively; check no collisions across a
  // large structured sample (consecutive ints are the adversarial case for
  // weak mixers).
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 200'000; ++i) seen.insert(mix64(i));
  EXPECT_EQ(seen.size(), 200'000u);
}

TEST(Hash, Hash64DependsOnSeedAndIndex) {
  EXPECT_NE(hash64(1, 0), hash64(2, 0));
  EXPECT_NE(hash64(1, 0), hash64(1, 1));
  EXPECT_EQ(hash64(42, 17), hash64(42, 17));  // pure function
}

TEST(Hash, Hash64BitsLookUniform) {
  // Each of the 64 bit positions should be set about half the time.
  const int n = 40'000;
  int counts[64] = {};
  for (int i = 0; i < n; ++i) {
    const uint64_t h = hash64(7, static_cast<uint64_t>(i));
    for (int b = 0; b < 64; ++b) counts[b] += (h >> b) & 1;
  }
  for (int b = 0; b < 64; ++b) {
    EXPECT_GT(counts[b], n / 2 - n / 20) << "bit " << b;
    EXPECT_LT(counts[b], n / 2 + n / 20) << "bit " << b;
  }
}

TEST(Hash, RangeStaysInBounds) {
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1'000'003ull}) {
    for (uint64_t i = 0; i < 1'000; ++i) {
      EXPECT_LT(hash_range(5, i, bound), bound);
    }
  }
}

TEST(Hash, RangeIsRoughlyUniform) {
  const uint64_t bound = 10;
  const int n = 100'000;
  std::vector<int> counts(bound, 0);
  for (int i = 0; i < n; ++i)
    ++counts[hash_range(3, static_cast<uint64_t>(i), bound)];
  for (uint64_t b = 0; b < bound; ++b) {
    EXPECT_GT(counts[b], n / 10 - n / 50) << "bucket " << b;
    EXPECT_LT(counts[b], n / 10 + n / 50) << "bucket " << b;
  }
}

TEST(Hash, UnitIsInHalfOpenInterval) {
  double sum = 0.0;
  for (uint64_t i = 0; i < 50'000; ++i) {
    const double u = hash_unit(11, i);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 50'000, 0.5, 0.01);
}

TEST(Hash, RngChildStreamsDiffer) {
  const HashRng root(123);
  const HashRng a = root.child(1);
  const HashRng b = root.child(2);
  EXPECT_NE(a.seed(), b.seed());
  EXPECT_NE(a.bits(0), b.bits(0));
  // Children are reproducible.
  EXPECT_EQ(root.child(1).seed(), a.seed());
}

// --------------------------------------------------------------- xoshiro ---

TEST(Xoshiro, DeterministicInSeed) {
  Xoshiro256 a(99);
  Xoshiro256 b(99);
  for (int i = 0; i < 1'000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, SeedsProduceDifferentStreams) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro, RangeInBounds) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(rng.range(17), 17u);
}

TEST(Xoshiro, UnitMeanIsHalf) {
  Xoshiro256 rng(6);
  double sum = 0.0;
  for (int i = 0; i < 50'000; ++i) {
    const double u = rng.unit();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 50'000, 0.5, 0.01);
}

TEST(Xoshiro, JumpDecorrelatesStreams) {
  Xoshiro256 a(77);
  Xoshiro256 b(77);
  b.jump();
  int same = 0;
  for (int i = 0; i < 1'000; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LE(same, 1);
}

TEST(Xoshiro, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Xoshiro256>);
  EXPECT_EQ(Xoshiro256::min(), 0u);
  EXPECT_EQ(Xoshiro256::max(), ~uint64_t{0});
}

// ---------------------------------------------------------- permutations ---

TEST(Permutation, RandomPermutationIsValid) {
  for (uint64_t n : {0ull, 1ull, 2ull, 100ull, 10'000ull}) {
    const std::vector<uint32_t> p = random_permutation(n, 42);
    EXPECT_EQ(p.size(), n);
    EXPECT_TRUE(is_valid_permutation(p)) << "n=" << n;
  }
}

TEST(Permutation, DeterministicInSeed) {
  EXPECT_EQ(random_permutation(5'000, 7), random_permutation(5'000, 7));
}

TEST(Permutation, SeedsDiffer) {
  EXPECT_NE(random_permutation(5'000, 7), random_permutation(5'000, 8));
}

TEST(Permutation, IndependentOfWorkerCount) {
  // The determinism guarantee the whole library rests on: pi is a pure
  // function of (n, seed), never of scheduling.
  std::vector<uint32_t> serial;
  {
    ScopedNumWorkers guard(1);
    serial = random_permutation(100'000, 3);
  }
  for (int workers : {2, 4, 8}) {
    ScopedNumWorkers guard(workers);
    EXPECT_EQ(random_permutation(100'000, 3), serial)
        << "workers=" << workers;
  }
}

TEST(Permutation, PositionMeansAreUniform) {
  // If the permutation is uniform, E[position of element v] = (n-1)/2 for
  // every v. Average over many seeds and check a generous tolerance.
  const uint64_t n = 101;
  const int trials = 400;
  std::vector<double> mean_pos(n, 0.0);
  for (int t = 0; t < trials; ++t) {
    const std::vector<uint32_t> p =
        random_permutation(n, static_cast<uint64_t>(t));
    for (uint64_t i = 0; i < n; ++i)
      mean_pos[p[i]] += static_cast<double>(i) / trials;
  }
  const double expect = (static_cast<double>(n) - 1) / 2;
  // Std-dev of a single position is ~n/sqrt(12); of the mean, /sqrt(trials).
  const double tol = 5.0 * (static_cast<double>(n) / std::sqrt(12.0)) /
                     std::sqrt(static_cast<double>(trials));
  for (uint64_t v = 0; v < n; ++v)
    EXPECT_NEAR(mean_pos[v], expect, tol) << "v=" << v;
}

TEST(Permutation, FisherYatesIsValid) {
  Xoshiro256 rng(11);
  const std::vector<uint32_t> p = fisher_yates_permutation(10'000, rng);
  EXPECT_TRUE(is_valid_permutation(p));
}

TEST(Permutation, FisherYatesSmallCasesExhaustive) {
  // n = 3 has 6 permutations; all should appear over many trials with
  // roughly equal frequency (sanity-check of the shuffle's uniformity).
  std::map<std::vector<uint32_t>, int> counts;
  Xoshiro256 rng(13);
  const int trials = 6'000;
  for (int t = 0; t < trials; ++t) counts[fisher_yates_permutation(3, rng)]++;
  EXPECT_EQ(counts.size(), 6u);
  for (const auto& [perm, count] : counts) {
    EXPECT_GT(count, trials / 6 - trials / 12);
    EXPECT_LT(count, trials / 6 + trials / 12);
  }
}

TEST(Permutation, InvertRoundTrips) {
  const std::vector<uint32_t> p = random_permutation(5'000, 21);
  const std::vector<uint32_t> r = invert_permutation(p);
  ASSERT_EQ(r.size(), p.size());
  for (uint32_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(r[p[i]], i);
    EXPECT_EQ(p[r[i]], i);
  }
}

TEST(Permutation, ValidationRejectsBadInputs) {
  EXPECT_TRUE(is_valid_permutation(std::vector<uint32_t>{}));
  EXPECT_TRUE(is_valid_permutation(std::vector<uint32_t>{0}));
  EXPECT_FALSE(is_valid_permutation(std::vector<uint32_t>{1}));       // range
  EXPECT_FALSE(is_valid_permutation(std::vector<uint32_t>{0, 0}));    // dup
  EXPECT_FALSE(is_valid_permutation(std::vector<uint32_t>{2, 0, 2})); // both
  EXPECT_TRUE(is_valid_permutation(std::vector<uint32_t>{2, 0, 1}));
}

// sort_ids_by_key (parallel/radix_sort.hpp), the sorter behind every
// priority order, against std::sort on a single-word key with ties.
TEST(Permutation, ParallelSortByKeyMatchesStdSort) {
  ScopedNumWorkers guard(4);
  const uint64_t n = 200'000;  // above the parallel-sort threshold
  std::vector<uint64_t> keys(n);
  for (uint64_t i = 0; i < n; ++i) keys[i] = hash64(31, i) % 1'000;  // ties
  std::vector<uint32_t> expect(n);
  for (uint32_t i = 0; i < n; ++i) expect[i] = i;
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

}  // namespace
}  // namespace pargreedy
