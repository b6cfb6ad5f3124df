#include "random/permutation.hpp"

#include "parallel/parallel_for.hpp"
#include "parallel/radix_sort.hpp"
#include "parallel/reduce.hpp"
#include "random/hash.hpp"
#include "support/check.hpp"

namespace pargreedy {

namespace {

/// Sort key of element i: its counter-based (seed, i) hash.
auto hash_key(uint64_t seed) {
  return [seed](uint32_t i) { return SortKey{hash64(seed, i), 0}; };
}

}  // namespace

std::vector<uint32_t> random_permutation(uint64_t n, uint64_t seed) {
  std::vector<uint32_t> perm(n);
  sort_ids_by_key(perm, {}, hash_key(seed));
  return perm;
}

void random_permutation_and_ranks(uint64_t seed, std::span<uint32_t> perm,
                                  std::span<uint32_t> rank) {
  PG_CHECK_MSG(rank.size() == perm.size(),
               "rank must be as long as the permutation");
  sort_ids_by_key(perm, rank, hash_key(seed));
}

std::vector<uint32_t> fisher_yates_permutation(uint64_t n, Xoshiro256& rng) {
  std::vector<uint32_t> perm(n);
  for (uint64_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
  for (uint64_t i = n; i > 1; --i) {
    const uint64_t j = rng.range(i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

std::vector<uint32_t> invert_permutation(std::span<const uint32_t> perm) {
  std::vector<uint32_t> rank(perm.size());
  parallel_for(0, static_cast<int64_t>(perm.size()), [&](int64_t i) {
    rank[perm[static_cast<std::size_t>(i)]] = static_cast<uint32_t>(i);
  });
  return rank;
}

bool is_valid_permutation(std::span<const uint32_t> perm) {
  const std::size_t n = perm.size();
  std::vector<uint8_t> seen(n, 0);
  for (uint32_t v : perm) {
    if (v >= n || seen[v]) return false;
    seen[v] = 1;
  }
  return true;
}

bool is_inverse_permutation(std::span<const uint32_t> perm,
                            std::span<const uint32_t> rank) {
  const std::size_t n = perm.size();
  if (rank.size() != n) return false;
  // Injective on [0, n) because rank undoes it, hence a permutation.
  return count_if(0, static_cast<int64_t>(n), [&](int64_t i) {
           const uint32_t v = perm[static_cast<std::size_t>(i)];
           return v >= n || rank[v] != static_cast<uint32_t>(i);
         }) == 0;
}

}  // namespace pargreedy
