// Random permutations — the ordering pi that the paper's guarantees range
// over ("for a random ordering of the vertices, the dependence length ... is
// polylogarithmic").
//
// random_permutation() is deterministic in (n, seed) and independent of the
// worker count: every element gets a 64-bit counter-based hash key and the
// elements are sorted by (key, index) with the radix sorter of
// parallel/radix_sort.hpp. This is how a fixed pi is shared between the
// sequential and parallel algorithms so they return identical results.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "random/xoshiro.hpp"

namespace pargreedy {

/// Uniformly random permutation of [0, n), deterministic in (n, seed).
std::vector<uint32_t> random_permutation(uint64_t n, uint64_t seed);

/// Writes random_permutation(perm.size(), seed) into `perm` and, in the
/// same sorting pass, its inverse into `rank` (rank[perm[i]] == i; the
/// spans have equal length).
void random_permutation_and_ranks(uint64_t seed, std::span<uint32_t> perm,
                                  std::span<uint32_t> rank);

/// Sequential Fisher–Yates shuffle of [0, n) driven by `rng`. Reference
/// implementation used to cross-check random_permutation's uniformity.
std::vector<uint32_t> fisher_yates_permutation(uint64_t n, Xoshiro256& rng);

/// Inverse of a permutation: rank[perm[i]] = i. Parallel, linear work.
std::vector<uint32_t> invert_permutation(std::span<const uint32_t> perm);

/// True iff `perm` is a permutation of 0..n-1.
bool is_valid_permutation(std::span<const uint32_t> perm);

/// True iff `rank` has perm's length, every perm[i] is below it, and
/// rank[perm[i]] == i for every i — which makes `perm` a permutation of
/// 0..n-1 and `rank` its inverse. Parallel, linear work.
bool is_inverse_permutation(std::span<const uint32_t> perm,
                            std::span<const uint32_t> rank);

}  // namespace pargreedy
