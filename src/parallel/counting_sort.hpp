// Parallel stable counting sort by small integer keys.
//
// Used by the CSR builder (bucket edges by endpoint), by EdgeList
// normalization, and by the radix sorter behind every priority order
// (radix_sort.hpp), whose split passes scatter ids by one key digit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "support/check.hpp"

namespace pargreedy {

/// Stable-sorts the sequence at(0), ..., at(n - 1), n = out.size(), into
/// `out` by key(at(i)) in [0, num_buckets). The input is read through
/// `at` and never stored, so it may be computed (the radix sorter's first
/// pass scatters the ids 0..n-1 this way). Returns the bucket boundaries:
/// offsets[b] is the first index of bucket b in `out`, with
/// offsets[num_buckets] == n. at(i) and key are each evaluated twice per
/// element and must return the same values both times.
///
/// Parallel over blocks of the input with per-block histograms; the scatter
/// order within a bucket follows (block, position) order, which preserves
/// input order — i.e. the sort is stable.
template <typename T, typename At, typename Key>
std::vector<int64_t> counting_sort_indexed(std::span<T> out,
                                           int64_t num_buckets, At&& at,
                                           Key&& key) {
  const int64_t n = static_cast<int64_t>(out.size());
  PG_CHECK(num_buckets >= 1);

  if (n < 4 * kDefaultGrain || num_workers() == 1 || in_parallel()) {
    std::vector<int64_t> count(static_cast<std::size_t>(num_buckets + 1), 0);
    for (int64_t i = 0; i < n; ++i) {
      const int64_t b = key(at(i));
      PG_DCHECK(b >= 0 && b < num_buckets);
      ++count[static_cast<std::size_t>(b) + 1];
    }
    for (int64_t b = 0; b < num_buckets; ++b)
      count[static_cast<std::size_t>(b) + 1] +=
          count[static_cast<std::size_t>(b)];
    std::vector<int64_t> cursor(count.begin(), count.end() - 1);
    for (int64_t i = 0; i < n; ++i) {
      decltype(auto) v = at(i);
      out[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(key(v))]++)] = v;
    }
    return count;
  }

  const int64_t blocks = parallel_block_count(n);
  // hist[block * num_buckets + bucket]
  std::vector<int64_t> hist(
      static_cast<std::size_t>(blocks * num_buckets), 0);
  parallel_blocks(n, [&](int64_t b, int64_t lo, int64_t hi) {
    int64_t* h = hist.data() + b * num_buckets;
    for (int64_t i = lo; i < hi; ++i) {
      const int64_t k = key(at(i));
      PG_DCHECK(k >= 0 && k < num_buckets);
      ++h[k];
    }
  });
  // Column-major exclusive scan: for each bucket, across blocks in order.
  // Sequential over num_buckets * blocks cells; fine because blocks is small.
  std::vector<int64_t> offsets(static_cast<std::size_t>(num_buckets + 1), 0);
  int64_t running = 0;
  for (int64_t k = 0; k < num_buckets; ++k) {
    offsets[static_cast<std::size_t>(k)] = running;
    for (int64_t b = 0; b < blocks; ++b) {
      int64_t& cell = hist[static_cast<std::size_t>(b * num_buckets + k)];
      const int64_t c = cell;
      cell = running;
      running += c;
    }
  }
  offsets[static_cast<std::size_t>(num_buckets)] = running;
  PG_CHECK(running == n);
  parallel_blocks(n, [&](int64_t b, int64_t lo, int64_t hi) {
    int64_t* cursor = hist.data() + b * num_buckets;
    for (int64_t i = lo; i < hi; ++i) {
      decltype(auto) v = at(i);
      out[static_cast<std::size_t>(cursor[key(v)]++)] = v;
    }
  });
  return offsets;
}

/// Stable-sorts `in` into `out` by key(in[i]) in [0, num_buckets).
/// Returns the bucket boundaries: offsets[b] is the first index of bucket b
/// in `out`, with offsets[num_buckets] == in.size().
template <typename T, typename Key>
std::vector<int64_t> counting_sort(std::span<const T> in, std::span<T> out,
                                   int64_t num_buckets, Key&& key) {
  PG_CHECK(out.size() == in.size());
  return counting_sort_indexed(
      out, num_buckets,
      [&](int64_t i) -> const T& { return in[static_cast<std::size_t>(i)]; },
      key);
}

}  // namespace pargreedy
