// Stable radix sort of ids by a two-word key: the one sorter behind every
// priority order (random_permutation, VertexOrder::random,
// EdgeOrder::random and PrioritySource::vertex_order/edge_order).
//
// sort_ids_by_key(order, rank, key) writes the ids 0..n-1 into `order` in
// (key(id), id) order and, when `rank` is non-empty, each id's position
// into rank[id]. It works most significant digit first:
//
//   split   a counting-sort pass (counting_sort.hpp) scatters 4-byte ids
//           by one digit of the key. The digit is the top bits of the
//           segment's key range, in the high word while high words differ
//           and in the low word after, so one rule serves uniform hashes,
//           a few weight classes, a single class and continuous weights.
//           The scatter is stable and ids enter it ascending, so a
//           segment whose keys are all equal is already in (key, id)
//           order and needs only its ranks.
//   finish  a segment of at most kLeafSize ids is loaded into a
//           cache-sized buffer of (key, id) records, sorted there (one
//           more digit, then insertion sort within each digit's run) and
//           written back as ids and ranks in the same pass.
//
// The whole range is split in parallel, and so is every bucket larger
// than a worker's share; the other buckets are finished, and split again
// if needed, by a dynamically scheduled bucket loop, so uneven buckets do
// not serialize. Scratch is per call and sized to a bucket, never to n.
// Keys are recomputed in every pass instead of stored, because a key
// array would be the largest allocation of the sort: key(id) must be a
// cheap pure function, and it must not throw from a parallel pass.
//
// Like the other primitives it runs serially inside a parallel region or
// at one worker, and its result is the unique (key, id) order whatever the
// worker count.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "parallel/arch.hpp"
#include "parallel/counting_sort.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "support/check.hpp"

namespace pargreedy {

/// A two-word sort key, compared lexicographically, `hi` first.
struct SortKey {
  uint64_t hi = 0;
  uint64_t lo = 0;
};

namespace radix_detail {

/// Largest segment finished in one record buffer: it and its scratch twin
/// take 2 x 2^15 x 24 B = 1.5 MB at most, sized to stay in a core's L2.
inline constexpr int64_t kLeafSize = int64_t{1} << 15;
/// A split aims at about this many ids per bucket...
inline constexpr int64_t kBucketTarget = 512;
/// ...with at most 2^11 buckets, so one scatter pass writes to few
/// enough places at once to stay within the TLB; an in-buffer digit may
/// take one bit more.
inline constexpr int kMaxSplitBits = 11;
/// Digit runs of at most this many records are finished by insertion sort.
inline constexpr std::size_t kInsertionMax = 16;

struct KeyedId {
  SortKey key;
  uint32_t id = 0;
};

inline bool operator<(const KeyedId& a, const KeyedId& b) {
  if (a.key.hi != b.key.hi) return a.key.hi < b.key.hi;
  if (a.key.lo != b.key.lo) return a.key.lo < b.key.lo;
  return a.id < b.id;
}

/// Smallest and largest value of each key word over a set of keys.
struct KeyBounds {
  uint64_t min_hi = UINT64_MAX;
  uint64_t max_hi = 0;
  uint64_t min_lo = UINT64_MAX;
  uint64_t max_lo = 0;

  void add(const SortKey& k) {
    min_hi = std::min(min_hi, k.hi);
    max_hi = std::max(max_hi, k.hi);
    min_lo = std::min(min_lo, k.lo);
    max_lo = std::max(max_lo, k.lo);
  }
  static KeyBounds merge(KeyBounds a, const KeyBounds& b) {
    a.min_hi = std::min(a.min_hi, b.min_hi);
    a.max_hi = std::max(a.max_hi, b.max_hi);
    a.min_lo = std::min(a.min_lo, b.min_lo);
    a.max_lo = std::max(a.max_lo, b.max_lo);
    return a;
  }
};

/// One radix digit: the top bits of (word - base) for the key word where
/// the bounded keys still differ. Non-decreasing in (hi, lo) over keys
/// within the bounds, and below `buckets`.
struct Digit {
  bool hi_word = true;
  uint64_t base = 0;
  int shift = 0;
  int64_t buckets = 1;

  int64_t operator()(const SortKey& k) const {
    return static_cast<int64_t>(((hi_word ? k.hi : k.lo) - base) >> shift);
  }
};

/// The digit of at most `bits` bits over `b`, or nullopt when every key
/// within the bounds is equal. High words that differ decide first; the
/// low word decides only among keys sharing one high word.
inline std::optional<Digit> digit_over(const KeyBounds& b, int bits) {
  Digit d;
  uint64_t range = 0;
  if (b.min_hi != b.max_hi) {
    d.base = b.min_hi;
    range = b.max_hi - b.min_hi;
  } else if (b.min_lo != b.max_lo) {
    d.hi_word = false;
    d.base = b.min_lo;
    range = b.max_lo - b.min_lo;
  } else {
    return std::nullopt;
  }
  const int width = static_cast<int>(std::bit_width(range));
  d.shift = width > bits ? width - bits : 0;
  d.buckets = static_cast<int64_t>(range >> d.shift) + 1;
  return d;
}

/// Insertion sort by (key, id): linear on the nearly sorted runs a digit
/// pass leaves behind.
inline void insertion_sort(std::span<KeyedId> recs) {
  for (std::size_t i = 1; i < recs.size(); ++i) {
    const KeyedId r = recs[i];
    std::size_t j = i;
    for (; j > 0 && r < recs[j - 1]; --j) recs[j] = recs[j - 1];
    recs[j] = r;
  }
}

/// Sorts the records of `a` by (key, id), using `b` (same size) as
/// scratch, and returns whichever of the two holds the result. Among
/// equal keys ids must ascend on entry, as the stable scatters leave them.
inline std::span<KeyedId> sort_records(std::span<KeyedId> a,
                                       std::span<KeyedId> b) {
  const std::size_t s = a.size();
  if (s <= kInsertionMax) {
    insertion_sort(a);
    return a;
  }
  KeyBounds bounds;
  for (const KeyedId& r : a) bounds.add(r.key);
  // Up to two buckets per record, so most runs hold one record.
  const std::optional<Digit> digit = digit_over(
      bounds, std::min(static_cast<int>(std::bit_width(s)), kMaxSplitBits + 1));
  if (!digit) return a;
  std::vector<uint32_t> end(static_cast<std::size_t>(digit->buckets) + 1, 0);
  for (const KeyedId& r : a)
    ++end[static_cast<std::size_t>((*digit)(r.key)) + 1];
  uint32_t longest = 0;
  for (std::size_t d = 1; d < end.size(); ++d) {
    longest = std::max(longest, end[d]);
    end[d] += end[d - 1];
  }
  for (const KeyedId& r : a)
    b[end[static_cast<std::size_t>((*digit)(r.key))]++] = r;
  // end[d] is now the end of digit d's run. A record is out of place only
  // within its run, so with short runs one insertion pass finishes.
  if (longest <= kInsertionMax) {
    insertion_sort(b);
    return b;
  }
  std::size_t lo = 0;
  for (std::size_t d = 0; d + 1 < end.size(); ++d) {
    const std::size_t hi = end[d];
    if (hi - lo > 1) {
      const std::span<KeyedId> run = b.subspan(lo, hi - lo);
      const std::span<KeyedId> sorted =
          sort_records(run, a.subspan(lo, hi - lo));
      if (sorted.data() != run.data())
        std::copy(sorted.begin(), sorted.end(), run.begin());
    }
    lo = hi;
  }
  return b;
}

/// A bucket of the output still to be sorted: order[lo, hi).
struct Segment {
  int64_t lo = 0;
  int64_t hi = 0;
};

template <typename KeyFn>
class RadixSorter {
 public:
  RadixSorter(std::span<uint32_t> order, std::span<uint32_t> rank,
              const KeyFn& key)
      : order_(order), rank_(rank), key_(key) {}

  void run() {
    const int64_t n = static_cast<int64_t>(order_.size());
    if (n <= kLeafSize) {
      for (int64_t i = 0; i < n; ++i)
        order_[pos(i)] = static_cast<uint32_t>(i);
      std::vector<KeyedId> buf;
      finish({0, n}, buf);
      return;
    }
    // Buckets above a worker's share get a parallel split of their own;
    // the rest go to the bucket loop.
    const bool parallel = num_workers() > 1 && !in_parallel();
    const int64_t share =
        parallel ? std::max(kLeafSize, n / (2 * num_workers())) : n;
    std::vector<Segment> loop;
    std::vector<Segment> large;
    const auto route = [&](int64_t base, const std::vector<int64_t>& offsets) {
      for (std::size_t b = 0; b + 1 < offsets.size(); ++b) {
        const Segment s{base + offsets[b], base + offsets[b + 1]};
        if (s.hi - s.lo > share) {
          large.push_back(s);
        } else if (s.hi > s.lo) {
          loop.push_back(s);
        }
      }
    };
    route(0, split_all());
    while (!large.empty()) {
      const Segment s = large.back();
      large.pop_back();
      route(s.lo, split(s));
    }
    for_each_segment(loop);
  }

 private:
  static std::size_t pos(int64_t i) { return static_cast<std::size_t>(i); }

  /// Splits the whole id range, reading the ids 0..n-1 as indices rather
  /// than from memory. Returns the bucket starts (buckets + 1 entries), or
  /// no buckets when every key is equal (order and ranks then hold the
  /// identity, which is the answer).
  std::vector<int64_t> split_all() {
    const int64_t n = static_cast<int64_t>(order_.size());
    const auto id = [](int64_t i) { return static_cast<uint32_t>(i); };
    const std::optional<Digit> digit = digit_over(bounds(n, id), bits(n));
    if (!digit) {
      parallel_for(0, n, [&](int64_t i) {
        order_[pos(i)] = id(i);
        if (!rank_.empty()) rank_[pos(i)] = id(i);
      });
      return {};
    }
    return counting_sort_indexed(order_, digit->buckets, id,
                                 [&](uint32_t v) { return (*digit)(key_(v)); });
  }

  /// Splits order[s.lo, s.hi) in place; returns its bucket starts relative
  /// to s.lo, or no buckets when its keys are all equal (it is then
  /// finished, ranks included).
  std::vector<int64_t> split(Segment s) {
    const int64_t size = s.hi - s.lo;
    const std::span<uint32_t> ids = order_.subspan(pos(s.lo), pos(size));
    const auto id = [&](int64_t j) { return ids[pos(j)]; };
    const std::optional<Digit> digit = digit_over(bounds(size, id), bits(size));
    if (!digit) {
      write_ranks(s);
      return {};
    }
    const std::vector<uint32_t> scratch(ids.begin(), ids.end());
    return counting_sort(std::span<const uint32_t>(scratch), ids,
                         digit->buckets,
                         [&](uint32_t v) { return (*digit)(key_(v)); });
  }

  template <typename Id>
  KeyBounds bounds(int64_t size, const Id& id) const {
    return parallel_reduce<KeyBounds>(
        0, size, KeyBounds{},
        [&](int64_t j) {
          KeyBounds b;
          b.add(key_(id(j)));
          return b;
        },
        [](const KeyBounds& a, const KeyBounds& b) {
          return KeyBounds::merge(a, b);
        });
  }

  static int bits(int64_t size) {
    const int width = static_cast<int>(
        std::bit_width(static_cast<uint64_t>(size / kBucketTarget)));
    return std::clamp(width, 1, kMaxSplitBits);
  }

  void write_ranks(Segment s) {
    if (rank_.empty()) return;
    parallel_for(s.lo, s.hi, [&](int64_t i) {
      rank_[order_[pos(i)]] = static_cast<uint32_t>(i);
    });
  }

  /// Sorts order[s.lo, s.hi) serially: in the record buffer `buf`, grown
  /// to twice the segment, when it fits, else by splitting it first.
  void finish(Segment s, std::vector<KeyedId>& buf) {
    const std::size_t size = pos(s.hi - s.lo);
    if (size > pos(kLeafSize)) {
      const std::vector<int64_t> offsets = split(s);
      for (std::size_t b = 0; b + 1 < offsets.size(); ++b)
        if (offsets[b + 1] > offsets[b])
          finish({s.lo + offsets[b], s.lo + offsets[b + 1]}, buf);
      return;
    }
    if (buf.size() < 2 * size) buf.resize(2 * size);
    const std::span<KeyedId> recs(buf.data(), size);
    const std::span<uint32_t> ids = order_.subspan(pos(s.lo), size);
    for (std::size_t j = 0; j < size; ++j) {
      recs[j] = {key_(ids[j]), ids[j]};
      // The rank writes below land all over `rank`: start fetching the
      // lines now, so the sort hides the misses.
      if (!rank_.empty()) __builtin_prefetch(&rank_[ids[j]], 1);
    }
    const std::span<const KeyedId> sorted =
        sort_records(recs, {buf.data() + size, size});
    for (std::size_t j = 0; j < size; ++j) {
      ids[j] = sorted[j].id;
      if (!rank_.empty())
        rank_[sorted[j].id] = static_cast<uint32_t>(pos(s.lo) + j);
    }
  }

  /// The bucket loop: finish() on every segment, dynamically scheduled
  /// because bucket sizes are uneven, with one record buffer per worker
  /// that lives for this call only.
  void for_each_segment(const std::vector<Segment>& segments) {
#if defined(_OPENMP)
    const int64_t count = static_cast<int64_t>(segments.size());
    if (count > 1 && num_workers() > 1 && !in_parallel()) {
#pragma omp parallel
      {
        std::vector<KeyedId> buf;
#pragma omp for schedule(dynamic, 1)
        for (int64_t i = 0; i < count; ++i) finish(segments[pos(i)], buf);
      }
      return;
    }
#endif
    std::vector<KeyedId> buf;
    for (const Segment& s : segments) finish(s, buf);
  }

  std::span<uint32_t> order_;
  std::span<uint32_t> rank_;
  const KeyFn& key_;
};

}  // namespace radix_detail

/// Writes the ids 0..order.size()-1 into `order` sorted by (key(id), id),
/// SortKeys compared hi word first, and rank[order[i]] = i into `rank`
/// unless it is empty. key(id) returns a SortKey; it is called a few
/// times per id, must return the same key every time, and must not throw
/// when the sort runs in parallel. Deterministic: the result is the one
/// (key, id) order for any worker count.
template <typename KeyFn>
void sort_ids_by_key(std::span<uint32_t> order, std::span<uint32_t> rank,
                     const KeyFn& key) {
  PG_CHECK_MSG(rank.empty() || rank.size() == order.size(),
               "rank must be empty or as long as order");
  PG_CHECK_MSG(order.size() <= (uint64_t{1} << 32),
               "ids must fit in 32 bits");
  radix_detail::RadixSorter<KeyFn>(order, rank, key).run();
}

}  // namespace pargreedy
