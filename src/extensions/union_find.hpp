// Concurrent-read union-find with path halving.
//
// Substrate for the spanning-forest extension. The usage discipline
// matches the forest step's two phases on speculative_for: find() may run
// concurrently with other find()s in the reserve phase (path halving races
// are benign — every write points a node at an ancestor), while link()
// calls in the commit phase must target disjoint root pairs (which the
// reservation protocol guarantees).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "graph/types.hpp"

namespace pargreedy {

class UnionFind {
 public:
  explicit UnionFind(uint64_t n);

  /// Root of v's set, with path halving.
  VertexId find(VertexId v);

  /// Makes `root_child`'s set part of `root_parent`'s. Both arguments must
  /// currently be roots, and concurrent link calls must touch disjoint
  /// root pairs.
  void link(VertexId root_child, VertexId root_parent);

  /// Sequential convenience: unites the sets of a and b; returns true iff
  /// they were previously different.
  bool unite(VertexId a, VertexId b);

  /// True iff a and b are currently in the same set.
  bool same_set(VertexId a, VertexId b);

  /// Number of elements.
  [[nodiscard]] uint64_t size() const { return parent_.size(); }

  /// Number of distinct sets (linear scan; for tests and verification).
  uint64_t count_sets();

 private:
  std::vector<std::atomic<VertexId>> parent_;
};

}  // namespace pargreedy
