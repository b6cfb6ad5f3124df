// VertexOrder: the total ordering pi on vertices that defines the
// lexicographically-first MIS.
//
// Holds both directions of the bijection: order[i] is the i-th vertex by
// priority, and rank[v] is v's position (lower rank = earlier = higher
// priority). Every MIS algorithm in this library takes the *same*
// VertexOrder, which is precisely what makes their results identical.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace pargreedy {

class VertexOrder {
 public:
  VertexOrder() = default;

  /// A uniformly random ordering, deterministic in (n, seed) — the setting
  /// of the paper's main theorem.
  static VertexOrder random(uint64_t n, uint64_t seed);

  /// The identity ordering 0, 1, ..., n-1 (useful for adversarial tests:
  /// on a path graph this ordering has dependence length Theta(n)).
  static VertexOrder identity(uint64_t n);

  /// Wraps an explicit permutation; validated.
  static VertexOrder from_permutation(std::vector<VertexId> order);

  /// Wraps a permutation together with its inverse (rank[order[i]] == i),
  /// as the priority sorter writes them; validated, in parallel.
  static VertexOrder from_permutation(std::vector<VertexId> order,
                                      std::vector<uint32_t> rank);

  [[nodiscard]] uint64_t size() const { return order_.size(); }

  /// The i-th vertex in priority order.
  [[nodiscard]] VertexId nth(uint64_t i) const { return order_[i]; }

  /// Position of vertex v in the ordering; rank(u) < rank(v) means u is
  /// earlier (higher priority).
  [[nodiscard]] uint32_t rank(VertexId v) const { return rank_[v]; }

  /// True iff u comes before v.
  [[nodiscard]] bool earlier(VertexId u, VertexId v) const {
    return rank_[u] < rank_[v];
  }

  [[nodiscard]] std::span<const VertexId> order() const { return order_; }
  [[nodiscard]] std::span<const uint32_t> ranks() const { return rank_; }

  /// True iff this is the identity ordering. Precomputed; algorithms use
  /// it as a fast-path hint (compare ids instead of ranks), which is how
  /// the PBBS implementations run after pre-permuting the input graph.
  [[nodiscard]] bool is_identity() const { return identity_; }

 private:
  std::vector<VertexId> order_;  // order_[i] = i-th vertex
  std::vector<uint32_t> rank_;   // rank_[v]  = position of v
  bool identity_ = false;
};

}  // namespace pargreedy
