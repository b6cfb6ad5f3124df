// EdgeOrder: the total ordering pi on *edges* that defines the greedy
// maximal matching (Section 5). Mirror image of VertexOrder.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace pargreedy {

class EdgeOrder {
 public:
  EdgeOrder() = default;

  /// Uniformly random ordering of m edges, deterministic in (m, seed).
  static EdgeOrder random(uint64_t m, uint64_t seed);

  /// Identity ordering: edges by their canonical (u, v) id.
  static EdgeOrder identity(uint64_t m);

  /// Wraps an explicit permutation of 0..m-1; validated.
  static EdgeOrder from_permutation(std::vector<EdgeId> order);

  /// Wraps a permutation together with its inverse (rank[order[i]] == i),
  /// as the priority sorter writes them; validated, in parallel.
  static EdgeOrder from_permutation(std::vector<EdgeId> order,
                                    std::vector<uint32_t> rank);

  [[nodiscard]] uint64_t size() const { return order_.size(); }

  /// The i-th edge in priority order.
  [[nodiscard]] EdgeId nth(uint64_t i) const { return order_[i]; }

  /// Position of edge e; lower = earlier = higher priority.
  [[nodiscard]] uint32_t rank(EdgeId e) const { return rank_[e]; }

  /// True iff e comes before f.
  [[nodiscard]] bool earlier(EdgeId e, EdgeId f) const {
    return rank_[e] < rank_[f];
  }

  [[nodiscard]] std::span<const EdgeId> order() const { return order_; }
  [[nodiscard]] std::span<const uint32_t> ranks() const { return rank_; }

 private:
  std::vector<EdgeId> order_;
  std::vector<uint32_t> rank_;
};

}  // namespace pargreedy
