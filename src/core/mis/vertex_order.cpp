#include "core/mis/vertex_order.hpp"

#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "random/permutation.hpp"
#include "support/check.hpp"

namespace pargreedy {

namespace {

bool permutation_is_identity(std::span<const VertexId> order) {
  return count_if(0, static_cast<int64_t>(order.size()), [&](int64_t i) {
           return order[static_cast<std::size_t>(i)] !=
                  static_cast<VertexId>(i);
         }) == 0;
}

}  // namespace

VertexOrder VertexOrder::random(uint64_t n, uint64_t seed) {
  VertexOrder o;
  o.order_.resize(n);
  o.rank_.resize(n);
  random_permutation_and_ranks(seed, o.order_, o.rank_);
  o.identity_ = permutation_is_identity(o.order_);
  return o;
}

VertexOrder VertexOrder::identity(uint64_t n) {
  VertexOrder o;
  o.order_.resize(n);
  o.rank_.resize(n);
  parallel_for(0, static_cast<int64_t>(n), [&](int64_t i) {
    o.order_[static_cast<std::size_t>(i)] = static_cast<VertexId>(i);
    o.rank_[static_cast<std::size_t>(i)] = static_cast<uint32_t>(i);
  });
  o.identity_ = true;
  return o;
}

VertexOrder VertexOrder::from_permutation(std::vector<VertexId> order) {
  PG_CHECK_MSG(is_valid_permutation(order),
               "from_permutation requires a permutation of 0..n-1");
  VertexOrder o;
  o.order_ = std::move(order);
  o.rank_ = invert_permutation(o.order_);
  o.identity_ = permutation_is_identity(o.order_);
  return o;
}

VertexOrder VertexOrder::from_permutation(std::vector<VertexId> order,
                                          std::vector<uint32_t> rank) {
  PG_CHECK_MSG(is_inverse_permutation(order, rank),
               "from_permutation requires a permutation of 0..n-1 and "
               "its inverse");
  VertexOrder o;
  o.order_ = std::move(order);
  o.rank_ = std::move(rank);
  o.identity_ = permutation_is_identity(o.order_);
  return o;
}

}  // namespace pargreedy
