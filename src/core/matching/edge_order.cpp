#include "core/matching/edge_order.hpp"

#include "parallel/parallel_for.hpp"
#include "random/permutation.hpp"
#include "support/check.hpp"

namespace pargreedy {

EdgeOrder EdgeOrder::random(uint64_t m, uint64_t seed) {
  EdgeOrder o;
  o.order_.resize(m);
  o.rank_.resize(m);
  random_permutation_and_ranks(seed, o.order_, o.rank_);
  return o;
}

EdgeOrder EdgeOrder::identity(uint64_t m) {
  EdgeOrder o;
  o.order_.resize(m);
  o.rank_.resize(m);
  parallel_for(0, static_cast<int64_t>(m), [&](int64_t i) {
    o.order_[static_cast<std::size_t>(i)] = static_cast<EdgeId>(i);
    o.rank_[static_cast<std::size_t>(i)] = static_cast<uint32_t>(i);
  });
  return o;
}

EdgeOrder EdgeOrder::from_permutation(std::vector<EdgeId> order) {
  PG_CHECK_MSG(is_valid_permutation(order),
               "from_permutation requires a permutation of 0..m-1");
  EdgeOrder o;
  o.order_ = std::move(order);
  o.rank_ = invert_permutation(o.order_);
  return o;
}

EdgeOrder EdgeOrder::from_permutation(std::vector<EdgeId> order,
                                      std::vector<uint32_t> rank) {
  PG_CHECK_MSG(is_inverse_permutation(order, rank),
               "from_permutation requires a permutation of 0..m-1 and "
               "its inverse");
  EdgeOrder o;
  o.order_ = std::move(order);
  o.rank_ = std::move(rank);
  return o;
}

}  // namespace pargreedy
