#include "core/priority/priority_source.hpp"

#include <bit>
#include <cmath>
#include <span>
#include <utility>

#include "parallel/parallel_for.hpp"
#include "parallel/radix_sort.hpp"
#include "random/hash.hpp"
#include "support/check.hpp"

namespace pargreedy {

const char* priority_policy_name(PriorityPolicy policy) {
  switch (policy) {
    case PriorityPolicy::kRandomHash:
      return "random_hash";
    case PriorityPolicy::kVertexWeight:
      return "vertex_weight";
    case PriorityPolicy::kEdgeWeight:
      return "edge_weight";
    case PriorityPolicy::kWeightHashTiebreak:
      return "weight_hash_tiebreak";
  }
  return "unknown";
}

uint64_t descending_weight_bits(Weight w) {
  PG_CHECK_MSG(!std::isnan(w), "priority weights must not be NaN");
  if (w == 0.0) w = 0.0;  // collapse -0.0 onto +0.0: equal weights, one key
  // Standard total-order trick: flipping the sign bit of non-negatives and
  // all bits of negatives makes the uint64 image ascend with the double;
  // the final complement reverses it so larger weights sort first.
  uint64_t bits = std::bit_cast<uint64_t>(w);
  constexpr uint64_t kSignBit = uint64_t{1} << 63;
  bits = (bits & kSignBit) ? ~bits : bits | kSignBit;
  return ~bits;
}

uint64_t edge_pair_key(const Edge& e) {
  return (static_cast<uint64_t>(e.u) << 32) | e.v;
}

PrioritySource PrioritySource::random_hash(uint64_t seed) {
  return PrioritySource(PriorityPolicy::kRandomHash, seed);
}

PrioritySource PrioritySource::vertex_weight() {
  return PrioritySource(PriorityPolicy::kVertexWeight, 0);
}

PrioritySource PrioritySource::edge_weight() {
  return PrioritySource(PriorityPolicy::kEdgeWeight, 0);
}

PrioritySource PrioritySource::weight_hash_tiebreak(uint64_t seed) {
  return PrioritySource(PriorityPolicy::kWeightHashTiebreak, seed);
}

PriorityKey PrioritySource::vertex_key(VertexId v, Weight w) const {
  switch (policy_) {
    case PriorityPolicy::kRandomHash:
      return {hash64(seed_, v), 0};
    case PriorityPolicy::kVertexWeight:
      return {descending_weight_bits(w), 0};
    case PriorityPolicy::kWeightHashTiebreak:
      return {descending_weight_bits(w), hash64(seed_, v)};
    case PriorityPolicy::kEdgeWeight:
      break;
  }
  PG_CHECK_MSG(false, "edge_weight policy has no vertex priorities");
}

PriorityKey PrioritySource::edge_key(const Edge& e, Weight w) const {
  switch (policy_) {
    case PriorityPolicy::kRandomHash:
      return {hash64(seed_, edge_pair_key(e)), 0};
    case PriorityPolicy::kEdgeWeight:
      return {descending_weight_bits(w), 0};
    case PriorityPolicy::kWeightHashTiebreak:
      return {descending_weight_bits(w), hash64(seed_, edge_pair_key(e))};
    case PriorityPolicy::kVertexWeight:
      break;
  }
  PG_CHECK_MSG(false, "vertex_weight policy has no edge priorities");
}

namespace {

/// Ids 0..count-1 in (key_of(id), id) order, the order every policy
/// defines, built with its ranks by the radix sorter in one pass.
template <typename Order, typename KeyOf>
Order sorted_order(uint64_t count, const KeyOf& key_of) {
  std::vector<uint32_t> order(count);
  std::vector<uint32_t> rank(count);
  sort_ids_by_key(order, rank, [&](uint32_t id) {
    const PriorityKey k = key_of(id);
    return SortKey{k.primary, k.secondary};
  });
  return Order::from_permutation(std::move(order), std::move(rank));
}

}  // namespace

VertexOrder PrioritySource::vertex_order(const CsrGraph& g) const {
  const uint64_t n = g.num_vertices();
  // The hash policy reuses VertexOrder::random — same (hash, id) sort, and
  // keeping one code path guarantees the engines' historical orders.
  if (policy_ == PriorityPolicy::kRandomHash)
    return VertexOrder::random(n, seed_);
  const std::span<const Weight> weights = g.vertex_weights();
  // Checked here, not by the first key inside a parallel sorting pass.
  PG_CHECK_MSG(policy_ != PriorityPolicy::kEdgeWeight,
               "edge_weight policy has no vertex priorities");
  return sorted_order<VertexOrder>(n, [&](uint32_t v) {
    return vertex_key(v, weights.empty() ? kDefaultWeight : weights[v]);
  });
}

EdgeOrder PrioritySource::edge_order(const CsrGraph& g) const {
  PG_CHECK_MSG(policy_ != PriorityPolicy::kVertexWeight,
               "vertex_weight policy has no edge priorities");
  // CSR edge ids ascend with the canonical (u, v) key, so the sorter's id
  // tie-break is exactly the engines' edge-key tie-break.
  return sorted_order<EdgeOrder>(g.num_edges(), [&](uint32_t e) {
    return edge_key(g.edge(e), g.edge_weight(e));
  });
}

std::vector<Weight> random_weights(uint64_t count, uint64_t seed, Weight lo,
                                   Weight hi) {
  PG_CHECK_MSG(std::isfinite(lo) && std::isfinite(hi) && lo < hi,
               "random_weights requires finite lo < hi");
  std::vector<Weight> out(count);
  parallel_for(0, static_cast<int64_t>(count), [&](int64_t i) {
    out[static_cast<std::size_t>(i)] =
        lo + (hi - lo) * hash_unit(seed, static_cast<uint64_t>(i));
  });
  return out;
}

std::vector<Weight> quantized_weights(uint64_t count, uint64_t seed,
                                      uint64_t levels) {
  PG_CHECK_MSG(levels >= 1, "quantized_weights requires levels >= 1");
  std::vector<Weight> out(count);
  parallel_for(0, static_cast<int64_t>(count), [&](int64_t i) {
    out[static_cast<std::size_t>(i)] = static_cast<Weight>(
        1 + hash_range(seed, static_cast<uint64_t>(i), levels));
  });
  return out;
}

}  // namespace pargreedy
