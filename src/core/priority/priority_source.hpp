// PrioritySource: the pluggable policy that turns a graph into the total
// priority order pi driving every greedy algorithm in this library.
//
// The paper's central observation is that the greedy solution is fully
// determined by pi — the algorithms, the priority DAG, and the dynamic
// repropagation machinery never care *where* pi came from, only that it is
// a fixed total order. This class is that seam. Four policies:
//
//   kRandomHash           pi is uniformly random, derived from a
//                         counter-based hash of (seed, id) — the setting of
//                         the paper's theorems and the pre-existing default.
//   kVertexWeight         vertices in decreasing weight order: the greedy
//                         weighted MIS (ties broken by id — deterministic
//                         but adversarial on structured inputs).
//   kEdgeWeight           edges in decreasing weight order: the greedy
//                         ("local-max" family, cf. Birn et al.) weighted
//                         matching, ties broken by canonical edge key.
//   kWeightHashTiebreak   decreasing weight, equal weights tied apart by
//                         the (seed, id) hash — the recommended weighted
//                         policy: within every weight class the order is
//                         uniformly random, so the paper's shallow-cone
//                         argument applies inside classes while the greedy
//                         solution respects weights across classes.
//
// A priority is a PriorityKey — a lexicographically compared pair of 64-bit
// words with SMALLER meaning EARLIER (higher priority); consumers append
// the element id / canonical edge key as the final tie-break, which makes
// every policy a total order. Keys are pure functions of
// (policy, seed, id, weight), never of thread count or update history —
// the property the dynamic engines rely on so that a re-inserted edge
// resumes its old rank.
//
// Static algorithms consume a policy via vertex_order()/edge_order(), which
// materialize pi for a concrete graph; the dynamic engines consume
// vertex_key()/edge_key() directly because their edge population changes.
#pragma once

#include <cstdint>
#include <vector>

#include "core/matching/edge_order.hpp"
#include "core/mis/vertex_order.hpp"
#include "graph/csr_graph.hpp"
#include "graph/types.hpp"

namespace pargreedy {

/// Which quantity drives the priority order. See the header comment for
/// the semantics of each policy.
enum class PriorityPolicy : uint8_t {
  kRandomHash = 0,
  kVertexWeight = 1,
  kEdgeWeight = 2,
  kWeightHashTiebreak = 3,
};

/// Human-readable policy name ("random_hash", "vertex_weight", ...).
const char* priority_policy_name(PriorityPolicy policy);

/// A priority value: compared lexicographically, smaller = earlier =
/// higher priority. `secondary` is 0 for single-word policies; consumers
/// must break remaining ties by element id (vertices) or canonical edge
/// key (edges) to obtain a total order.
struct PriorityKey {
  uint64_t primary = 0;
  uint64_t secondary = 0;

  friend bool operator==(const PriorityKey&, const PriorityKey&) = default;
  friend bool operator<(const PriorityKey& a, const PriorityKey& b) {
    return a.primary != b.primary ? a.primary < b.primary
                                  : a.secondary < b.secondary;
  }
};

/// Order-reversing, order-preserving-within-reversal map from a finite
/// weight to a uint64: w1 > w2  <=>  bits(w1) < bits(w2). Higher weight
/// therefore sorts earlier; -0.0 collapses onto +0.0 so equal weights
/// always share one key (a genuine tie). Exposed for tests; rejects NaN.
uint64_t descending_weight_bits(Weight w);

/// The priority policy plus its parameters. Cheap to copy; carries no
/// per-graph state.
class PrioritySource {
 public:
  /// Default-constructed source is random-hash with seed 0.
  PrioritySource() = default;

  /// Uniformly random priorities from (seed, id) hashes — the paper's
  /// setting and the engines' historical behavior.
  static PrioritySource random_hash(uint64_t seed);

  /// Decreasing vertex weight, ties by vertex id. Vertex context only.
  static PrioritySource vertex_weight();

  /// Decreasing edge weight, ties by canonical edge key. Edge context
  /// only.
  static PrioritySource edge_weight();

  /// Decreasing weight (vertex weight in vertex context, edge weight in
  /// edge context), equal weights ordered by the (seed, id) hash. The
  /// recommended weighted policy.
  static PrioritySource weight_hash_tiebreak(uint64_t seed);

  [[nodiscard]] PriorityPolicy policy() const { return policy_; }

  /// The hash seed (meaningful for kRandomHash and kWeightHashTiebreak).
  [[nodiscard]] uint64_t seed() const { return seed_; }

  /// True iff the policy reads weights (everything but kRandomHash).
  [[nodiscard]] bool is_weighted() const {
    return policy_ != PriorityPolicy::kRandomHash;
  }

  /// True iff keys can carry a nonzero secondary word (only
  /// kWeightHashTiebreak does) — lets engines skip storing/comparing the
  /// secondary for single-word policies.
  [[nodiscard]] bool has_secondary_word() const {
    return policy_ == PriorityPolicy::kWeightHashTiebreak;
  }

  /// Priority of vertex v with weight w. Checks the policy is valid in
  /// vertex context (kEdgeWeight is not).
  [[nodiscard]] PriorityKey vertex_key(VertexId v, Weight w) const;

  /// Priority of canonical edge e with weight w. Checks the policy is
  /// valid in edge context (kVertexWeight is not).
  [[nodiscard]] PriorityKey edge_key(const Edge& e, Weight w) const;

  /// Materializes the total vertex order for g (reading g's vertex
  /// weights for the weighted policies). For kRandomHash this is exactly
  /// VertexOrder::random(n, seed).
  [[nodiscard]] VertexOrder vertex_order(const CsrGraph& g) const;

  /// Materializes the total edge order for g (reading g's edge weights
  /// for the weighted policies).
  [[nodiscard]] EdgeOrder edge_order(const CsrGraph& g) const;

 private:
  PrioritySource(PriorityPolicy policy, uint64_t seed)
      : policy_(policy), seed_(seed) {}

  PriorityPolicy policy_ = PriorityPolicy::kRandomHash;
  uint64_t seed_ = 0;
};

/// The canonical 64-bit key of edge {u, v}: (u << 32) | v. Hash input and
/// final tie-breaker of every edge-priority comparison.
uint64_t edge_pair_key(const Edge& e);

/// `count` weights uniform in [lo, hi), deterministic in the seed —
/// ties essentially never occur. For generating weighted workloads.
std::vector<Weight> random_weights(uint64_t count, uint64_t seed,
                                   Weight lo = 0.0, Weight hi = 1.0);

/// `count` weights drawn uniformly from the `levels` values
/// {1, 2, ..., levels}, deterministic in the seed. Coarse levels force
/// equal-weight ties, exercising the tie-break policy.
std::vector<Weight> quantized_weights(uint64_t count, uint64_t seed,
                                      uint64_t levels);

}  // namespace pargreedy
