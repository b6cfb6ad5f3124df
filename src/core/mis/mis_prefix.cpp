// Algorithm 3: prefix-based ("deterministic reservations") MIS — the
// implementation used for the paper's experiments (Section 6).
//
// The step below runs on speculative_for, which keeps the prefix_size
// earliest unresolved vertices of the ordering in a window. Each round runs
// its two phases over the window:
//
//   reserve (join):  a vertex whose earlier neighbors are all Out joins the
//                    MIS — it is a root of the remaining priority DAG;
//   commit (kill):   a vertex that now sees an earlier In neighbor becomes
//                    Out — it is a child of a new root.
//
// Because each round decides exactly what one step of Algorithm 2 decides
// on the window, the round count is a pure function of
// (graph, order, prefix_size) — never of the worker count — which is what
// makes the rounds-vs-prefix-size series of Figure 1(b) reproducible. With
// prefix_size = 1 every round resolves one vertex (the sequential
// algorithm, rounds = n, work = m); with prefix_size = n the round count
// equals the dependence length of the priority DAG.
//
// The step sees a vertex's position i in the ordering, which is its rank,
// so "w is earlier" is rank[w] < i. When the ordering is the identity (the
// pre-permuted-graph setup of the paper's PBBS implementation, see
// relabel_by_rank) it is the plain id comparison w < i, with no rank-array
// load — the identity fast path. Both paths run the same rounds, so
// profiles and results are identical.
//
// Status reads race benignly with same-phase writes: the join phase only
// writes kIn, and reading a fresh kIn instead of kUndecided flips the same
// all-out test the same way; the kill phase only writes kOut after the join
// set is sealed. So the result equals mis_sequential's for any schedule and
// worker count. The paper's grain size of 256 (kDefaultGrain) governs when
// the window loop parallelizes.
#include "core/mis/mis.hpp"
#include "core/speculative_for.hpp"
#include "parallel/atomics.hpp"
#include "support/check.hpp"

namespace pargreedy {

namespace {

/// The join/kill step. `before(w, i)` must return true iff vertex w
/// precedes position i of the ordering.
template <typename Before>
struct MisStep {
  const CsrGraph& g;
  const VertexOrder& order;
  std::vector<uint8_t>& status;
  Before before;

  PhaseResult reserve(int64_t i) {
    const VertexId v = order.nth(static_cast<uint64_t>(i));
    uint64_t scanned = 0;
    for (VertexId w : g.neighbors(v)) {
      if (!before(w, i)) continue;
      ++scanned;
      if (load_status<VStatus>(status, w) != VStatus::kOut)
        return {false, scanned};
    }
    store_status(status, v, VStatus::kIn);
    return {true, scanned};
  }

  PhaseResult commit(int64_t i) {
    const VertexId v = order.nth(static_cast<uint64_t>(i));
    uint64_t scanned = 0;
    for (VertexId w : g.neighbors(v)) {
      if (!before(w, i)) continue;
      ++scanned;
      if (load_status<VStatus>(status, w) == VStatus::kIn) {
        store_status(status, v, VStatus::kOut);
        return {true, scanned};
      }
    }
    return {false, scanned};
  }
};

}  // namespace

MisResult mis_prefix(const CsrGraph& g, const VertexOrder& order,
                     uint64_t prefix_size, ProfileLevel level) {
  const uint64_t n = g.num_vertices();
  PG_CHECK_MSG(order.size() == n, "ordering size != vertex count");
  const int64_t window = clamp_window(prefix_size, n);
  MisResult result;
  result.in_set.assign(n, 0);
  std::vector<uint8_t>& status = result.in_set;

  const auto positions = static_cast<int64_t>(n);
  if (order.is_identity()) {
    MisStep step{g, order, status,
                 [](VertexId w, int64_t i) { return w < i; }};
    result.profile = speculative_for(step, 0, positions, window, level);
  } else {
    const std::span<const uint32_t> rank = order.ranks();
    MisStep step{g, order, status,
                 [rank](VertexId w, int64_t i) { return rank[w] < i; }};
    result.profile = speculative_for(step, 0, positions, window, level);
  }

  collapse_status(status, VStatus::kIn);
  return result;
}

}  // namespace pargreedy
