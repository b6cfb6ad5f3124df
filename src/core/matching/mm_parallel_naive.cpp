// Algorithm 4, step-synchronous: parallel greedy maximal matching.
//
// The step below runs on speculative_for with all m edges in the window.
// Each round mirrors one recursive call: edges with no earlier adjacent
// edge remaining join the matching (reserve); edges that now see an
// adjacent In edge leave (commit). The round count is the dependence length
// of the *edge* priority DAG — the quantity Lemma 5.1 bounds via the
// reduction to MIS on the line graph, without ever building that line
// graph.
#include "core/matching/matching.hpp"
#include "core/speculative_for.hpp"
#include "parallel/atomics.hpp"
#include "support/check.hpp"

namespace pargreedy {

namespace {

struct NaiveMmStep {
  const CsrGraph& g;
  const EdgeOrder& order;
  MatchResult& result;

  /// Calls fn(f) for every edge f sharing an endpoint with e, until fn
  /// returns false; returns false iff it stopped early.
  template <typename Fn>
  bool all_adjacent(EdgeId e, Fn&& fn) const {
    const Edge ed = g.edge(e);
    for (EdgeId f : g.incident_edges(ed.u))
      if (f != e && !fn(f)) return false;
    for (EdgeId f : g.incident_edges(ed.v))
      if (f != e && !fn(f)) return false;
    return true;
  }

  // Join: an edge whose earlier adjacent edges are all Out. Joining edges
  // share no endpoint, so each partner slot has one writer.
  PhaseResult reserve(int64_t i) {
    const EdgeId e = order.nth(static_cast<uint64_t>(i));
    uint64_t scanned = 0;
    const bool all_out = all_adjacent(e, [&](EdgeId f) {
      if (order.rank(f) >= i) return true;
      ++scanned;
      return load_status<EStatus>(result.in_matching, f) == EStatus::kOut;
    });
    if (!all_out) return {false, scanned};
    store_status(result.in_matching, e, EStatus::kIn);
    const Edge ed = g.edge(e);
    result.matched_with[ed.u] = ed.v;
    result.matched_with[ed.v] = ed.u;
    return {true, scanned};
  }

  // Kill: an edge seeing an adjacent In edge. (An adjacent In is
  // necessarily earlier: a later adjacent edge cannot have joined while
  // this one was undecided.)
  PhaseResult commit(int64_t i) {
    const EdgeId e = order.nth(static_cast<uint64_t>(i));
    uint64_t scanned = 0;
    const bool no_in = all_adjacent(e, [&](EdgeId f) {
      ++scanned;
      return load_status<EStatus>(result.in_matching, f) != EStatus::kIn;
    });
    if (!no_in) store_status(result.in_matching, e, EStatus::kOut);
    return {!no_in, scanned};
  }
};

}  // namespace

MatchResult mm_parallel_naive(const CsrGraph& g, const EdgeOrder& order,
                              ProfileLevel level) {
  const uint64_t m = g.num_edges();
  PG_CHECK_MSG(order.size() == m, "ordering size != edge count");
  MatchResult result;
  result.in_matching.assign(m, 0);
  result.matched_with.assign(g.num_vertices(), kInvalidVertex);

  NaiveMmStep step{g, order, result};
  const auto edges = static_cast<int64_t>(m);
  result.profile = speculative_for(step, 0, edges, edges, level);
  collapse_status(result.in_matching, EStatus::kIn);
  return result;
}

}  // namespace pargreedy
