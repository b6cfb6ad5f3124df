// Algorithm 4, step-synchronous: parallel greedy maximal matching.
//
// Each step mirrors one recursive call: edges with no earlier adjacent edge
// remaining join the matching (phase A); edges that now see an adjacent In
// edge leave (phase B). The step count is the dependence length of the
// *edge* priority DAG — the quantity Lemma 5.1 bounds via the reduction to
// MIS on the line graph, without ever building that line graph.
#include "core/matching/matching.hpp"
#include "parallel/atomics.hpp"
#include "parallel/pack.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "support/check.hpp"

namespace pargreedy {

MatchResult mm_parallel_naive(const CsrGraph& g, const EdgeOrder& order,
                              ProfileLevel level) {
  const uint64_t m = g.num_edges();
  PG_CHECK_MSG(order.size() == m, "ordering size != edge count");
  MatchResult result;
  result.in_matching.assign(m, 0);
  result.matched_with.assign(g.num_vertices(), kInvalidVertex);
  std::vector<uint8_t>& status = result.in_matching;
  RunProfile& prof = result.profile;

  std::vector<EdgeId> active(order.order().begin(), order.order().end());

  // Scans e's adjacency (all edges sharing an endpoint with e).
  auto for_each_adjacent = [&](EdgeId e, auto&& fn) {
    const Edge ed = g.edge(e);
    for (EdgeId f : g.incident_edges(ed.u))
      if (f != e && !fn(f)) return;
    for (EdgeId f : g.incident_edges(ed.v))
      if (f != e && !fn(f)) return;
  };

  while (!active.empty()) {
    ++prof.rounds;
    const int64_t sz = static_cast<int64_t>(active.size());

    // Phase A: edges whose earlier adjacent edges are all Out join.
    const uint64_t work_a = static_cast<uint64_t>(parallel_reduce<int64_t>(
        0, sz, 0,
        [&](int64_t i) {
          const EdgeId e = active[static_cast<std::size_t>(i)];
          int64_t scanned = 0;
          bool all_out = true;
          for_each_adjacent(e, [&](EdgeId f) {
            if (!order.earlier(f, e)) return true;
            ++scanned;
            if (load_status<EStatus>(status, f) != EStatus::kOut) {
              all_out = false;
              return false;  // stop scanning
            }
            return true;
          });
          if (all_out) store_status(status, e, EStatus::kIn);
          return scanned;
        },
        [](int64_t a, int64_t b) { return a + b; }));

    // Phase B: edges seeing an adjacent In edge leave. (An adjacent In is
    // necessarily earlier: a later adjacent edge cannot have joined while
    // this one was undecided.)
    const uint64_t work_b = static_cast<uint64_t>(parallel_reduce<int64_t>(
        0, sz, 0,
        [&](int64_t i) {
          const EdgeId e = active[static_cast<std::size_t>(i)];
          if (load_status<EStatus>(status, e) != EStatus::kUndecided)
            return int64_t{0};
          int64_t scanned = 0;
          for_each_adjacent(e, [&](EdgeId f) {
            ++scanned;
            if (load_status<EStatus>(status, f) == EStatus::kIn) {
              store_status(status, e, EStatus::kOut);
              return false;
            }
            return true;
          });
          return scanned;
        },
        [](int64_t a, int64_t b) { return a + b; }));

    const std::vector<EdgeId> next =
        pack(std::span<const EdgeId>(active), [&](int64_t i) {
          return load_status<EStatus>(
                     status, active[static_cast<std::size_t>(i)]) ==
                 EStatus::kUndecided;
        });
    if (level != ProfileLevel::kNone) {
      prof.work_edges += work_a + work_b;
      prof.work_items += static_cast<uint64_t>(sz);
      if (level == ProfileLevel::kDetailed) {
        prof.per_round.push_back(RoundProfile{
            static_cast<uint64_t>(sz),
            static_cast<uint64_t>(sz) - next.size(), work_a + work_b});
      }
    }
    PG_CHECK_MSG(next.size() < active.size(),
                 "no progress in a step: edge priority DAG is inconsistent");
    active = next;
  }
  prof.steps = prof.rounds;

  collapse_status(status, EStatus::kIn);
  // Fill the per-vertex partner map.
  parallel_for(0, static_cast<int64_t>(m), [&](int64_t ei) {
    if (!status[static_cast<std::size_t>(ei)]) return;
    const Edge ed = g.edge(static_cast<EdgeId>(ei));
    result.matched_with[ed.u] = ed.v;
    result.matched_with[ed.v] = ed.u;
  });
  return result;
}

}  // namespace pargreedy
