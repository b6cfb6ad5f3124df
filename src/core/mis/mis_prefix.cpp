// Algorithm 3: prefix-based ("deterministic reservations") MIS — the
// implementation used for the paper's experiments (Section 6).
//
// A window holds the prefix_size earliest unresolved vertices of the
// ordering. Each round runs two barrier-separated phases over the window
// (the reserve/commit pattern of the paper's companion PPoPP'12
// framework [2]):
//
//   phase A (join):  a vertex whose earlier neighbors are all Out joins the
//                    MIS — it is a root of the remaining priority DAG;
//   phase B (kill):  a vertex that now sees an earlier In neighbor becomes
//                    Out — it is a child of a new root.
//
// Resolved vertices leave the window and the next vertices of the ordering
// refill it. Because each round decides exactly what one step of
// Algorithm 2 decides on the window, the round count is a pure function of
// (graph, order, prefix_size) — never of the worker count — which is what
// makes the rounds-vs-prefix-size series of Figure 1(b) reproducible. With
// prefix_size = 1 every round resolves one vertex (the sequential
// algorithm, rounds = n, work = m); with prefix_size = n the round count
// equals the dependence length of the priority DAG.
//
// When the ordering is the identity (the pre-permuted-graph setup of the
// paper's PBBS implementation, see relabel_by_rank), priority comparison
// is a plain id comparison with no rank-array indirection — the identity
// fast path below. Both paths run the same round structure, so profiles
// and results are identical.
//
// Status reads race benignly with same-phase writes: phase A only writes
// kIn, and reading a fresh kIn instead of kUndecided flips the same
// all-out test the same way; phase B only writes kOut after the join set
// is sealed. So the result equals mis_sequential's for any schedule and
// worker count. The paper's grain size of 256 (kDefaultGrain) governs when
// the window loop parallelizes.
#include "core/mis/mis.hpp"
#include "parallel/atomics.hpp"
#include "parallel/pack.hpp"
#include "parallel/reduce.hpp"
#include "support/check.hpp"

namespace pargreedy {

namespace {

/// The round loop, templated on the priority comparator so the identity
/// fast path compiles to a plain id comparison. `earlier(w, v)` must
/// return true iff w precedes v in the ordering.
template <typename Earlier>
void run_prefix_rounds(const CsrGraph& g, const VertexOrder& order,
                       uint64_t window, ProfileLevel level,
                       std::vector<uint8_t>& status, RunProfile& prof,
                       Earlier&& earlier) {
  const uint64_t n = g.num_vertices();
  std::vector<VertexId> active;
  active.reserve(window);
  uint64_t next = window < n ? window : n;
  for (uint64_t i = 0; i < next; ++i) active.push_back(order.nth(i));

  while (!active.empty()) {
    ++prof.rounds;
    const int64_t sz = static_cast<int64_t>(active.size());

    // Phase A: window vertices whose earlier neighbors are all Out join.
    const uint64_t work_a = static_cast<uint64_t>(parallel_reduce<int64_t>(
        0, sz, 0,
        [&](int64_t i) {
          const VertexId v = active[static_cast<std::size_t>(i)];
          int64_t scanned = 0;
          bool all_out = true;
          for (VertexId w : g.neighbors(v)) {
            if (!earlier(w, v)) continue;
            ++scanned;
            if (load_status<VStatus>(status, w) != VStatus::kOut) {
              all_out = false;
              break;
            }
          }
          if (all_out) store_status(status, v, VStatus::kIn);
          return scanned;
        },
        [](int64_t a, int64_t b) { return a + b; }));

    // Phase B: window vertices that see an earlier In neighbor leave.
    const uint64_t work_b = static_cast<uint64_t>(parallel_reduce<int64_t>(
        0, sz, 0,
        [&](int64_t i) {
          const VertexId v = active[static_cast<std::size_t>(i)];
          if (load_status<VStatus>(status, v) != VStatus::kUndecided)
            return int64_t{0};
          int64_t scanned = 0;
          for (VertexId w : g.neighbors(v)) {
            if (!earlier(w, v)) continue;
            ++scanned;
            if (load_status<VStatus>(status, w) == VStatus::kIn) {
              store_status(status, v, VStatus::kOut);
              break;
            }
          }
          return scanned;
        },
        [](int64_t a, int64_t b) { return a + b; }));

    std::vector<VertexId> failed =
        pack(std::span<const VertexId>(active), [&](int64_t i) {
          return load_status<VStatus>(
                     status, active[static_cast<std::size_t>(i)]) ==
                 VStatus::kUndecided;
        });
    if (level != ProfileLevel::kNone) {
      prof.work_edges += work_a + work_b;
      prof.work_items += static_cast<uint64_t>(sz);
      if (level == ProfileLevel::kDetailed) {
        prof.per_round.push_back(RoundProfile{
            static_cast<uint64_t>(sz),
            static_cast<uint64_t>(sz) - failed.size(), work_a + work_b});
      }
    }
    // The window's earliest vertex has only decided earlier neighbors, so
    // it always resolves; a round that resolves nothing is a broken order.
    PG_CHECK_MSG(failed.size() < active.size(),
                 "no progress in a round: priority DAG is inconsistent");
    // Refill the window with the next vertices of the ordering. The window
    // invariant — it holds the `window` earliest unresolved vertices — is
    // what lets phase A treat "no earlier Undecided in sight" as "no
    // earlier Undecided anywhere".
    while (failed.size() < window && next < n)
      failed.push_back(order.nth(next++));
    active.swap(failed);
  }
  prof.steps = prof.rounds;
}

}  // namespace

MisResult mis_prefix(const CsrGraph& g, const VertexOrder& order,
                     uint64_t prefix_size, ProfileLevel level) {
  const uint64_t n = g.num_vertices();
  PG_CHECK_MSG(order.size() == n, "ordering size != vertex count");
  const uint64_t window = prefix_size < 1 ? 1 : (prefix_size > n && n > 0
                                                     ? n
                                                     : prefix_size);
  MisResult result;
  result.in_set.assign(n, 0);
  std::vector<uint8_t>& status = result.in_set;

  if (order.is_identity()) {
    run_prefix_rounds(g, order, window, level, status, result.profile,
                      [](VertexId w, VertexId v) { return w < v; });
  } else {
    const std::span<const uint32_t> rank = order.ranks();
    run_prefix_rounds(g, order, window, level, status, result.profile,
                      [rank](VertexId w, VertexId v) {
                        return rank[w] < rank[v];
                      });
  }

  collapse_status(status, VStatus::kIn);
  return result;
}

}  // namespace pargreedy
