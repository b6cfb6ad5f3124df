// Prefix-based maximal matching via deterministic reservations — the
// implementation behind Figure 2 and Figure 4.
//
// The step below runs on speculative_for, which keeps the prefix_size
// earliest unresolved edges in a window. Each round runs its two phases
// over the window:
//
//   reserve: an edge with a matched endpoint resolves to Out; otherwise it
//            priority-writes its rank into both endpoints' reservation
//            slots (atomic write-min).
//   commit:  an edge that holds *both* its endpoints' slots is the
//            earliest unresolved edge at both, which is exactly the greedy
//            acceptance condition — it enters the matching. Winners reset
//            the slots they hold; losers retry next round.
//
// The step sees an edge's position in the ordering, which is its rank, so
// the bid needs no rank-array load. Because every unresolved edge earlier
// than a window member is itself in the window, holding both slots implies
// no earlier unresolved neighbor exists anywhere, so the committed
// matching is the sequential greedy one for any schedule and any worker
// count. Only In is ever written to an edge's byte, so the bytes are the
// result's 0/1 membership as they stand.
#include <atomic>

#include "core/matching/matching.hpp"
#include "core/speculative_for.hpp"
#include "parallel/atomics.hpp"
#include "parallel/parallel_for.hpp"
#include "support/check.hpp"

namespace pargreedy {

namespace {

constexpr uint32_t kFreeSlot = 0xffffffffu;

struct MmStep {
  const CsrGraph& g;
  const EdgeOrder& order;
  MatchResult& result;
  // reservation[v]: smallest rank among unresolved edges bidding for v.
  std::vector<std::atomic<uint32_t>>& reservation;

  PhaseResult reserve(int64_t i) {
    const Edge ed = g.edge(order.nth(static_cast<uint64_t>(i)));
    if (result.matched_with[ed.u] != kInvalidVertex ||
        result.matched_with[ed.v] != kInvalidVertex)
      return {true, 0};
    atomic_write_min(reservation[ed.u], static_cast<uint32_t>(i));
    atomic_write_min(reservation[ed.v], static_cast<uint32_t>(i));
    return {false, 0};
  }

  PhaseResult commit(int64_t i) {
    const EdgeId e = order.nth(static_cast<uint64_t>(i));
    const Edge ed = g.edge(e);
    const auto r = static_cast<uint32_t>(i);
    const bool won_u = reservation[ed.u].load(std::memory_order_relaxed) == r;
    const bool won_v = reservation[ed.v].load(std::memory_order_relaxed) == r;
    // Whoever holds a slot releases it for the next round's bidding.
    if (won_u) reservation[ed.u].store(kFreeSlot, std::memory_order_relaxed);
    if (won_v) reservation[ed.v].store(kFreeSlot, std::memory_order_relaxed);
    if (!(won_u && won_v)) return {false, 0};
    result.in_matching[e] = 1;
    result.matched_with[ed.u] = ed.v;
    result.matched_with[ed.v] = ed.u;
    return {true, 0};
  }
};

}  // namespace

MatchResult mm_prefix(const CsrGraph& g, const EdgeOrder& order,
                      uint64_t prefix_size, ProfileLevel level) {
  const uint64_t m = g.num_edges();
  const uint64_t n = g.num_vertices();
  PG_CHECK_MSG(order.size() == m, "ordering size != edge count");

  MatchResult result;
  result.in_matching.assign(m, 0);
  result.matched_with.assign(n, kInvalidVertex);
  std::vector<std::atomic<uint32_t>> reservation(n);
  parallel_for(0, static_cast<int64_t>(n), [&](int64_t v) {
    reservation[static_cast<std::size_t>(v)].store(kFreeSlot,
                                                   std::memory_order_relaxed);
  });

  MmStep step{g, order, result, reservation};
  result.profile = speculative_for(step, 0, static_cast<int64_t>(m),
                                   clamp_window(prefix_size, m), level);
  return result;
}

}  // namespace pargreedy
