// Prefix-based maximal matching via deterministic reservations — the
// implementation behind Figure 2 and Figure 4.
//
// A window holds the prefix_size earliest unresolved edges. Each round has
// two barrier-separated phases (the reserve/commit pattern of the paper's
// companion "internally deterministic" framework [2]):
//
//   reserve: an edge with a matched endpoint resolves to Out; otherwise it
//            priority-writes its rank into both endpoints' reservation
//            slots (atomic write-min).
//   commit:  an edge that holds *both* its endpoints' slots is the
//            earliest unresolved edge at both, which is exactly the greedy
//            acceptance condition — it enters the matching. Winners reset
//            the slots they hold; losers retry next round.
//
// Because every unresolved edge earlier than a window member is itself in
// the window, holding both slots implies no earlier unresolved neighbor
// exists anywhere, so the committed matching is the sequential greedy one
// for any schedule and any worker count.
#include <atomic>

#include "core/matching/matching.hpp"
#include "parallel/atomics.hpp"
#include "parallel/pack.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "support/check.hpp"

namespace pargreedy {

namespace {

constexpr uint32_t kFreeSlot = 0xffffffffu;

}  // namespace

MatchResult mm_prefix(const CsrGraph& g, const EdgeOrder& order,
                      uint64_t prefix_size, ProfileLevel level) {
  const uint64_t m = g.num_edges();
  const uint64_t n = g.num_vertices();
  PG_CHECK_MSG(order.size() == m, "ordering size != edge count");
  const uint64_t window =
      prefix_size < 1 ? 1 : (prefix_size > m && m > 0 ? m : prefix_size);

  MatchResult result;
  result.in_matching.assign(m, 0);
  result.matched_with.assign(n, kInvalidVertex);
  std::vector<uint8_t>& status = result.in_matching;
  RunProfile& prof = result.profile;

  // reservation[v]: smallest rank among unresolved edges bidding for v.
  std::vector<std::atomic<uint32_t>> reservation(n);
  parallel_for(0, static_cast<int64_t>(n), [&](int64_t v) {
    reservation[static_cast<std::size_t>(v)].store(kFreeSlot,
                                                   std::memory_order_relaxed);
  });

  std::vector<EdgeId> active;
  active.reserve(window);
  uint64_t next = window < m ? window : m;
  for (uint64_t i = 0; i < next; ++i) active.push_back(order.nth(i));

  while (!active.empty()) {
    ++prof.rounds;
    const int64_t sz = static_cast<int64_t>(active.size());

    // Reserve phase.
    parallel_for(0, sz, [&](int64_t i) {
      const EdgeId e = active[static_cast<std::size_t>(i)];
      const Edge ed = g.edge(e);
      if (result.matched_with[ed.u] != kInvalidVertex ||
          result.matched_with[ed.v] != kInvalidVertex) {
        store_status(status, e, EStatus::kOut);
        return;
      }
      const uint32_t r = order.rank(e);
      atomic_write_min(reservation[ed.u], r);
      atomic_write_min(reservation[ed.v], r);
    });

    // Commit phase.
    parallel_for(0, sz, [&](int64_t i) {
      const EdgeId e = active[static_cast<std::size_t>(i)];
      if (load_status<EStatus>(status, e) != EStatus::kUndecided) return;
      const Edge ed = g.edge(e);
      const uint32_t r = order.rank(e);
      const bool won_u =
          reservation[ed.u].load(std::memory_order_relaxed) == r;
      const bool won_v =
          reservation[ed.v].load(std::memory_order_relaxed) == r;
      if (won_u && won_v) {
        store_status(status, e, EStatus::kIn);
        result.matched_with[ed.u] = ed.v;
        result.matched_with[ed.v] = ed.u;
      }
      // Whoever holds a slot releases it for the next round's bidding.
      if (won_u)
        reservation[ed.u].store(kFreeSlot, std::memory_order_relaxed);
      if (won_v)
        reservation[ed.v].store(kFreeSlot, std::memory_order_relaxed);
    });

    std::vector<EdgeId> failed =
        pack(std::span<const EdgeId>(active), [&](int64_t i) {
          return load_status<EStatus>(
                     status, active[static_cast<std::size_t>(i)]) ==
                 EStatus::kUndecided;
        });
    if (level != ProfileLevel::kNone) {
      // Work: one attempt (reserve + commit, O(1) each) per active edge.
      prof.work_items += static_cast<uint64_t>(sz);
      if (level == ProfileLevel::kDetailed) {
        prof.per_round.push_back(RoundProfile{
            static_cast<uint64_t>(sz),
            static_cast<uint64_t>(sz) - failed.size(), 0});
      }
    }
    while (failed.size() < window && next < m)
      failed.push_back(order.nth(next++));
    active.swap(failed);
  }
  prof.steps = prof.rounds;

  collapse_status(status, EStatus::kIn);
  return result;
}

}  // namespace pargreedy
