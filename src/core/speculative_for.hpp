// speculative_for: the prefix-window loop of Algorithm 3.
//
// A greedy sequential loop visits positions [start, end) in priority
// order. speculative_for keeps a window of the `window_size` earliest
// unresolved positions and runs rounds until the window drains. Each round
// runs two barrier-separated phases over the window (the reserve/commit
// pattern of the paper's companion PPoPP'12 framework [2], "Internally
// deterministic parallel algorithms can be fast", which the experiments of
// Section 6 build on), drops the positions that resolved and refills the
// window in order. The windowed kernels run on it: mis_prefix (join, then
// kill), mm_prefix (bid on both endpoints, then commit the edges that hold
// both), mm_parallel_naive (a join/kill step over adjacent edges at window
// m) and the spanning-forest and coloring extensions. A window of 1 is the
// sequential loop; a window covering the range is the step-synchronous
// Algorithm 2 (Algorithm 4 for matching). greedy_clique_prefix keeps its
// own loop: each of its rounds needs a window-membership pass before the
// decisions and a serial merge of accepted ranks after them.
//
// Step concept:
//   struct Step {
//     // Phase 1 on position i. May resolve it.
//     PhaseResult reserve(int64_t i);
//     // Phase 2 on position i; runs only if reserve left i open. May
//     // resolve it; an open position stays for the next round.
//     PhaseResult commit(int64_t i);
//   };
//
// Whether the round count depends only on the input is the step's doing,
// not the loop's: the barrier only orders what the phases write. A step
// whose phase 1 writes only what phase 2 reads, and whose phase 2 reads
// nothing a same-round phase 2 writes (mis_prefix's joins, mm_prefix's
// bids, the forest's root bids, coloring's ready marks), resolves the same
// positions each round at any worker count, so Figure 1(b),
// dependence_length() and the rounds Fischer-Noever bound are
// reproducible. A step whose commit read what a same-round commit writes
// would keep its result but not its round count.
//
// Progress: the earliest position in the window must resolve every round.
// It has no unresolved earlier position anywhere, which is the
// deterministic-reservations guarantee every step here meets; a step that
// breaks it throws CheckFailure instead of looping forever.
//
// Profile, per round: rounds and steps go up by one; at kCounters and above
// work_items grows by the window size and work_edges by the phases' work;
// at kDetailed one RoundProfile row (window size, positions resolved,
// work) is added.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/analysis/profiles.hpp"
#include "parallel/pack.hpp"
#include "parallel/reduce.hpp"
#include "support/check.hpp"

namespace pargreedy {

/// What one phase of a step did to one position.
struct PhaseResult {
  bool resolved = false;  ///< the position is done and leaves the window
  uint64_t work = 0;      ///< edges inspected, charged to work_edges
};

/// Clamps a kernel's window to [1, count] before it becomes
/// speculative_for's int64_t, so an oversized prefix_size means the whole
/// range.
inline int64_t clamp_window(uint64_t prefix_size, uint64_t count) {
  return static_cast<int64_t>(
      std::max<uint64_t>(1, std::min(prefix_size, count)));
}

/// Runs positions [start, end) of `step` with a window of `window_size`
/// (clamped to [1, end - start]) and returns the run's profile.
template <typename Step>
RunProfile speculative_for(Step& step, int64_t start, int64_t end,
                           int64_t window_size,
                           ProfileLevel level = ProfileLevel::kCounters) {
  PG_CHECK_MSG(start <= end, "empty or inverted range");
  const int64_t window =
      std::clamp<int64_t>(window_size, 1, std::max<int64_t>(end - start, 1));

  RunProfile prof;
  int64_t next = std::min(start + window, end);
  std::vector<int64_t> active;
  active.reserve(static_cast<std::size_t>(window));
  for (int64_t i = start; i < next; ++i) active.push_back(i);
  // done[s]: the position in window slot s resolved this round. Phase 1
  // writes every slot, so the bytes need no reset between rounds.
  std::vector<uint8_t> done(static_cast<std::size_t>(window));

  while (!active.empty()) {
    const int64_t sz = static_cast<int64_t>(active.size());
    const uint64_t work_reserve = reduce_add<uint64_t>(0, sz, [&](int64_t s) {
      const auto slot = static_cast<std::size_t>(s);
      const PhaseResult r = step.reserve(active[slot]);
      done[slot] = r.resolved;
      return r.work;
    });
    const uint64_t work_commit = reduce_add<uint64_t>(0, sz, [&](int64_t s) {
      const auto slot = static_cast<std::size_t>(s);
      if (done[slot]) return uint64_t{0};
      const PhaseResult r = step.commit(active[slot]);
      done[slot] = r.resolved;
      return r.work;
    });
    PG_CHECK_MSG(done[0],
                 "no progress in a round: the window's earliest position "
                 "did not resolve");

    std::vector<int64_t> open =
        pack(std::span<const int64_t>(active), [&](int64_t s) {
          return done[static_cast<std::size_t>(s)] == 0;
        });
    ++prof.rounds;
    if (level != ProfileLevel::kNone) {
      prof.work_items += static_cast<uint64_t>(sz);
      prof.work_edges += work_reserve + work_commit;
      if (level == ProfileLevel::kDetailed) {
        prof.per_round.push_back(RoundProfile{
            static_cast<uint64_t>(sz),
            static_cast<uint64_t>(sz) - open.size(),
            work_reserve + work_commit});
      }
    }
    // Refill in order. The window invariant — it holds the `window`
    // earliest unresolved positions — is what lets a step treat "no earlier
    // unresolved position in the window" as "none anywhere".
    while (static_cast<int64_t>(open.size()) < window && next < end)
      open.push_back(next++);
    active.swap(open);
  }
  prof.steps = prof.rounds;
  return prof;
}

}  // namespace pargreedy
