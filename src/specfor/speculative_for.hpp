// speculative_for: the generic deterministic-reservations engine.
//
// Algorithm 3 of the paper, abstracted away from MIS: iterate over the
// items of a sequential greedy loop, keeping a window ("prefix") of the
// `window_size` earliest unresolved iterations, and run reserve/commit
// rounds until the window drains. This is the pattern of the paper's
// companion PPoPP'12 framework [2] ("Internally deterministic parallel
// algorithms can be fast"), which the experiments in Section 6 build on.
// Its users are the extensions (spanning forest, coloring — the paper's
// suggested future work). The core MIS and matching kernels do not run on
// it: mis_prefix and mm_prefix keep two barrier-separated phases per round,
// so their round counts depend only on the input, where this engine's
// single commit phase lets a commit observe a same-round commit.
//
// Step concept:
//   struct Step {
//     // Attempt/announce iteration i. Return false iff the iteration is
//     // already resolved with no effect (drop it without committing).
//     bool reserve(int64_t i);
//     // Try to finish iteration i. Return true iff it resolved; false
//     // requeues it for the next round. Called only if reserve was true.
//     bool commit(int64_t i);
//   };
//
// Contract mirroring the paper's analysis: reserve must only *announce*
// intent via idempotent priority writes (e.g. atomic_write_min of the
// iteration index), and commit must make an iteration's effects visible
// only when it is the highest-priority claimant — then the loop's result
// equals the sequential loop's for any worker count.
#pragma once

#include <cstdint>
#include <vector>

#include "parallel/pack.hpp"
#include "parallel/parallel_for.hpp"
#include "support/check.hpp"

namespace pargreedy {

/// Execution statistics of a speculative_for run.
struct SpecForStats {
  uint64_t rounds = 0;    ///< reserve/commit rounds executed
  uint64_t attempts = 0;  ///< total iteration attempts (>= end - start)
};

/// Runs iterations [start, end) of `step` with a speculative window.
/// window_size <= 1 degenerates to the sequential loop; window_size >=
/// end-start is the fully parallel version.
template <typename Step>
SpecForStats speculative_for(Step& step, int64_t start, int64_t end,
                             int64_t window_size) {
  PG_CHECK_MSG(start <= end, "empty or inverted range");
  const int64_t total = end - start;
  const int64_t window =
      window_size < 1 ? 1 : (window_size > total ? total : window_size);

  SpecForStats stats;
  std::vector<int64_t> active;
  active.reserve(static_cast<std::size_t>(window));
  int64_t next = start + window < end ? start + window : end;
  for (int64_t i = start; i < next; ++i) active.push_back(i);

  std::vector<uint8_t> resolved;
  while (!active.empty()) {
    ++stats.rounds;
    const int64_t sz = static_cast<int64_t>(active.size());
    stats.attempts += static_cast<uint64_t>(sz);
    resolved.assign(active.size(), 0);

    // Reserve phase: announce intent (idempotent priority writes only).
    std::vector<uint8_t> needs_commit(active.size());
    parallel_for(0, sz, [&](int64_t i) {
      needs_commit[static_cast<std::size_t>(i)] =
          step.reserve(active[static_cast<std::size_t>(i)]) ? 1 : 0;
    });

    // Commit phase: winners apply their effects; losers retry.
    parallel_for(0, sz, [&](int64_t i) {
      if (!needs_commit[static_cast<std::size_t>(i)]) {
        resolved[static_cast<std::size_t>(i)] = 1;  // dropped in reserve
        return;
      }
      resolved[static_cast<std::size_t>(i)] =
          step.commit(active[static_cast<std::size_t>(i)]) ? 1 : 0;
    });

    std::vector<int64_t> failed =
        pack(std::span<const int64_t>(active), [&](int64_t i) {
          return resolved[static_cast<std::size_t>(i)] == 0;
        });
    while (static_cast<int64_t>(failed.size()) < window && next < end)
      failed.push_back(next++);
    active.swap(failed);
  }
  return stats;
}

}  // namespace pargreedy
