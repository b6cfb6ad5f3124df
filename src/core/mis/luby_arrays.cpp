// Luby's Algorithm A, array-based variant — the textbook formulation in
// which each round materializes a fresh random priority value per live
// vertex before the local-minima test.
//
// The paper reports "We tried different implementations of Luby's
// algorithm and report the times for the fastest one"; this library does
// the same with two: luby_mis (priorities computed in-register from a
// counter-based hash during the scan — usually faster) and this variant
// (priorities stored in an array per round — the classical description,
// one extra O(live) pass and an extra indirection per neighbor probe).
// Both are deterministic in the seed; for the same seed they compute the
// SAME MIS, because the array holds exactly the values the in-register
// variant recomputes. bench/micro_algorithms measures both.
#include "core/mis/mis.hpp"
#include "parallel/atomics.hpp"
#include "parallel/pack.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "random/hash.hpp"
#include "support/check.hpp"

namespace pargreedy {

MisResult luby_mis_arrays(const CsrGraph& g, uint64_t seed,
                          ProfileLevel level) {
  const uint64_t n = g.num_vertices();
  MisResult result;
  result.in_set.assign(n, 0);
  std::vector<uint8_t>& status = result.in_set;
  RunProfile& prof = result.profile;

  std::vector<VertexId> live(n);
  parallel_for(0, static_cast<int64_t>(n), [&](int64_t v) {
    live[static_cast<std::size_t>(v)] = static_cast<VertexId>(v);
  });
  // The per-round priority array — the defining feature of this variant.
  // Sized n so dead vertices keep a stale value that is never read.
  std::vector<uint64_t> priority(n);

  uint64_t round = 0;
  while (!live.empty()) {
    ++round;
    const uint64_t round_seed = hash64(seed, round);
    const int64_t sz = static_cast<int64_t>(live.size());

    // Reassign priorities of live vertices (the paper's phrase for what
    // distinguishes Luby from the fixed-pi greedy algorithms).
    parallel_for(0, sz, [&](int64_t i) {
      const VertexId v = live[static_cast<std::size_t>(i)];
      priority[v] = hash64(round_seed, v);
    });

    // Phase A: strict local minima among live vertices join the MIS.
    const uint64_t work_a = static_cast<uint64_t>(parallel_reduce<int64_t>(
        0, sz, 0,
        [&](int64_t i) {
          const VertexId v = live[static_cast<std::size_t>(i)];
          const uint64_t pv = priority[v];
          int64_t scanned = 0;
          bool is_min = true;
          for (VertexId w : g.neighbors(v)) {
            if (load_status<VStatus>(status, w) == VStatus::kOut) continue;
            ++scanned;
            const uint64_t pw = priority[w];
            if (pw < pv || (pw == pv && w < v)) {
              is_min = false;
              break;
            }
          }
          if (is_min) store_status(status, v, VStatus::kIn);
          return scanned;
        },
        [](int64_t a, int64_t b) { return a + b; }));

    // Phase B: neighbors of new MIS vertices die.
    const uint64_t work_b = static_cast<uint64_t>(parallel_reduce<int64_t>(
        0, sz, 0,
        [&](int64_t i) {
          const VertexId v = live[static_cast<std::size_t>(i)];
          if (load_status<VStatus>(status, v) != VStatus::kUndecided)
            return int64_t{0};
          int64_t scanned = 0;
          for (VertexId w : g.neighbors(v)) {
            ++scanned;
            if (load_status<VStatus>(status, w) == VStatus::kIn) {
              store_status(status, v, VStatus::kOut);
              break;
            }
          }
          return scanned;
        },
        [](int64_t a, int64_t b) { return a + b; }));

    const std::vector<VertexId> next =
        pack(std::span<const VertexId>(live), [&](int64_t i) {
          return load_status<VStatus>(
                     status, live[static_cast<std::size_t>(i)]) ==
                 VStatus::kUndecided;
        });
    if (level != ProfileLevel::kNone) {
      prof.work_edges += work_a + work_b;
      // The array refill is the variant's extra work: one item touch per
      // live vertex per round, on top of the scan attempts.
      prof.work_items += 2 * static_cast<uint64_t>(sz);
      if (level == ProfileLevel::kDetailed) {
        prof.per_round.push_back(RoundProfile{
            static_cast<uint64_t>(sz),
            static_cast<uint64_t>(sz) - next.size(), work_a + work_b});
      }
    }
    PG_CHECK_MSG(next.size() < live.size(),
                 "Luby round made no progress; priority tie-break broken");
    live = next;
  }
  prof.rounds = round;
  prof.steps = round;

  collapse_status(status, VStatus::kIn);
  return result;
}

}  // namespace pargreedy
