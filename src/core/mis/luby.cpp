// Luby's Algorithm A — the classic parallel MIS baseline of Figure 3.
//
// Each round draws *fresh* random priorities for the still-live vertices; a
// vertex whose priority is a strict local minimum among its live neighbors
// joins the MIS, and its neighborhood dies. The paper points out that
// Algorithm 2 with a re-randomized ordering per recursive call "is
// effectively the same as Luby's Algorithm A" — the greedy algorithms'
// novelty is keeping ONE permutation, which yields the sequential result.
//
// This implementation matches the paper's optimized comparator: it
// processes only the packed live vertices each round ("essentially
// processes the entire input as a prefix [with] reassigning the priorities
// of vertices between rounds"). Deterministic in the seed: priorities are
// counter-based hashes of (seed, round, vertex).
//
// The paper reports "We tried different implementations of Luby's
// algorithm and report the times for the fastest one"; this library does
// the same with two, which share the round loop below and differ only in
// where a round's priorities come from:
//
//   luby_mis         computes them in-register from the hash during the
//                    scan (usually faster);
//   luby_mis_arrays  the classical description: each round first refills a
//                    priority array over the live vertices (one extra
//                    O(live) pass, counted as a second item touch per live
//                    vertex, and an extra indirection per neighbor probe).
//
// For the same seed they compute the SAME MIS, because the array holds
// exactly the values the in-register variant recomputes.
// bench/micro_algorithms measures both.
#include <span>

#include "core/mis/mis.hpp"
#include "parallel/atomics.hpp"
#include "parallel/pack.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "random/hash.hpp"
#include "support/check.hpp"

namespace pargreedy {

namespace {

/// Priorities hashed in the scan.
struct HashedPriorities {
  static constexpr uint64_t kTouchesPerLive = 1;

  auto round(uint64_t round_seed, std::span<const VertexId>) {
    return [round_seed](VertexId v) { return hash64(round_seed, v); };
  }
};

/// Priorities stored in an array refilled over the live vertices each
/// round. Sized n so dead vertices keep a stale value that is never read.
struct ArrayPriorities {
  static constexpr uint64_t kTouchesPerLive = 2;
  std::vector<uint64_t> value;

  auto round(uint64_t round_seed, std::span<const VertexId> live) {
    parallel_for(0, static_cast<int64_t>(live.size()), [&](int64_t i) {
      const VertexId v = live[static_cast<std::size_t>(i)];
      value[v] = hash64(round_seed, v);
    });
    return [p = value.data()](VertexId v) { return p[v]; };
  }
};

template <typename Priorities>
MisResult luby_rounds(const CsrGraph& g, uint64_t seed, ProfileLevel level,
                      Priorities store) {
  const uint64_t n = g.num_vertices();
  MisResult result;
  result.in_set.assign(n, 0);
  std::vector<uint8_t>& status = result.in_set;
  RunProfile& prof = result.profile;

  std::vector<VertexId> live(n);
  parallel_for(0, static_cast<int64_t>(n), [&](int64_t v) {
    live[static_cast<std::size_t>(v)] = static_cast<VertexId>(v);
  });

  uint64_t round = 0;
  while (!live.empty()) {
    ++round;
    // Priority of v this round; ties broken by id, so the order is total.
    const auto priority = store.round(hash64(seed, round), live);
    const int64_t sz = static_cast<int64_t>(live.size());

    // Phase A: strict local minima join the MIS. A neighbor is live this
    // round iff it is not Out: Out is only written in earlier rounds'
    // phase B (stable here), while a racy In read means the neighbor was
    // live at round start and must still count as a competitor — otherwise
    // two adjacent local minima could both join.
    const uint64_t work_a = static_cast<uint64_t>(parallel_reduce<int64_t>(
        0, sz, 0,
        [&](int64_t i) {
          const VertexId v = live[static_cast<std::size_t>(i)];
          const uint64_t pv = priority(v);
          int64_t scanned = 0;
          bool is_min = true;
          for (VertexId w : g.neighbors(v)) {
            if (load_status<VStatus>(status, w) == VStatus::kOut) continue;
            ++scanned;
            const uint64_t pw = priority(w);
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
      prof.work_items +=
          Priorities::kTouchesPerLive * static_cast<uint64_t>(sz);
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

}  // namespace

MisResult luby_mis(const CsrGraph& g, uint64_t seed, ProfileLevel level) {
  return luby_rounds(g, seed, level, HashedPriorities{});
}

MisResult luby_mis_arrays(const CsrGraph& g, uint64_t seed,
                          ProfileLevel level) {
  return luby_rounds(g, seed, level,
                     ArrayPriorities{std::vector<uint64_t>(g.num_vertices())});
}

}  // namespace pargreedy
