// Unit tests for the prefix-window loop of Algorithm 3
// (src/core/speculative_for.hpp) and the kernels that run on it: the MIS
// and matching prefix kernels, Algorithm 4 and the spanning-forest and
// coloring extensions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/matching/matching.hpp"
#include "core/mis/mis.hpp"
#include "core/speculative_for.hpp"
#include "extensions/spanning_forest.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "parallel/arch.hpp"
#include "parallel/atomics.hpp"
#include "support/check.hpp"

namespace pargreedy {
namespace {

// A trivially parallel step: every iteration resolves immediately.
struct IndependentStep {
  std::vector<int>& log;
  std::atomic<int64_t> reserves{0};
  PhaseResult reserve(int64_t) {
    reserves.fetch_add(1);
    return {};
  }
  PhaseResult commit(int64_t i) {
    std::atomic_ref<int>(log[static_cast<std::size_t>(i)]).fetch_add(1);
    return {true, 0};
  }
};

TEST(SpecFor, RunsEveryIterationExactlyOnce) {
  ScopedNumWorkers guard(4);
  const int64_t n = 10'000;
  std::vector<int> log(n, 0);
  IndependentStep step{log};
  const RunProfile stats = speculative_for(step, 0, n, 512);
  for (int64_t i = 0; i < n; ++i) EXPECT_EQ(log[i], 1) << "i=" << i;
  EXPECT_EQ(stats.work_items, static_cast<uint64_t>(n));  // nothing retried
  EXPECT_EQ(stats.rounds, static_cast<uint64_t>((n + 511) / 512));
}

TEST(SpecFor, WindowOneIsSequential) {
  const int64_t n = 100;
  std::vector<int> log(n, 0);
  IndependentStep step{log};
  const RunProfile stats = speculative_for(step, 0, n, 1);
  EXPECT_EQ(stats.rounds, static_cast<uint64_t>(n));
  EXPECT_EQ(stats.work_items, static_cast<uint64_t>(n));
}

TEST(SpecFor, WindowClampsToRangeLength) {
  const int64_t n = 10;
  std::vector<int> log(n, 0);
  IndependentStep step{log};
  const RunProfile stats = speculative_for(step, 0, n, 1'000'000);
  EXPECT_EQ(stats.rounds, 1u);
}

TEST(SpecFor, EmptyRange) {
  std::vector<int> log;
  IndependentStep step{log};
  const RunProfile stats = speculative_for(step, 5, 5, 8);
  EXPECT_EQ(stats.rounds, 0u);
  EXPECT_EQ(stats.work_items, 0u);
  EXPECT_THROW(speculative_for(step, 5, 3, 8), CheckFailure);
}

TEST(SpecFor, NonZeroStart) {
  const int64_t n = 50;
  std::vector<int> log(n, 0);
  IndependentStep step{log};
  speculative_for(step, 10, 40, 7);
  for (int64_t i = 0; i < n; ++i)
    EXPECT_EQ(log[i], (i >= 10 && i < 40) ? 1 : 0);
}

// A step where reserve() resolves already-decided iterations: models the
// "vertex already removed" path of the greedy loops.
struct DropStep {
  std::vector<uint8_t>& drop;
  std::vector<int>& log;
  PhaseResult reserve(int64_t i) {
    return {drop[static_cast<std::size_t>(i)] != 0, 0};
  }
  PhaseResult commit(int64_t i) {
    std::atomic_ref<int>(log[static_cast<std::size_t>(i)]).fetch_add(1);
    return {true, 0};
  }
};

TEST(SpecFor, ReserveFalseSkipsCommit) {
  const int64_t n = 1'000;
  std::vector<uint8_t> drop(n, 0);
  for (int64_t i = 0; i < n; i += 3) drop[static_cast<std::size_t>(i)] = 1;
  std::vector<int> log(n, 0);
  DropStep step{drop, log};
  speculative_for(step, 0, n, 64);
  for (int64_t i = 0; i < n; ++i) EXPECT_EQ(log[i], drop[i] ? 0 : 1);
}

// The canonical interference pattern: items claim a shared slot by
// priority; losers must retry in a later round and the final owner of each
// slot must be the *smallest* item that wanted it — the sequential-greedy
// answer — regardless of worker count.
struct SlotStep {
  std::vector<std::atomic<int64_t>>& reservation;
  std::vector<int64_t>& owner;  // final owner per slot
  std::vector<int64_t>& wants;  // wants[i] = slot item i bids on
  static constexpr int64_t kFree = INT64_MAX;

  PhaseResult reserve(int64_t i) {
    const int64_t slot = wants[static_cast<std::size_t>(i)];
    if (owner[static_cast<std::size_t>(slot)] != -1)
      return {true, 0};  // taken
    atomic_write_min(reservation[static_cast<std::size_t>(slot)], i);
    return {};
  }
  PhaseResult commit(int64_t i) {
    const int64_t slot = wants[static_cast<std::size_t>(i)];
    if (reservation[static_cast<std::size_t>(slot)].load() != i)
      return {};  // lost the bid: retry next round
    owner[static_cast<std::size_t>(slot)] = i;
    reservation[static_cast<std::size_t>(slot)].store(kFree);
    return {true, 0};
  }
};

TEST(SpecFor, PriorityReservationsMatchSequentialGreedy) {
  ScopedNumWorkers guard(4);
  const int64_t n = 5'000;
  const int64_t slots = 257;
  std::vector<int64_t> wants(n);
  for (int64_t i = 0; i < n; ++i)
    wants[static_cast<std::size_t>(i)] = (i * 2'654'435'761u) % slots;

  // Sequential reference: first item to want a slot owns it.
  std::vector<int64_t> expect(slots, -1);
  for (int64_t i = 0; i < n; ++i)
    if (expect[static_cast<std::size_t>(wants[i])] == -1)
      expect[static_cast<std::size_t>(wants[i])] = i;

  for (int64_t window : {int64_t{1}, int64_t{64}, int64_t{1'024}, n}) {
    std::vector<std::atomic<int64_t>> reservation(slots);
    for (auto& r : reservation) r.store(SlotStep::kFree);
    std::vector<int64_t> owner(slots, -1);
    SlotStep step{reservation, owner, wants};
    speculative_for(step, 0, n, window);
    EXPECT_EQ(owner, expect) << "window=" << window;
  }
}

TEST(SpecFor, RetriesAreCountedInAttempts) {
  // With a single hot slot and a full window, the first round commits
  // item 0 and every other item retries; each attempt is one work item.
  const int64_t n = 64;
  std::vector<int64_t> wants(n, 0);  // everyone wants slot 0
  std::vector<std::atomic<int64_t>> reservation(1);
  reservation[0].store(SlotStep::kFree);
  std::vector<int64_t> owner(1, -1);
  SlotStep step{reservation, owner, wants};
  const RunProfile stats = speculative_for(step, 0, n, n);
  EXPECT_EQ(owner[0], 0);  // smallest index wins
  // Item 0 wins round 1; items 1.. then *drop* (reserve false) in round 2.
  EXPECT_EQ(stats.rounds, 2u);
  EXPECT_EQ(stats.work_items, static_cast<uint64_t>(2 * n - 1));
}

TEST(SpecFor, DeterministicAcrossWorkerCounts) {
  const int64_t n = 3'000;
  const int64_t slots = 101;
  std::vector<int64_t> wants(n);
  for (int64_t i = 0; i < n; ++i)
    wants[static_cast<std::size_t>(i)] = (i * 7) % slots;
  std::vector<int64_t> base;
  for (int workers : {1, 2, 4}) {
    ScopedNumWorkers guard(workers);
    std::vector<std::atomic<int64_t>> reservation(slots);
    for (auto& r : reservation) r.store(SlotStep::kFree);
    std::vector<int64_t> owner(slots, -1);
    SlotStep step{reservation, owner, wants};
    speculative_for(step, 0, n, 128);
    if (base.empty()) {
      base = owner;
    } else {
      EXPECT_EQ(owner, base) << "workers=" << workers;
    }
  }
}

// Breaks the progress guarantee: position 0 stays open for its first 100
// commits, so a loop without the check ends (and the test fails) rather
// than hanging.
struct StuckStep {
  std::atomic<int> stalls{0};
  PhaseResult reserve(int64_t) { return {}; }
  PhaseResult commit(int64_t i) {
    return {i != 0 || stalls.fetch_add(1) >= 100, 0};
  }
};

TEST(SpecFor, StuckEarliestPositionThrows) {
  StuckStep window_four;
  EXPECT_THROW(speculative_for(window_four, 0, 8, 4), CheckFailure);
  StuckStep window_one;
  EXPECT_THROW(speculative_for(window_one, 0, 8, 1), CheckFailure);
}

// Charges one edge in reserve and two in commit; resolves odd positions in
// reserve and even ones in commit.
struct WorkStep {
  PhaseResult reserve(int64_t i) { return {i % 2 == 1, 1}; }
  PhaseResult commit(int64_t) { return {true, 2}; }
};

TEST(SpecFor, ProfileLevelGatesTheCounters) {
  const int64_t n = 10;
  WorkStep step;
  const RunProfile none = speculative_for(step, 0, n, 4, ProfileLevel::kNone);
  EXPECT_EQ(none.rounds, 3u);
  EXPECT_EQ(none.steps, 3u);
  EXPECT_EQ(none.work_items, 0u);
  EXPECT_EQ(none.work_edges, 0u);
  EXPECT_TRUE(none.per_round.empty());

  const RunProfile counters = speculative_for(step, 0, n, 4);
  EXPECT_EQ(counters.rounds, 3u);
  EXPECT_EQ(counters.work_items, static_cast<uint64_t>(n));
  EXPECT_EQ(counters.work_edges, static_cast<uint64_t>(n + 2 * (n / 2)));
  EXPECT_TRUE(counters.per_round.empty());

  const RunProfile detailed =
      speculative_for(step, 0, n, 4, ProfileLevel::kDetailed);
  ASSERT_EQ(detailed.per_round.size(), 3u);
  EXPECT_EQ(detailed.per_round[0].active_items, 4u);
  EXPECT_EQ(detailed.per_round[0].decided, 4u);
  EXPECT_EQ(detailed.per_round[0].work_edges, 8u);  // 4 reserves, 2 commits
  EXPECT_EQ(detailed.per_round[2].active_items, 2u);
  EXPECT_EQ(detailed.per_round[2].work_edges, 4u);
  EXPECT_EQ(detailed.work_edges, counters.work_edges);
}

// The windowed kernels' rounds and work depend only on (graph, order,
// window), so they are pinned here on one graph, as (rounds, work_items,
// work_edges); the forest reports no work_edges.
TEST(SpecForKernels, CountersPinnedAcrossWindows) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(2'000, 10'000, 3));
  const VertexOrder vo = VertexOrder::random(2'000, 5);
  const EdgeOrder eo = EdgeOrder::random(10'000, 6);
  struct Row {
    uint64_t window;
    uint64_t mis[3];
    uint64_t mm[3];
    uint64_t forest[2];
  };
  const Row rows[] = {
      {1, {2'000, 2'000, 7'620}, {10'000, 10'000, 0}, {10'000, 10'000}},
      {7, {287, 2'005, 7'625}, {1'429, 10'001, 0}, {1'430, 10'004}},
      {64, {33, 2'051, 7'798}, {157, 10'025, 0}, {158, 10'060}},
      {2'000, {5, 2'975, 13'670}, {7, 11'985, 0}, {9, 16'858}},
      {10'000, {5, 2'975, 13'670}, {6, 22'276, 0}, {6, 45'303}},
      // An oversized window is the whole range, not a window of 1.
      {UINT64_MAX, {5, 2'975, 13'670}, {6, 22'276, 0}, {6, 45'303}},
  };
  for (int workers : {1, 4}) {
    ScopedNumWorkers guard(workers);
    for (const Row& row : rows) {
      const RunProfile mis =
          mis_prefix(g, vo, row.window, ProfileLevel::kCounters).profile;
      const RunProfile mm =
          mm_prefix(g, eo, row.window, ProfileLevel::kCounters).profile;
      const RunProfile forest =
          spanning_forest_prefix(g, eo, row.window).profile;
      const std::string at = "window " + std::to_string(row.window) +
                             ", workers " + std::to_string(workers);
      EXPECT_EQ(mis.rounds, row.mis[0]) << at;
      EXPECT_EQ(mis.work_items, row.mis[1]) << at;
      EXPECT_EQ(mis.work_edges, row.mis[2]) << at;
      EXPECT_EQ(mm.rounds, row.mm[0]) << at;
      EXPECT_EQ(mm.work_items, row.mm[1]) << at;
      EXPECT_EQ(mm.work_edges, row.mm[2]) << at;
      EXPECT_EQ(forest.rounds, row.forest[0]) << at;
      EXPECT_EQ(forest.work_items, row.forest[1]) << at;
    }
    const RunProfile naive =
        mm_parallel_naive(g, eo, ProfileLevel::kCounters).profile;
    EXPECT_EQ(naive.rounds, 6u) << "workers " << workers;
    EXPECT_EQ(naive.work_items, 13'194u) << "workers " << workers;
    EXPECT_EQ(naive.work_edges, 160'140u) << "workers " << workers;
  }
}

}  // namespace
}  // namespace pargreedy
