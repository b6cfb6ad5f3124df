// Parallel repropagation to a greedy fixpoint — the core of the dynamic
// engines.
//
// Both the lexicographically-first MIS and the greedy maximal matching are
// the unique solution of a locally-checkable consistency condition over the
// priority DAG ("an item is IN iff none of its earlier-ranked dependencies
// is IN"). After a batch of graph updates, only the cone of the DAG
// reachable from the touched items can change, so the engines re-evaluate
// decisions outward from a seed frontier instead of recomputing from
// scratch:
//
//   round:  decide    — recompute each frontier item's greedy decision
//                       from the *current* stored state (parallel read),
//           commit    — store the decisions that flipped (parallel write,
//                       disjoint slots),
//           expand    — the later-ranked dependents of every flipped item
//                       that can now disagree with decide() form the next
//                       frontier.
//
// The round invariant: at the start of every round, every item outside
// the frontier agrees with decide(). The engines' seeds establish it
// (they name every item a structural update can make inconsistent), and
// expansion keeps it with a filter: after a flip, only a later-ranked
// successor whose stored value *equals* the flipped item's new value can
// disagree. A successor that is OUT when its predecessor turned IN is
// already blocked; one that is IN when its predecessor turned OUT cannot
// exist, since it was either consistent at the round's start (and so not
// IN next to an earlier IN item) or decided this round against the old
// IN value (and so flipped OUT). The items the filter skips could not
// flip, so every round flips exactly what an unfiltered expansion would.
// At the empty frontier every item is consistent with its dependencies —
// and a state that is everywhere locally consistent *is* the greedy
// solution (unique by induction along the priority order). Rounds needed
// are bounded by the longest priority-DAG path inside the affected cone,
// which Fischer–Noever bound by Θ(log n) w.h.p. for random priorities
// (Theorem 3.5 of the source paper gives O(log^2 n)) — this is why small
// batches settle in a handful of rounds.
//
// The decide/commit split makes every round race-free: decides only read
// engine state, commits write disjoint per-item slots, and the next
// frontier is deduplicated by value — so the fixpoint (and every
// intermediate round) is deterministic at any worker count, on both
// backends.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dynamic/batch_stats.hpp"
#include "dynamic/undo_log.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/pack.hpp"
#include "support/check.hpp"

namespace pargreedy {

/// Sorts and deduplicates a frontier in place (deterministic order).
template <typename Item>
void sort_unique(std::vector<Item>& items) {
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
}

/// Runs decide/commit/expand rounds until the frontier is empty.
///
/// Engine requirements (Item is an integral id — VertexId or EdgeSlot):
///   bool decide(Item) const       recompute the greedy decision from the
///                                 currently stored state;
///   bool current(Item) const      the stored decision;
///   void commit(Item, bool)       store a flipped decision (called only
///                                 for items whose decision changed; must
///                                 touch only state keyed by that item);
///   void append_successors(Item, std::vector<Item>&) const
///                                 called after the commit for an item
///                                 that flipped; append the later-ranked
///                                 items whose decision depends on this
///                                 one *and* whose stored value equals
///                                 its new one — the only ones that can
///                                 now disagree with decide() (see the
///                                 round invariant above).
///
/// `limit` bounds the number of rounds (a correctness guard: the fixpoint
/// is reached after at most longest-priority-path rounds, so hitting the
/// limit means a broken engine, not a big input).
///
/// When `journal` is non-null every flipped decision's old value is
/// recorded before the commit writes it — the transactional undo log
/// (O(changed) serial work per round; the parallel decide/commit paths
/// are untouched). Callers outside a transaction pass nullptr.
template <typename Item, typename Engine>
void repropagate(std::vector<Item> frontier, Engine&& engine, uint64_t limit,
                 BatchStats& stats, UndoJournal* journal = nullptr) {
  sort_unique(frontier);
  stats.seeds = frontier.size();

  // All instrumentation below runs on the (serial) driver thread, keyed
  // by deterministic quantities — frontier/flip/fanout sizes are the
  // same at any worker count, so the obs counters are too.
  PG_OBS_SPAN1(span_repro, kRepropagate, stats.seeds);

  std::vector<uint8_t> decisions;
  while (!frontier.empty()) {
    ++stats.rounds;
    PG_CHECK_MSG(stats.rounds <= limit,
                 "repropagation failed to reach a fixpoint after "
                     << stats.rounds << " rounds (limit " << limit << ")");
    const int64_t f = static_cast<int64_t>(frontier.size());
    stats.recomputed += frontier.size();
    PG_OBS_HIST(obs::kReproRoundFrontier, frontier.size());

    // Decide: pure reads of engine state.
    std::vector<int64_t> flipped;
    {
      PG_OBS_SPAN2(span_decide, kDecide, stats.rounds, f);
      decisions.assign(frontier.size(), 0);
      parallel_for(0, f, [&](int64_t i) {
        decisions[static_cast<std::size_t>(i)] =
            engine.decide(frontier[static_cast<std::size_t>(i)]) ? 1 : 0;
      });
      flipped = pack_index<int64_t>(f, [&](int64_t i) {
        return (decisions[static_cast<std::size_t>(i)] != 0) !=
               engine.current(frontier[static_cast<std::size_t>(i)]);
      });
    }
    stats.changed += flipped.size();
    PG_OBS_HIST(obs::kReproRoundFlipped, flipped.size());
    PG_OBS_EVENT2(kReproRound, frontier.size(), flipped.size());

    {
      PG_OBS_SPAN2(span_commit, kCommit, stats.rounds, flipped.size());

      // Journal the flips' old values before the commit overwrites them
      // (serial, O(changed) — the undo log a transaction replays on abort).
      if (journal) {
        for (const int64_t i : flipped) {
          const std::size_t idx = static_cast<std::size_t>(i);
          journal->record_decision(static_cast<uint64_t>(frontier[idx]),
                                   engine.current(frontier[idx]));
        }
      }

      // Commit: disjoint per-item writes.
      parallel_for(0, static_cast<int64_t>(flipped.size()), [&](int64_t i) {
        const std::size_t idx =
            static_cast<std::size_t>(flipped[static_cast<std::size_t>(i)]);
        engine.commit(frontier[idx], decisions[idx] != 0);
      });
    }

    // Expand: later-ranked dependents of every flipped item, deduplicated.
    const int64_t c = static_cast<int64_t>(flipped.size());
    std::vector<Item> next;
    {
      PG_OBS_SPAN1(span_expand, kExpand, stats.rounds);
      if (c > 0) {
        std::vector<std::vector<Item>> per_block(
            static_cast<std::size_t>(parallel_block_count(c)));
        parallel_blocks(c, [&](int64_t b, int64_t lo, int64_t hi) {
          auto& out = per_block[static_cast<std::size_t>(b)];
          for (int64_t i = lo; i < hi; ++i) {
            const std::size_t idx =
                static_cast<std::size_t>(flipped[static_cast<std::size_t>(i)]);
            engine.append_successors(frontier[idx], out);
          }
        });
        for (auto& block : per_block)
          next.insert(next.end(), block.begin(), block.end());
        // Cone fanout = successors reached this round, pre-dedup: the
        // raw out-degree mass of the flipped set.
        PG_OBS_HIST(obs::kReproConeFanout, next.size());
        sort_unique(next);
      }
      PG_OBS_SPAN_ARG(span_expand, next.size());
    }
    frontier = std::move(next);
  }
  PG_OBS_HIST(obs::kReproBatchRounds, stats.rounds);
  PG_OBS_SPAN_ARG(span_repro, stats.rounds);
}

}  // namespace pargreedy
