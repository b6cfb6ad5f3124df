// Maximal matching (Section 5).
//
// The greedy sequential algorithm processes edges in order pi, keeping an
// edge iff neither endpoint is already matched. Rather than reducing to
// MIS on the line graph (which "can be asymptotically larger than G"), all
// implementations here work directly on G in linear space:
//
//   mm_sequential       the greedy loop. O(n + m) work, Theta(m) depth.
//   mm_parallel_naive   Algorithm 4 run step-synchronously: every undecided
//                       edge re-examined each step, as a join/kill step
//                       over adjacent edges on the prefix-window loop
//                       (core/speculative_for.hpp) at window m. Steps =
//                       dependence length of the edge priority DAG (Lemma
//                       5.1: O(log^2 m) w.h.p. for random pi).
//   mm_rootset          linear-work rootset version via per-vertex
//                       priority-sorted incident edges, lazy deletion and
//                       mmCheck (Lemmas 5.2, 5.3).
//   mm_prefix           prefix-based speculative window with endpoint
//                       reservations (deterministic reservations, the
//                       implementation measured in Section 6 / Figure 2):
//                       a reserve/commit step on the same loop.
//                       At window m it takes mm_parallel_naive's step
//                       count, plus one round when the last step drops
//                       edges: an edge next to a new match resolves Out in
//                       the next round's reserve phase, one round after
//                       the naive kill phase drops it.
//
// All of them return the same matching as mm_sequential for a fixed
// EdgeOrder, at any worker count.
#pragma once

#include <cstdint>
#include <vector>

#include "core/analysis/profiles.hpp"
#include "core/matching/edge_order.hpp"
#include "core/priority/priority_source.hpp"
#include "graph/csr_graph.hpp"

namespace pargreedy {

/// Tri-state edge fate; transitions are monotone Undecided -> In|Out.
enum class EStatus : uint8_t { kUndecided = 0, kIn = 1, kOut = 2 };

/// Result of a maximal-matching computation.
struct MatchResult {
  /// in_matching[e] == 1 iff edge e is in the matching.
  std::vector<uint8_t> in_matching;
  /// matched_with[v] = v's partner, or kInvalidVertex if v is unmatched.
  std::vector<VertexId> matched_with;
  /// Execution profile (populated per the ProfileLevel passed in).
  RunProfile profile;

  /// The matching as a sorted edge-id list.
  [[nodiscard]] std::vector<EdgeId> members() const;
  /// Number of matched edges.
  [[nodiscard]] uint64_t size() const;
};

MatchResult mm_sequential(const CsrGraph& g, const EdgeOrder& order,
                          ProfileLevel level = ProfileLevel::kNone);

MatchResult mm_parallel_naive(const CsrGraph& g, const EdgeOrder& order,
                              ProfileLevel level = ProfileLevel::kNone);

MatchResult mm_rootset(const CsrGraph& g, const EdgeOrder& order,
                       ProfileLevel level = ProfileLevel::kNone);

MatchResult mm_prefix(const CsrGraph& g, const EdgeOrder& order,
                      uint64_t prefix_size,
                      ProfileLevel level = ProfileLevel::kNone);

/// Weighted greedy matching oracle: a deliberately independent sequential
/// implementation that processes edges directly by the source's priority
/// keys (never materializing an EdgeOrder). Returns the same matching as
/// mm_sequential(g, source.edge_order(g)); exists as the second code path
/// the weighted differential suites compare the dynamic engines against.
MatchResult mm_weighted_sequential(const CsrGraph& g,
                                   const PrioritySource& source);

}  // namespace pargreedy
