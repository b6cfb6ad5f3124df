#include "extensions/clique.hpp"

#include <algorithm>
#include <atomic>

#include "parallel/atomics.hpp"
#include "parallel/pack.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "support/check.hpp"

namespace pargreedy {

std::vector<VertexId> CliqueResult::members() const {
  return pack_index<VertexId>(
      static_cast<int64_t>(in_clique.size()), [&](int64_t v) {
        return in_clique[static_cast<std::size_t>(v)] != 0;
      });
}

uint64_t CliqueResult::size() const {
  return static_cast<uint64_t>(reduce_add<int64_t>(
      0, static_cast<int64_t>(in_clique.size()), [&](int64_t v) {
        return in_clique[static_cast<std::size_t>(v)] ? 1 : 0;
      }));
}

CliqueResult greedy_clique_sequential(const CsrGraph& g,
                                      const VertexOrder& order) {
  const uint64_t n = g.num_vertices();
  PG_CHECK_MSG(order.size() == n, "ordering size != vertex count");
  CliqueResult result;
  result.in_clique.assign(n, 0);

  // adjacent_accepted[v] counts accepted clique members adjacent to v; a
  // vertex is accepted iff it is adjacent to *all* of them, i.e. iff its
  // counter equals the clique size at its turn.
  std::vector<uint32_t> adjacent_accepted(n, 0);
  uint32_t accepted = 0;
  for (uint64_t i = 0; i < n; ++i) {
    const VertexId v = order.nth(i);
    if (adjacent_accepted[v] != accepted) continue;
    result.in_clique[v] = 1;
    ++accepted;
    for (VertexId w : g.neighbors(v)) ++adjacent_accepted[w];
  }
  result.profile.rounds = n;
  result.profile.work_items = n;
  return result;
}

CliqueResult greedy_clique_prefix(const CsrGraph& g, const VertexOrder& order,
                                  uint64_t prefix_size) {
  const uint64_t n = g.num_vertices();
  PG_CHECK_MSG(order.size() == n, "ordering size != vertex count");
  const uint64_t window =
      prefix_size < 1 ? 1 : (prefix_size > n && n > 0 ? n : prefix_size);
  CliqueResult result;
  result.in_clique.assign(n, 0);
  RunProfile& prof = result.profile;
  if (n == 0) return result;

  // Decision rule for an undecided vertex v (derived from the sequential
  // recurrence; all quantities taken at round start):
  //   * Out  if some accepted member earlier than v is non-adjacent to v
  //          (adj_count[v] < accepted_before(v));
  //   * In   if every accepted member earlier than v is adjacent AND every
  //          still-undecided earlier vertex is adjacent to v — a later
  //          acceptance among them cannot reject v, and a rejection never
  //          could. The window invariant (all earlier undecided vertices
  //          are in the window) bounds that check to the window;
  //   * wait otherwise — some earlier non-adjacent vertex is undecided.
  // Everything is evaluated against round-start state in two barrier-
  // separated phases, so rounds are a pure function of (g, order, window).
  std::vector<std::atomic<uint32_t>> adj_count(n);
  parallel_for(0, static_cast<int64_t>(n), [&](int64_t v) {
    adj_count[static_cast<std::size_t>(v)].store(0,
                                                 std::memory_order_relaxed);
  });
  std::vector<uint32_t> accepted_ranks;  // sorted ranks of clique members
  // stamp[w] = round in which w was last an active window member.
  std::vector<uint64_t> stamp(n, 0);
  // status: 0 undecided, 1 in, 2 out (plain bytes; phases are barriered
  // and every store targets the storing iteration's own vertex).
  std::vector<uint8_t>& status = result.in_clique;

  std::vector<VertexId> active;  // rank-sorted (failures keep order,
  active.reserve(window);        // refills append in rank order)
  uint64_t next = window < n ? window : n;
  for (uint64_t i = 0; i < next; ++i) active.push_back(order.nth(i));

  uint64_t round = 0;
  std::vector<VertexId> joined;
  while (!active.empty()) {
    ++round;
    const int64_t sz = static_cast<int64_t>(active.size());

    // Mark window membership for the O(deg) earlier-actives-adjacency test.
    parallel_for(0, sz, [&](int64_t i) {
      stamp[active[static_cast<std::size_t>(i)]] = round;
    });

    // Phase A: decide from round-start state.
    parallel_for(0, sz, [&](int64_t i) {
      const VertexId v = active[static_cast<std::size_t>(i)];
      const uint32_t rv = order.rank(v);
      const uint32_t acc_before = static_cast<uint32_t>(
          std::upper_bound(accepted_ranks.begin(), accepted_ranks.end(), rv) -
          accepted_ranks.begin());
      const uint32_t adj = adj_count[v].load(std::memory_order_relaxed);
      if (adj < acc_before) {
        status[v] = 2;  // an earlier accepted member is non-adjacent
        return;
      }
      // All earlier accepted are adjacent. v may join only if every
      // earlier *active* vertex is adjacent too; count v's neighbors that
      // are earlier window members and compare with i (the number of
      // earlier actives — active is rank-sorted).
      uint64_t adjacent_earlier_active = 0;
      for (VertexId w : g.neighbors(v)) {
        if (stamp[w] == round && order.rank(w) < rv)
          ++adjacent_earlier_active;
      }
      if (adjacent_earlier_active == static_cast<uint64_t>(i))
        status[v] = 1;
      // else: wait (some earlier non-adjacent vertex is still undecided).
    });

    // Phase B: apply this round's acceptances.
    joined.clear();
    for (int64_t i = 0; i < sz; ++i) {
      const VertexId v = active[static_cast<std::size_t>(i)];
      if (status[v] == 1) joined.push_back(v);
    }
    const int64_t num_joined = static_cast<int64_t>(joined.size());
    parallel_for(0, num_joined, [&](int64_t j) {
      const VertexId c = joined[static_cast<std::size_t>(j)];
      const uint32_t rc = order.rank(c);
      for (VertexId w : g.neighbors(c)) {
        if (order.rank(w) > rc)
          adj_count[w].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (VertexId c : joined) accepted_ranks.push_back(order.rank(c));
    std::sort(accepted_ranks.begin(), accepted_ranks.end());

    std::vector<VertexId> failed =
        pack(std::span<const VertexId>(active), [&](int64_t i) {
          return status[active[static_cast<std::size_t>(i)]] == 0;
        });
    prof.work_items += static_cast<uint64_t>(sz);
    while (failed.size() < window && next < n)
      failed.push_back(order.nth(next++));
    active.swap(failed);
  }
  prof.rounds = round;
  prof.steps = round;

  collapse_status(status, uint8_t{1});
  return result;
}

bool is_maximal_clique(const CsrGraph& g,
                       std::span<const uint8_t> in_clique) {
  PG_CHECK(in_clique.size() == g.num_vertices());
  const uint64_t n = g.num_vertices();
  uint64_t size = 0;
  for (VertexId v = 0; v < n; ++v) size += in_clique[v] ? 1 : 0;
  // Every vertex must be adjacent to either all members (if inside, all
  // but itself) or miss at least one (if outside -> not extendable).
  const int64_t bad = count_if(0, static_cast<int64_t>(n), [&](int64_t vi) {
    const VertexId v = static_cast<VertexId>(vi);
    uint64_t adjacent_members = 0;
    for (VertexId w : g.neighbors(v)) adjacent_members += in_clique[w] ? 1 : 0;
    if (in_clique[v]) return adjacent_members != size - 1;  // pairwise adj
    return adjacent_members == size;  // outside vertex extends the clique
  });
  return bad == 0;
}

}  // namespace pargreedy
