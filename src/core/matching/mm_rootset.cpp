// Linear-work maximal matching via root sets and mmCheck (Lemma 5.3).
//
// Each vertex keeps its incident edges sorted by priority plus a *head*
// cursor; deletion is lazy (an edge is marked Out and skipped when a cursor
// passes it), so all cursor advances together cost O(m) — Lemma 5.2. An
// edge is "ready" (a root of the edge priority DAG) iff it is the first
// live edge at *both* endpoints. Each step:
//   1. the ready edges join the matching (they are vertex-disjoint);
//   2. every other edge incident on a newly matched vertex is deleted,
//      with a CAS claiming each deletion exactly once;
//   3. the far endpoint of each deleted edge is mmCheck'ed by one owner:
//      advance its head; if its first live edge is also first live on the
//      other side, that edge is ready for the next step.
// Steps = dependence length of the edge DAG (O(log^2 m) w.h.p., Lemma
// 5.1); total work O(n + m).
#include <algorithm>
#include <atomic>

#include "core/matching/matching.hpp"
#include "parallel/atomics.hpp"
#include "parallel/pack.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/scan.hpp"
#include "support/check.hpp"

namespace pargreedy {

namespace {

inline EStatus load_estatus(const std::vector<uint8_t>& status, EdgeId e) {
  return static_cast<EStatus>(
      std::atomic_ref<const uint8_t>(status[e]).load(
          std::memory_order_acquire));
}

}  // namespace

MatchResult mm_rootset(const CsrGraph& g, const EdgeOrder& order,
                       ProfileLevel level) {
  const uint64_t m = g.num_edges();
  const uint64_t n = g.num_vertices();
  PG_CHECK_MSG(order.size() == m, "ordering size != edge count");
  MatchResult result;
  result.in_matching.assign(m, 0);
  result.matched_with.assign(n, kInvalidVertex);
  std::vector<uint8_t>& status = result.in_matching;
  RunProfile& prof = result.profile;
  if (m == 0) return result;

  // Per-vertex incident edges sorted by priority (ascending rank), sharing
  // the CSR offsets. Lemma 5.3 pre-sorts these with a bucket sort; a
  // per-vertex comparison sort is the practical equivalent.
  const std::span<const Offset> offsets = g.offsets();
  std::vector<EdgeId> inc(2 * m);
  parallel_for(0, static_cast<int64_t>(n), [&](int64_t vi) {
    const VertexId v = static_cast<VertexId>(vi);
    const auto src = g.incident_edges(v);
    std::copy(src.begin(), src.end(), inc.begin() + offsets[v]);
    std::sort(inc.begin() + offsets[v], inc.begin() + offsets[v + 1],
              [&](EdgeId a, EdgeId b) { return order.earlier(a, b); });
  });

  // head[v]: absolute offset of v's first not-yet-skipped incident edge.
  std::vector<std::atomic<uint64_t>> head(n);
  parallel_for(0, static_cast<int64_t>(n), [&](int64_t v) {
    head[static_cast<std::size_t>(v)].store(
        offsets[static_cast<std::size_t>(v)], std::memory_order_relaxed);
  });
  std::vector<std::atomic<uint64_t>> edge_stamp(m);
  std::vector<std::atomic<uint64_t>> vertex_stamp(n);

  // Monotone, CAS-protected cursor advance past deleted (Out) edges.
  // Returns the absolute offset of v's first live edge, or offsets[v+1].
  auto advance = [&](VertexId v) -> uint64_t {
    const uint64_t end = offsets[v + 1];
    while (true) {
      uint64_t cur = head[v].load(std::memory_order_relaxed);
      uint64_t h = cur;
      while (h < end && load_estatus(status, inc[h]) == EStatus::kOut) ++h;
      if (h == cur) return h;
      if (head[v].compare_exchange_weak(cur, h, std::memory_order_acq_rel,
                                        std::memory_order_acquire))
        return h;
    }
  };

  // mmCheck(w): is w's first live edge also first live on its other side?
  // Returns the ready edge, or kInvalidEdge. The caller must hold w's
  // per-token claim; the per-edge claim here dedupes discovery from both
  // endpoints.
  auto mmcheck = [&](VertexId w, uint64_t token) -> EdgeId {
    const uint64_t hw = advance(w);
    if (hw == offsets[w + 1]) return kInvalidEdge;
    const EdgeId e = inc[hw];
    if (load_estatus(status, e) != EStatus::kUndecided) return kInvalidEdge;
    const VertexId x = g.edge(e).other(w);
    const uint64_t hx = advance(x);
    if (hx == offsets[x + 1] || inc[hx] != e) return kInvalidEdge;
    if (!claim_token(edge_stamp[e], token)) return kInvalidEdge;
    return e;
  };

  // Initial ready set: every vertex proposes its first live edge.
  uint64_t token = 1;
  std::vector<EdgeId> ready;
  {
    std::vector<EdgeId> slots(n, kInvalidEdge);
    parallel_for(0, static_cast<int64_t>(n), [&](int64_t vi) {
      const VertexId v = static_cast<VertexId>(vi);
      if (g.degree(v) == 0) return;
      slots[static_cast<std::size_t>(vi)] = mmcheck(v, token);
    });
    ready = pack(std::span<const EdgeId>(slots), [&](int64_t i) {
      return slots[static_cast<std::size_t>(i)] != kInvalidEdge;
    });
  }

  uint64_t steps = 0;
  while (!ready.empty()) {
    ++steps;
    ++token;
    const int64_t num_ready = static_cast<int64_t>(ready.size());

    // 1. Ready edges join the matching (vertex-disjoint by construction).
    parallel_for(0, num_ready, [&](int64_t i) {
      const EdgeId e = ready[static_cast<std::size_t>(i)];
      std::atomic_ref<uint8_t>(status[e]).store(
          static_cast<uint8_t>(EStatus::kIn), std::memory_order_release);
      const Edge ed = g.edge(e);
      result.matched_with[ed.u] = ed.v;
      result.matched_with[ed.v] = ed.u;
    });

    // 2. Delete the undecided neighbors of matched edges; record the far
    //    endpoint of each deleted edge for rechecking.
    std::vector<Offset> slot_offset(ready.size() + 1, 0);
    {
      std::vector<Offset> deg(ready.size());
      parallel_for(0, num_ready, [&](int64_t i) {
        const Edge ed = g.edge(ready[static_cast<std::size_t>(i)]);
        deg[static_cast<std::size_t>(i)] = g.degree(ed.u) + g.degree(ed.v);
      });
      const Offset total =
          exclusive_scan(std::span<const Offset>(deg),
                         std::span<Offset>(slot_offset.data(), ready.size()));
      slot_offset[ready.size()] = total;
    }
    std::vector<VertexId> far_slots(slot_offset[ready.size()],
                                    kInvalidVertex);
    parallel_for(0, num_ready, [&](int64_t i) {
      const EdgeId e = ready[static_cast<std::size_t>(i)];
      const Edge ed = g.edge(e);
      Offset at = slot_offset[static_cast<std::size_t>(i)];
      for (const VertexId endpoint : {ed.u, ed.v}) {
        for (EdgeId f : g.incident_edges(endpoint)) {
          const Offset slot = at++;
          if (f == e) continue;
          if (claim_status(status, f, EStatus::kOut))
            far_slots[slot] = g.edge(f).other(endpoint);
        }
      }
    });
    const std::vector<VertexId> far =
        pack(std::span<const VertexId>(far_slots), [&](int64_t i) {
          return far_slots[static_cast<std::size_t>(i)] != kInvalidVertex;
        });

    // 3. mmCheck each far endpoint once; collect the next ready set.
    const int64_t num_far = static_cast<int64_t>(far.size());
    std::vector<EdgeId> ready_slots(far.size(), kInvalidEdge);
    parallel_for(0, num_far, [&](int64_t i) {
      const VertexId w = far[static_cast<std::size_t>(i)];
      if (!claim_token(vertex_stamp[w], token)) return;
      ready_slots[static_cast<std::size_t>(i)] = mmcheck(w, token);
    });
    std::vector<EdgeId> next_ready =
        pack(std::span<const EdgeId>(ready_slots), [&](int64_t i) {
          return ready_slots[static_cast<std::size_t>(i)] != kInvalidEdge;
        });

    if (level != ProfileLevel::kNone) {
      prof.work_edges += slot_offset[ready.size()];
      prof.work_items += ready.size() + far.size();
      if (level == ProfileLevel::kDetailed) {
        prof.per_round.push_back(RoundProfile{
            ready.size(), ready.size() + far.size(),
            slot_offset[ready.size()]});
      }
    }
    ready = std::move(next_ready);
  }
  prof.rounds = steps;
  prof.steps = steps;

  collapse_status(status, EStatus::kIn);
  return result;
}

}  // namespace pargreedy
