// Algorithm 2 in linear work: explicit root sets + misCheck (Lemma 4.2).
//
// The priority DAG is never materialized; instead each vertex keeps a
// cursor into its *parents* (earlier neighbors). Deletion is lazy: a parent
// that has left the graph is skipped by advancing the cursor, and the cost
// is charged to the edge, so all misChecks together cost O(m) (Lemma 4.1).
// Each step:
//   1. the current roots enter the MIS;
//   2. their undecided neighbors are removed (claimed Undecided -> Out by a
//      CAS, the arbitrary-CRCW-write emulation that dedupes ownership);
//   3. every child of a removed vertex is misCheck'ed by exactly one owner
//      (per-step claim stamps); the ones whose parents are exhausted form
//      the next root set.
// The number of steps equals the dependence length, and total work is
// O(n + m) — the Lemma 4.2 bound.
#include <atomic>

#include "core/mis/mis.hpp"
#include "parallel/atomics.hpp"
#include "parallel/pack.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "parallel/scan.hpp"
#include "support/check.hpp"

namespace pargreedy {

MisResult mis_rootset(const CsrGraph& g, const VertexOrder& order,
                      ProfileLevel level) {
  const uint64_t n = g.num_vertices();
  PG_CHECK_MSG(order.size() == n, "ordering size != vertex count");
  MisResult result;
  result.in_set.assign(n, 0);
  std::vector<uint8_t>& status = result.in_set;
  RunProfile& prof = result.profile;

  // Parents CSR: for each vertex, its earlier neighbors ("the neighbors of
  // a vertex have been pre-partitioned into their parents and children").
  std::vector<Offset> parent_offset(n + 1, 0);
  {
    std::vector<Offset> parent_count(n, 0);
    parallel_for(0, static_cast<int64_t>(n), [&](int64_t vi) {
      const VertexId v = static_cast<VertexId>(vi);
      Offset c = 0;
      for (VertexId w : g.neighbors(v)) c += order.earlier(w, v) ? 1 : 0;
      parent_count[static_cast<std::size_t>(vi)] = c;
    });
    const Offset total =
        exclusive_scan(std::span<const Offset>(parent_count),
                       std::span<Offset>(parent_offset.data(), n));
    parent_offset[n] = total;
  }
  std::vector<VertexId> parents(parent_offset[n]);
  parallel_for(0, static_cast<int64_t>(n), [&](int64_t vi) {
    const VertexId v = static_cast<VertexId>(vi);
    Offset at = parent_offset[static_cast<std::size_t>(vi)];
    for (VertexId w : g.neighbors(v))
      if (order.earlier(w, v)) parents[at++] = w;
  });

  // cursor[v]: first not-yet-skipped parent (lazy deletion pointer).
  std::vector<Offset> cursor(parent_offset.begin(), parent_offset.end() - 1);
  // claim_stamp[v]: last step in which a misCheck of v was claimed.
  std::vector<std::atomic<uint64_t>> claim_stamp(n);

  std::vector<VertexId> roots = pack_index<VertexId>(
      static_cast<int64_t>(n), [&](int64_t v) {
        return parent_offset[static_cast<std::size_t>(v)] ==
               parent_offset[static_cast<std::size_t>(v) + 1];
      });

  uint64_t step = 0;
  while (!roots.empty()) {
    ++step;
    const int64_t num_roots = static_cast<int64_t>(roots.size());

    // 1. Roots join the MIS. (Roots are pairwise non-adjacent: an edge
    //    between two roots would make the later one still have an
    //    undecided parent.)
    parallel_for(0, num_roots, [&](int64_t i) {
      store_status(status, roots[static_cast<std::size_t>(i)], VStatus::kIn);
    });

    // 2. Remove the roots' undecided neighbors (claimed exactly once).
    std::vector<Offset> slot_offset(roots.size() + 1, 0);
    {
      std::vector<Offset> deg(roots.size());
      parallel_for(0, num_roots, [&](int64_t i) {
        deg[static_cast<std::size_t>(i)] =
            g.degree(roots[static_cast<std::size_t>(i)]);
      });
      const Offset total =
          exclusive_scan(std::span<const Offset>(deg),
                         std::span<Offset>(slot_offset.data(), roots.size()));
      slot_offset[roots.size()] = total;
    }
    std::vector<VertexId> removed_slots(slot_offset[roots.size()],
                                        kInvalidVertex);
    parallel_for(0, num_roots, [&](int64_t i) {
      const VertexId r = roots[static_cast<std::size_t>(i)];
      Offset at = slot_offset[static_cast<std::size_t>(i)];
      for (VertexId w : g.neighbors(r)) {
        if (claim_status(status, w, VStatus::kOut))
          removed_slots[at] = w;
        ++at;
      }
    });
    const std::vector<VertexId> removed =
        pack(std::span<const VertexId>(removed_slots), [&](int64_t i) {
          return removed_slots[static_cast<std::size_t>(i)] != kInvalidVertex;
        });

    // 3. misCheck the children of removed vertices; exactly one claimant
    //    per child per step advances its parent cursor.
    const int64_t num_removed = static_cast<int64_t>(removed.size());
    std::vector<Offset> check_offset(removed.size() + 1, 0);
    {
      std::vector<Offset> deg(removed.size());
      parallel_for(0, num_removed, [&](int64_t i) {
        deg[static_cast<std::size_t>(i)] =
            g.degree(removed[static_cast<std::size_t>(i)]);
      });
      const Offset total = exclusive_scan(
          std::span<const Offset>(deg),
          std::span<Offset>(check_offset.data(), removed.size()));
      check_offset[removed.size()] = total;
    }
    std::vector<VertexId> root_slots(check_offset[removed.size()],
                                     kInvalidVertex);
    std::atomic<uint64_t> advance_work{0};
    parallel_for(0, num_removed, [&](int64_t i) {
      const VertexId w = removed[static_cast<std::size_t>(i)];
      Offset at = check_offset[static_cast<std::size_t>(i)];
      for (VertexId x : g.neighbors(w)) {
        const Offset slot = at++;
        if (!order.earlier(w, x)) continue;              // only children
        if (load_status<VStatus>(status, x) != VStatus::kUndecided) continue;
        // Claim the misCheck of x for this step.
        if (!claim_token(claim_stamp[x], step)) continue;
        // misCheck: skip deleted (Out) parents; stop at a live one.
        Offset& cur = cursor[x];
        const Offset end = parent_offset[static_cast<std::size_t>(x) + 1];
        uint64_t advanced = 0;
        while (cur < end &&
               load_status<VStatus>(status, parents[cur]) == VStatus::kOut) {
          ++cur;
          ++advanced;
        }
        if (advanced > 0)
          advance_work.fetch_add(advanced, std::memory_order_relaxed);
        if (cur == end) root_slots[slot] = x;  // no live parents: new root
      }
    });
    std::vector<VertexId> next_roots =
        pack(std::span<const VertexId>(root_slots), [&](int64_t i) {
          return root_slots[static_cast<std::size_t>(i)] != kInvalidVertex;
        });

    if (level != ProfileLevel::kNone) {
      prof.work_edges += slot_offset[roots.size()] +
                         check_offset[removed.size()] +
                         advance_work.load(std::memory_order_relaxed);
      prof.work_items += roots.size() + removed.size();
      if (level == ProfileLevel::kDetailed) {
        prof.per_round.push_back(
            RoundProfile{roots.size(), roots.size() + removed.size(),
                         slot_offset[roots.size()] +
                             check_offset[removed.size()]});
      }
    }
    roots = std::move(next_roots);
  }
  prof.rounds = step;
  prof.steps = step;

  collapse_status(status, VStatus::kIn);
  return result;
}

}  // namespace pargreedy
