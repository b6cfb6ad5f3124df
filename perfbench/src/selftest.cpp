// Unit tests of the benchmark's own arithmetic (percentiles under the
// ten-beyond rule, self and unattributed time, error share) and of its
// load generator. Exits non-zero on the first failed check.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <numeric>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "loadgen.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::cerr << "FAILED: " << what << "\n";
    ++failures;
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  std::shuffle(v.begin(), v.end(), std::mt19937(7));
  return v;
}

void percentiles() {
  const Quantile p90 = percentile(one_to(100), 0.9);
  check(p90.value == 90 && p90.n == 100 && p90.beyond == 10 && p90.ok(),
        "p90 of 1..100 is 90 with ten beyond");
  check(!percentile(one_to(99), 0.9).ok(), "p90 of 99 samples has 9 beyond");
  const Quantile p50 = percentile(one_to(20), 0.5);
  check(p50.value == 10 && p50.beyond == 10 && p50.ok(),
        "p50 of 1..20 is 10 with ten beyond");
  check(!percentile(one_to(19), 0.5).ok(), "p50 of 19 samples has 9 beyond");
  check(percentile(one_to(1), 0.5).value == 1, "p50 of one sample");
  const Quantile empty = percentile({}, 0.5);
  check(std::isnan(empty.value) && empty.n == 0 && !empty.ok(),
        "percentile of nothing is NaN");
  check(median({3, 1, 2}) == 2, "median of three");
}

Span span(uint64_t id, uint64_t parent, int64_t t0, int64_t t1) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.t0 = t0;
  s.t1 = t1;
  return s;
}

void self_time() {
  // Root [0,100): children [10,30) and [20,50) overlap, [90,120) sticks
  // out of the root; a grandchild [12,14) must not count for the root.
  const std::vector<Span> spans = {span(1, 0, 0, 100), span(2, 1, 10, 30),
                                   span(3, 1, 20, 50), span(4, 1, 90, 120),
                                   span(5, 2, 12, 14)};
  const std::vector<int64_t> self = self_times(spans);
  check(self[0] == 50, "root self time counts overlapping children once");
  check(self[1] == 18, "child self time excludes its grandchild");
  check(self[2] == 30 && self[3] == 30 && self[4] == 2, "leaf self times");
  const std::vector<int64_t> lone = self_times({span(9, 0, 5, 8)});
  check(lone[0] == 3, "a span without children is all self time");
  // The unattributed time of a request is its root's self time.
  std::vector<Span> tick = {span(1, 0, 0, 1000), span(2, 1, 0, 100),
                            span(3, 1, 100, 700), span(4, 1, 700, 990)};
  for (Span& s : tick) s.name = kMisBatch;
  tick[1].name = kMisBegin;
  tick[2].name = kMisApply;
  tick[3].name = kMisCommit;
  const std::vector<double> unattributed =
      self_us(tick, self_times(tick), kMisBatch);
  check(unattributed.size() == 1 && std::abs(unattributed[0] - 0.01) < 1e-12,
        "unattributed = batch minus begin/apply/commit");
  const std::vector<double> applied = child_sum_us(tick, kMisBatch, kMisApply);
  check(applied.size() == 1 && std::abs(applied[0] - 0.6) < 1e-12,
        "child sums per parent");
}

void error_shares() {
  check(error_share(0, 0) == 0, "nothing attempted");
  check(error_share(0, 50) == 0, "nothing failed");
  check(error_share(3, 12) == 0.25, "3 of 12 failed");
}

void mirror() {
  Mirror m(8, std::vector<Edge>{{0, 1}, {2, 3}, {1, 5}});
  check(!m.insert(Edge{0, 1}) && m.insert(Edge{4, 6}), "insert reports absence");
  check(m.erase(Edge{0, 1}) && !m.erase(Edge{0, 1}), "erase reports presence");
  check(m.erase(Edge{4, 6}), "erase of the last slot");
  std::set<std::pair<uint32_t, uint32_t>> live;
  for (uint64_t i = 0; i < m.num_live_edges(); ++i)
    live.insert({m.live_edge(i).u, m.live_edge(i).v});
  check(live == std::set<std::pair<uint32_t, uint32_t>>{{1, 5}, {2, 3}},
        "swap-remove keeps the live list exact");
  check(m.contains(Edge{1, 5}) && !m.contains(Edge{0, 1}), "membership");
  m.toggle(3);
  m.toggle(5);
  m.toggle(3);
  check(m.active(3) && !m.active(5) && m.inactive() == std::vector<VertexId>{5},
        "toggles keep the inactive list in step");
}

void mixes() {
  bool sums = true;
  for (uint64_t ops = 2; ops <= 20'000; ++ops) {
    const BatchMix x = batch_mix(ops);
    sums = sums && x.toggles == 2 && x.inserts == x.deletes &&
           x.toggles + x.inserts + x.deletes + x.edge_reweights +
                   x.vertex_reweights ==
               ops;
  }
  check(sums, "every batch has 2 toggles, inserts == deletes, and ops in all");
  const BatchMix big = batch_mix(10'002);
  check(big.inserts == 3000 && big.edge_reweights == 2000 &&
            big.vertex_reweights == 2000,
        "3:3:4 inserts:deletes:reweights, reweights half edge, half vertex");
}

void tick_stream() {
  std::vector<Edge> edges;
  for (VertexId v = 1; v < 500; ++v) edges.push_back({v - 1, v});
  const StreamShape shape{2, 200, 8, 4, 16};
  Mirror a(500, edges), b(500, edges);
  const std::vector<Tick> ta = generate_ticks(a, shape, 200, 11);
  const std::vector<Tick> tb = generate_ticks(b, shape, 200, 11);
  bool same = true;
  for (std::size_t i = 0; i < ta.size(); ++i)
    same = same && ta[i].batch.size() == tb[i].batch.size() &&
           ta[i].batch.inserts() == tb[i].batch.inserts() &&
           ta[i].batch.deletes() == tb[i].batch.deletes() &&
           ta[i].live_after == tb[i].live_after;
  check(same, "one seed gives one stream");
  uint64_t live = edges.size();
  std::vector<uint64_t> committed_sizes;
  for (std::size_t i = 0; i < ta.size(); ++i) {
    const Tick& t = ta[i];
    check(t.what_if == (i % 4 == 3), "every fourth tick is a what-if");
    check(t.batch.endpoints_in_range(500), "endpoints in range");
    std::vector<VertexId> toggled = t.batch.deactivates();
    toggled.insert(toggled.end(), t.batch.activates().begin(),
                   t.batch.activates().end());
    check(toggled.size() == 2 &&
              std::set<VertexId>(toggled.begin(), toggled.end()).size() == 2,
          "two distinct vertices toggled per batch");
    for (const VertexId v : t.batch.vertex_reweights())
      check(std::count(toggled.begin(), toggled.end(), v) == 0,
            "no vertex is both toggled and reweighted in one batch");
    if (t.what_if) {
      check(t.live_after == live, "a what-if leaves the live set alone");
    } else {
      committed_sizes.push_back(t.batch.size());
      // Deletes target live edges and inserts absent ones, so the live
      // count moves by exactly their difference.
      live = live + t.batch.inserts().size() - t.batch.deletes().size();
      check(t.live_after == live && live == edges.size(),
            "the live count stays at its start");
    }
  }
  check(a.num_live_edges() == live, "mirror ends at the last live count");
  check(a.inactive().size() + 1 >= inactive_cap(500) &&
            a.inactive().size() <= inactive_cap(500),
        "the inactive set fills to its cap and stays there");
  // Each block of 8 committed ticks uses the whole size ladder once.
  std::vector<uint64_t> first(committed_sizes.begin(),
                              committed_sizes.begin() + 8);
  std::vector<uint64_t> second(committed_sizes.begin() + 8,
                               committed_sizes.begin() + 16);
  std::sort(first.begin(), first.end());
  std::sort(second.begin(), second.end());
  check(first == second && first.front() == 2 && first.back() == 200,
        "committed ticks cycle through the size ladder");

  const ReadStream rs = generate_reads(500, 100, 4, 10, 5, 9);
  check(rs.requests.size() == 100 && rs.vertices.size() == 400,
        "read stream shape");
  check(rs.requests[9].copy && !rs.requests[8].copy, "one read in ten copies");
  check(rs.requests[4].back >= 1 && rs.requests[4].back <= 3 &&
            rs.requests[3].back == 0,
        "one read in five is of a retained version");
}

}  // namespace

int main() {
  percentiles();
  self_time();
  error_shares();
  mirror();
  mixes();
  tick_stream();
  if (failures == 0) std::cout << "perfbench selftest: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
