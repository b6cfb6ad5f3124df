// static-solve: repeated from-scratch greedy MIS and matching on the
// paper's two ci inputs (random n=200k/m=1M and rMat n=2^18/m=1M) at 4
// workers. One MIS request is VertexOrder::random + mis_prefix(n/50) on
// both graphs; one matching request is EdgeOrder::random +
// mm_prefix(m/50) on both. Every result is compared byte for byte with
// the sequential greedy under the same order.
//
// This is the paper's Section 6 claim, and the only workload where the
// core kernels (and the parallel and random primitives under them) do
// almost all the work.
#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/matching/matching.hpp"
#include "core/mis/mis.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "obs/runtime.hpp"
#include "parallel/arch.hpp"
#include "random/hash.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace pargreedy;

constexpr uint64_t kRandomN = 200'000;
constexpr uint64_t kRandomM = 1'000'000;
constexpr unsigned kRmatScale = 18;
constexpr uint64_t kRmatM = 1'000'000;
constexpr int kWorkers = 4;
constexpr int kSetupReps = 5;
/// Orders cycled through by the requests; their sequential results are
/// computed once, before timing.
constexpr std::size_t kOrders = 4;
/// A p90 needs 100 samples to leave ten beyond it.
constexpr uint64_t kMinSamples = 100;
constexpr const char* kGraphNames[2] = {"random", "rmat"};

struct Oracles {
  std::array<uint64_t, kOrders> seed{};
  std::vector<uint8_t> mis[2][kOrders];
  std::vector<VertexId> mm[2][kOrders];
};

struct Phase {
  std::vector<double> mis_us, mm_us;
  double busy_s = 0;
  uint64_t edges = 0;  ///< input edges the requests solved over
};

uint64_t window(uint64_t size) { return std::max<uint64_t>(1, size / 50); }

/// Runs MIS and matching requests alternately until `seconds` have passed
/// and each engine has `min_samples` requests (hard stop at 4x seconds).
Phase solve_phase(const CsrGraph (&g)[2], const Oracles& oracles,
                  double seconds, uint64_t min_samples, SpanLog& log,
                  Report& report, uint64_t& request) {
  Phase out;
  const int64_t start = now_ns();
  for (uint64_t i = 0;; ++i) {
    const double elapsed = double(now_ns() - start) * 1e-9;
    if (elapsed >= 4 * seconds) break;
    if (elapsed >= seconds && out.mm_us.size() >= min_samples &&
        out.mis_us.size() >= min_samples)
      break;
    const std::size_t j = i % kOrders;
    const uint64_t order_seed = oracles.seed[j];

    MisResult mis[2];
    int64_t t0 = now_ns();
    {
      Scope solve(log, kSolveMis, ++request);
      for (int gi = 0; gi < 2; ++gi) {
        VertexOrder pi;
        {
          Scope s(log, kOrder, request);
          pi = VertexOrder::random(g[gi].num_vertices(), order_seed);
        }
        Scope s(log, kMisPrefix, request);
        mis[gi] = mis_prefix(g[gi], pi, window(g[gi].num_vertices()));
      }
    }
    int64_t t1 = now_ns();
    out.mis_us.push_back(double(t1 - t0) * 1e-3);
    out.busy_s += double(t1 - t0) * 1e-9;

    MatchResult mm[2];
    t0 = now_ns();
    {
      Scope solve(log, kSolveMm, ++request);
      for (int gi = 0; gi < 2; ++gi) {
        EdgeOrder pi;
        {
          Scope s(log, kOrder, request);
          pi = EdgeOrder::random(g[gi].num_edges(), order_seed);
        }
        Scope s(log, kMmPrefix, request);
        mm[gi] = mm_prefix(g[gi], pi, window(g[gi].num_edges()));
      }
    }
    t1 = now_ns();
    out.mm_us.push_back(double(t1 - t0) * 1e-3);
    out.busy_s += double(t1 - t0) * 1e-9;

    for (int gi = 0; gi < 2; ++gi) {
      out.edges += 2 * g[gi].num_edges();
      report.attempt(2);
      if (mis[gi].in_set != oracles.mis[gi][j])
        report.fail(std::string("mis_prefix differs from mis_sequential on ") +
                    kGraphNames[gi]);
      if (mm[gi].matched_with != oracles.mm[gi][j])
        report.fail(std::string("mm_prefix differs from mm_sequential on ") +
                    kGraphNames[gi]);
    }
  }
  return out;
}

}  // namespace

int run_static_solve(const Options& opt, Report& report) {
  // Inputs (excluded from setup).
  const EdgeList edges[2] = {
      random_graph_nm(kRandomN, kRandomM, hash64(opt.seed, 1)),
      rmat_graph(kRmatScale, kRmatM, hash64(opt.seed, 2))};

  // Setup: the CSR builds, several times; the last pair is kept.
  CsrGraph g[2];
  std::vector<double> setup_s, build_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    g[0] = CsrGraph();
    g[1] = CsrGraph();
    const int64_t t0 = now_ns();
    g[0] = CsrGraph::from_edges(edges[0]);
    g[1] = CsrGraph::from_edges(edges[1]);
    const int64_t t1 = now_ns();
    setup_s.push_back(double(t1 - t0) * 1e-9);
    build_ms.push_back(double(t1 - t0) * 1e-6);
  }

  ScopedNumWorkers width(kWorkers);
  Oracles oracles;
  for (std::size_t j = 0; j < kOrders; ++j) {
    oracles.seed[j] = hash64(opt.seed, 100 + j);
    for (int gi = 0; gi < 2; ++gi) {
      oracles.mis[gi][j] =
          mis_sequential(g[gi],
                         VertexOrder::random(g[gi].num_vertices(),
                                             oracles.seed[j]))
              .in_set;
      oracles.mm[gi][j] =
          mm_sequential(g[gi],
                        EdgeOrder::random(g[gi].num_edges(), oracles.seed[j]))
              .matched_with;
    }
  }

  add_common_context(report, opt);
  report.set_context("workers", std::to_string(kWorkers));
  report.set_context("readers", "0");
  for (int gi = 0; gi < 2; ++gi)
    report.set_context(
        std::string("graph.") + kGraphNames[gi],
        "n=" + std::to_string(g[gi].num_vertices()) +
            " m=" + std::to_string(g[gi].num_edges()) +
            " csr_bytes=" + std::to_string(g[gi].memory_bytes()));

  SpanLog log(0, false, opt.trace ? 1 << 16 : 0);
  uint64_t request = 0;
  report.add("setup_s", median(setup_s), "s", setup_s.size(),
             "median of CSR builds of both graphs");
  report.add("graph.build_ms", median(build_ms), "ms", build_ms.size(),
             "median, both graphs");

  if (!opt.trace) {
    const Phase ph =
        solve_phase(g, oracles, opt.seconds, kMinSamples, log, report, request);
    report.add("peak_rss_mb", double(peak_rss_bytes()) / (1 << 20), "MB", 1,
               "process VmHWM after the timed phase");
    const auto add_engine = [&](const char* name,
                                const std::vector<double>& us) {
      report.add_quantile(std::string(name) + ".batch_p50_us",
                          percentile(us, 0.5), "us", 1, "p50");
      report.add_quantile(std::string(name) + ".batch_p90_us",
                          percentile(us, 0.9), "us", 1, "p90");
      report.add_quantile(std::string(name) + ".solve_ms",
                          percentile(us, 0.5), "ms", 1e-3, "p50");
    };
    add_engine("mis", ph.mis_us);
    add_engine("mm", ph.mm_us);
    report.add("ops_per_s", double(ph.edges) / ph.busy_s, "1/s",
               ph.mis_us.size() + ph.mm_us.size(),
               "input edges solved per second of solve time");
    return report.failed() == 0 ? 0 : 1;
  }

  // Traced run. A: spans on; B: the same untraced; D: obs switched off.
  log.set_on(true);
  const Phase a = solve_phase(g, oracles, opt.seconds * 0.5, 20, log,
                              report, request);
  const std::vector<Span> spans = log.spans();
  log.set_on(false);
  const Phase b = solve_phase(g, oracles, opt.seconds * 0.25, 20, log,
                              report, request);
  obs::set_enabled(false);
  const Phase d = solve_phase(g, oracles, opt.seconds * 0.25, 20, log,
                              report, request);
  obs::set_enabled(true);

  const std::vector<int64_t> self = self_times(spans);
  const auto per_graph = [&](SpanName kernel, int gi) {
    // A request solves the graphs in order, so the gi-th kernel span
    // under each request is graph gi.
    std::vector<double> out;
    std::unordered_map<uint64_t, int> seen;
    for (const Span& s : spans)
      if (s.name == kernel && seen[s.parent]++ == gi)
        out.push_back(double(s.duration()) * 1e-3);
    return out;
  };

  const double mis_prefix_ms = median(child_sum_us(spans, kSolveMis, kMisPrefix)) * 1e-3;
  const double mm_prefix_ms = median(child_sum_us(spans, kSolveMm, kMmPrefix)) * 1e-3;
  report.add("core.order_ms",
             median(child_sum_us(spans, kSolveMis, kOrder)) * 1e-3, "ms",
             a.mis_us.size(), "p50 VertexOrder::random, both graphs");
  report.add("core.edge_order_ms",
             median(child_sum_us(spans, kSolveMm, kOrder)) * 1e-3, "ms",
             a.mm_us.size(), "p50 EdgeOrder::random, both graphs");
  report.add("core.mis_prefix_ms", mis_prefix_ms, "ms", a.mis_us.size(),
             "p50 mis_prefix, both graphs, 4 workers");
  report.add("core.mm_prefix_ms", mm_prefix_ms, "ms", a.mm_us.size(),
             "p50 mm_prefix, both graphs, 4 workers");
  for (int gi = 0; gi < 2; ++gi) {
    report.add(std::string("core.mis_prefix_ms.") + kGraphNames[gi],
               median(per_graph(kMisPrefix, gi)) * 1e-3, "ms",
               a.mis_us.size(), "p50");
    report.add(std::string("core.mm_prefix_ms.") + kGraphNames[gi],
               median(per_graph(kMmPrefix, gi)) * 1e-3, "ms",
               a.mm_us.size(), "p50");
  }
  report.add_quantile("mis.unattributed_us",
                      percentile(self_us(spans, self, kSolveMis), 0.5), "us",
                      1, "p50 solve span minus its children");
  report.add_quantile("mm.unattributed_us",
                      percentile(self_us(spans, self, kSolveMm), 0.5), "us",
                      1, "p50 solve span minus its children");
  report.add("trace.overhead",
             (median(a.mis_us) + median(a.mm_us)) / (median(b.mis_us) + median(b.mm_us)),
             "ratio", a.mis_us.size() + b.mis_us.size(),
             "traced over untraced p50 solve, MIS + MM");
  report.add("obs.overhead",
             (median(d.mis_us) + median(d.mm_us)) / (median(b.mis_us) + median(b.mm_us)),
             "ratio", d.mis_us.size() + b.mis_us.size(),
             "p50 solve with PARGREEDY_OBS off over on, MIS + MM");

  // Baseline kernels on the first order: 1 worker, sequential, rootset.
  VertexOrder vpi[2];
  EdgeOrder epi[2];
  for (int gi = 0; gi < 2; ++gi) {
    vpi[gi] = VertexOrder::random(g[gi].num_vertices(), oracles.seed[0]);
    epi[gi] = EdgeOrder::random(g[gi].num_edges(), oracles.seed[0]);
  }
  double mis_1w = 0, mm_1w = 0;
  {
    ScopedNumWorkers one(1);
    mis_1w = probe_ms([&] {
      for (int gi = 0; gi < 2; ++gi)
        (void)mis_prefix(g[gi], vpi[gi], window(g[gi].num_vertices()));
    });
    mm_1w = probe_ms([&] {
      for (int gi = 0; gi < 2; ++gi)
        (void)mm_prefix(g[gi], epi[gi], window(g[gi].num_edges()));
    });
  }
  const double mis_seq = probe_ms([&] {
    for (int gi = 0; gi < 2; ++gi) (void)mis_sequential(g[gi], vpi[gi]);
  });
  const double mm_seq = probe_ms([&] {
    for (int gi = 0; gi < 2; ++gi) (void)mm_sequential(g[gi], epi[gi]);
  });
  const double rootset = probe_ms([&] {
    for (int gi = 0; gi < 2; ++gi) {
      (void)mis_rootset(g[gi], vpi[gi]);
      (void)mm_rootset(g[gi], epi[gi]);
    }
  });
  uint64_t mis_rounds = 0, mm_rounds = 0;
  for (int gi = 0; gi < 2; ++gi) {
    const MisResult r = mis_prefix(g[gi], vpi[gi], window(g[gi].num_vertices()),
                                   ProfileLevel::kCounters);
    const MatchResult m = mm_prefix(g[gi], epi[gi], window(g[gi].num_edges()),
                                    ProfileLevel::kCounters);
    mis_rounds += r.profile.rounds;
    mm_rounds += m.profile.rounds;
    report.attempt(2);
    if (r.in_set != oracles.mis[gi][0]) report.fail("counted mis_prefix differs");
    if (m.matched_with != oracles.mm[gi][0]) report.fail("counted mm_prefix differs");
  }
  report.add("core.mis_prefix_1w_ms", mis_1w, "ms", kProbeReps,
             "median, both graphs, 1 worker");
  report.add("core.mm_prefix_1w_ms", mm_1w, "ms", kProbeReps,
             "median, both graphs, 1 worker");
  report.add("core.mis_sequential_ms", mis_seq, "ms", kProbeReps,
             "median, both graphs");
  report.add("core.mm_sequential_ms", mm_seq, "ms", kProbeReps,
             "median, both graphs");
  report.add("core.rootset_ms", rootset, "ms", kProbeReps,
             "median mis_rootset + mm_rootset, both graphs, 4 workers");
  report.add("core.mis_speedup", mis_seq / mis_prefix_ms, "ratio", 1,
             "sequential over prefix at 4 workers");
  report.add("core.mm_speedup", mm_seq / mm_prefix_ms, "ratio", 1,
             "sequential over prefix at 4 workers");
  report.add("core.mis_work_overhead", mis_1w / mis_seq, "ratio", 1,
             "prefix at 1 worker over sequential");
  report.add("core.mm_work_overhead", mm_1w / mm_seq, "ratio", 1,
             "prefix at 1 worker over sequential");
  report.add("core.mis_rounds", double(mis_rounds), "count", 1,
             "prefix rounds, both graphs");
  report.add("core.mm_rounds", double(mm_rounds), "count", 1,
             "prefix rounds, both graphs");

  write_span_file(opt.spans_path, log.spans());
  return report.failed() == 0 ? 0 : 1;
}

}  // namespace perfbench
