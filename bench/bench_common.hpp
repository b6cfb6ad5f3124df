// Shared plumbing for the figure-reproduction bench binaries.
//
// Every bench regenerates one figure of the paper's evaluation (Section 6)
// as an ASCII table (or CSV with PARGREEDY_CSV=1). Problem sizes come from
// PARGREEDY_SCALE: "ci" (default; seconds per bench on one core), "medium",
// or "paper" (the exact SPAA'12 sizes: random n=1e7/m=5e7, rMat n=2^24/
// m=5e7).
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "obs/obs.hpp"
#include "support/env.hpp"
#include "support/table.hpp"
#include "support/timing.hpp"

namespace pargreedy::bench {

/// A named benchmark input graph.
struct Workload {
  std::string name;
  CsrGraph graph;
};

/// The paper's first workload: a sparse uniform random graph (n:m = 1:5 at
/// every scale, exactly the paper's ratio).
inline Workload make_random_workload(const BenchScale& scale,
                                     uint64_t seed = 1) {
  Workload w;
  w.name = "random(n=" + std::to_string(scale.random_n) +
           ",m=" + std::to_string(scale.random_m) + ")";
  w.graph = CsrGraph::from_edges(random_graph_nm(
      static_cast<uint64_t>(scale.random_n),
      static_cast<uint64_t>(scale.random_m), seed));
  return w;
}

/// The paper's second workload: an rMat power-law graph [5].
inline Workload make_rmat_workload(const BenchScale& scale,
                                   uint64_t seed = 2) {
  unsigned log_n = 0;
  while ((int64_t{1} << (log_n + 1)) <= scale.rmat_n) ++log_n;
  Workload w;
  w.name = "rMat(n=2^" + std::to_string(log_n) +
           ",m=" + std::to_string(scale.rmat_m) + ")";
  w.graph = CsrGraph::from_edges(rmat_graph(
      log_n, static_cast<uint64_t>(scale.rmat_m), seed));
  return w;
}

/// Prefix-size fractions swept by the Figure 1/2 benches. Covers the full
/// x-axis of the paper's plots (1e-7 .. 1 on the log axis), pruned to the
/// sizes that are distinguishable at the current scale.
inline std::vector<double> prefix_fractions(uint64_t input_size) {
  const std::vector<double> full = {1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 0.003,
                                    0.01, 0.03, 0.1,  0.25, 0.5,  1.0};
  std::vector<double> usable;
  double last_size = 0;
  for (double f : full) {
    const double size = f * static_cast<double>(input_size);
    if (size < 1.0 && f != full.back()) continue;  // indistinct from 1
    if (size - last_size < 1.0) continue;
    usable.push_back(f);
    last_size = size;
  }
  if (usable.empty()) usable.push_back(1.0);
  return usable;
}

/// Window size for a fraction, clamped to [1, input_size].
inline uint64_t window_for(double fraction, uint64_t input_size) {
  const double raw = fraction * static_cast<double>(input_size);
  if (raw < 1.0) return 1;
  if (raw > static_cast<double>(input_size)) return input_size;
  return static_cast<uint64_t>(raw);
}

/// Timing repetitions appropriate to the configured scale.
inline int timing_reps() {
  const std::string preset = env_string("PARGREEDY_SCALE", "ci");
  return preset == "paper" ? 1 : 3;
}

/// True when CSV output was requested (PARGREEDY_CSV=1).
inline bool csv_output() { return env_int64("PARGREEDY_CSV", 0) != 0; }

/// Prints a bench section header (suppressed in CSV mode).
inline void print_header(const std::string& bench, const std::string& what) {
  if (csv_output()) return;
  std::cout << "\n=== " << bench << " — " << what << " ===\n";
}

/// Directory for machine-readable bench capture, or "" when disabled.
inline std::string json_dir() {
  return env_string("PARGREEDY_JSON_DIR", "");
}

/// Rewrites <dir>/<prefix>_<bench>.json with the flight recorder's current
/// contents, where <dir> is the value of the environment variable
/// `dir_var` (same temp-then-rename discipline as the BENCH capture).
/// No-op unless that variable is set and the obs layer is compiled in.
///
/// Two variables select a capture of the same recording:
/// PARGREEDY_TRACE_DIR (TRACE_<bench>.json) also arms span recording
/// (obs/events.hpp), so the standard bench invocation needs no code
/// changes to record spans; PARGREEDY_EVENTS_DIR (EVENTS_<bench>.json)
/// leaves spans unarmed and also arms the obs layer's failure-path dumps,
/// so one env var buys both the on-crash EVENTS_failure_*.json and the
/// end-of-bench recording.
inline void emit_recording(const std::string& bench, const char* dir_var,
                           const char* prefix) {
#if PARGREEDY_OBS
  const std::string dir = env_string(dir_var, "");
  if (dir.empty()) return;
  const std::string file = std::string(prefix) + "_" + bench + ".json";
  if (!obs::EventRecorder::global().write_file(dir + "/" + file,
                                               "bench_capture"))
    std::cerr << "pargreedy: cannot write " << file << " under " << dir
              << "\n";
#else
  (void)bench;
  (void)dir_var;
  (void)prefix;
#endif
}

/// Prints the table in the configured format; when PARGREEDY_JSON_DIR is
/// set, additionally captures every table emitted by this process into
/// <dir>/BENCH_<bench>.json as a JSON array of {name, headers, rows}
/// objects. The file is rewritten on each emit via write-temp-then-rename,
/// so readers always see complete, valid JSON — the artifact perf diffs
/// across PRs are computed from.
inline void emit(const std::string& bench, const std::string& series,
                 const Table& table) {
  table.print(std::cout, csv_output());
  // Independent of the JSON capture knob.
  emit_recording(bench, "PARGREEDY_TRACE_DIR", "TRACE");
  emit_recording(bench, "PARGREEDY_EVENTS_DIR", "EVENTS");
  const std::string dir = json_dir();
  if (dir.empty()) return;
  static std::map<std::string, std::vector<std::pair<std::string, Table>>>
      captured;
  auto& tables = captured[bench];
  tables.emplace_back(series, table);
  const std::string path = dir + "/BENCH_" + bench + ".json";
  const std::string tmp = path + ".tmp";
  bool ok = false;
  {
    std::ofstream out(tmp, std::ios::out | std::ios::trunc);
    if (!out) {
      std::cerr << "pargreedy: cannot write BENCH_" << bench
                << ".json under " << dir << "\n";
      return;
    }
    out << "[\n";
    for (std::size_t i = 0; i < tables.size(); ++i) {
      out << "  ";
      tables[i].second.write_json(out, tables[i].first);
      out << (i + 1 < tables.size() ? ",\n" : "\n");
    }
    out << "]\n";
    out.flush();
    ok = out.good();  // never rename a truncated write over a good file
  }
  if (!ok) {
    std::cerr << "pargreedy: failed writing " << tmp << "; keeping the "
              << "previous BENCH_" << bench << ".json\n";
    std::remove(tmp.c_str());
    return;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    std::cerr << "pargreedy: cannot move " << tmp << " into place\n";
}

}  // namespace pargreedy::bench
