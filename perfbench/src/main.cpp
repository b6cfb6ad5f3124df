// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload <static-solve|serve-small|serve-large>
//             --seed <n> --seconds <s> --trace <0|1>
//             --out <results.json> [--spans <spans.tsv>] [--commit <id>]
//
// Prints the run context and the metric ledger, writes every metric to
// --out as JSON, and (traced runs) the recorded spans to --spans. Exits
// non-zero when any operation failed or an audit disagreed with its
// oracle. run.py builds this program and selects the metrics
// BENCHMARK.json names.
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace perfbench {

void write_span_file(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  write_spans(out, spans);
  if (!out) std::cerr << "perfbench: cannot write spans to " << path << "\n";
}

}  // namespace perfbench

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <static-solve|serve-small|"
               "serve-large> --seed <n> --seconds <s> --trace <0|1> --out "
               "<file> [--spans <file>] [--commit <id>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string out_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage();
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opt.seconds > 0) || opt.seconds > 600)
        return usage();
    } else if (key == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--out") {
      out_path = value;
    } else if (key == "--spans") {
      opt.spans_path = value;
    } else if (key == "--commit") {
      opt.commit = value;
    } else {
      return usage();
    }
  }
  if (out_path.empty() || argc % 2 == 0) return usage();

  perfbench::Report report;
  int rc = 0;
  try {
    if (opt.workload == "static-solve")
      rc = perfbench::run_static_solve(opt, report);
    else if (opt.workload == "serve-small" || opt.workload == "serve-large")
      rc = perfbench::run_serve(opt, report);
    else
      return usage();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 3;
  }
  report.print(std::cout);
  std::ofstream out(out_path, std::ios::trunc);
  report.write_json(out);
  out.flush();
  if (!out) {
    std::cerr << "perfbench: cannot write " << out_path << "\n";
    return 3;
  }
  return rc;
}
