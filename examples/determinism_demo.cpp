// Determinism demo — the paper's practical selling point made visible.
//
// Runs the same MIS/MM instance through every implementation, at several
// worker counts and window sizes, and prints a content hash of each result:
// every greedy variant prints the SAME hash (they all compute the
// lexicographically-first solution for pi), while Luby's algorithm — which
// re-randomizes priorities each round — prints a different one (it is
// deterministic in its own seed, but it is a different MIS).
//
// Build & run:  ./examples/determinism_demo [n] [m] [seed]
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "pargreedy.hpp"

namespace {

using namespace pargreedy;

/// Order-sensitive FNV-style hash of a byte vector (content fingerprint).
uint64_t fingerprint(const std::vector<uint8_t>& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(uint64_t h) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t n = argc > 1 ? std::stoull(argv[1]) : 100'000;
  const uint64_t m = argc > 2 ? std::stoull(argv[2]) : 5 * n;
  const uint64_t seed = argc > 3 ? std::stoull(argv[3]) : 1;

  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(n, m, seed));
  const VertexOrder pi = VertexOrder::random(g.num_vertices(), seed + 1);
  const EdgeOrder sigma = EdgeOrder::random(g.num_edges(), seed + 2);
  std::cout << "determinism_demo: n=" << g.num_vertices()
            << " m=" << g.num_edges() << "\n\n";

  Table mis_table({"algorithm", "workers", "mis_size", "fingerprint"});
  uint64_t reference = 0;
  bool all_equal = true;
  for (int workers : {1, 2, 4}) {
    ScopedNumWorkers guard(workers);
    const struct {
      const char* name;
      std::vector<uint8_t> in_set;
    } runs[] = {
        {"sequential (Alg 1)", mis_sequential(g, pi).in_set},
        {"rootset (Lemma 4.2)", mis_rootset(g, pi).in_set},
        {"prefix w=64 (Alg 3)", mis_prefix(g, pi, 64).in_set},
        {"prefix w=n/50", mis_prefix(g, pi, n / 50 + 1).in_set},
        {"prefix w=n", mis_prefix(g, pi, n).in_set},
    };
    for (const auto& run : runs) {
      const uint64_t h = fingerprint(run.in_set);
      if (reference == 0) reference = h;
      all_equal = all_equal && h == reference;
      uint64_t size = 0;
      for (uint8_t b : run.in_set) size += b;
      mis_table.add_row({run.name, std::to_string(workers),
                         fmt_count(static_cast<int64_t>(size)), hex(h)});
    }
  }
  // Luby: a valid MIS, deterministic in its seed — but a different set.
  const MisResult luby = luby_mis(g, seed + 3);
  mis_table.add_row({"Luby (different MIS!)", std::to_string(num_workers()),
                     fmt_count(static_cast<int64_t>(luby.size())),
                     hex(fingerprint(luby.in_set))});
  mis_table.print(std::cout);
  std::cout << "\nall greedy variants identical: "
            << (all_equal ? "yes" : "NO") << "; Luby differs: "
            << (fingerprint(luby.in_set) != reference ? "yes" : "no")
            << "\n\n";

  Table mm_table({"algorithm", "workers", "mm_size", "fingerprint"});
  uint64_t mm_reference = 0;
  bool mm_equal = true;
  for (int workers : {1, 4}) {
    ScopedNumWorkers guard(workers);
    const struct {
      const char* name;
      std::vector<uint8_t> in_matching;
    } runs[] = {
        {"sequential", mm_sequential(g, sigma).in_matching},
        {"naive parallel (Alg 4)", mm_parallel_naive(g, sigma).in_matching},
        {"rootset (Lemma 5.3)", mm_rootset(g, sigma).in_matching},
        {"prefix w=m/50", mm_prefix(g, sigma, m / 50 + 1).in_matching},
    };
    for (const auto& run : runs) {
      const uint64_t h = fingerprint(run.in_matching);
      if (mm_reference == 0) mm_reference = h;
      mm_equal = mm_equal && h == mm_reference;
      uint64_t size = 0;
      for (uint8_t b : run.in_matching) size += b;
      mm_table.add_row({run.name, std::to_string(workers),
                        fmt_count(static_cast<int64_t>(size)), hex(h)});
    }
  }
  mm_table.print(std::cout);
  std::cout << "\nall matching variants identical: "
            << (mm_equal ? "yes" : "NO") << "\n";
  return all_equal && mm_equal ? 0 : 1;
}
