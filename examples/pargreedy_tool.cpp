// pargreedy_tool — command-line front end to the library, for working with
// graph files without writing C++:
//
//   pargreedy_tool gen <family> <out.pgrb> [args...]   generate a workload
//   pargreedy_tool stats <graph>                       structural summary
//   pargreedy_tool convert <in> <out>                  re-serialize a graph
//   pargreedy_tool mis <graph> [--seed S] [--window W] [--algo A]
//   pargreedy_tool mm  <graph> [--seed S] [--window W] [--algo A]
//
// Graph files are detected by extension: .pgrb (binary), .adj (PBBS
// AdjacencyGraph text), .edges (EdgeArray text). Families for `gen`:
//   random <n> <m>         sparse uniform random (the paper's workload 1)
//   rmat <scale> <m>       rMat power law (the paper's workload 2)
//   grid <rows> <cols>     2D mesh
//   ba <n> <k>             Barabasi-Albert
//   ws <n> <k> <beta>      Watts-Strogatz
// Every subcommand is deterministic in its arguments and --seed.
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "pargreedy.hpp"

namespace {

using namespace pargreedy;

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage:\n"
      "  pargreedy_tool gen <family> <out> [family args] [--seed S]\n"
      "  pargreedy_tool stats <graph>\n"
      "  pargreedy_tool convert <in> <out>\n"
      "  pargreedy_tool mis <graph> [--seed S] [--window W] [--algo "
      "prefix|rootset|naive|seq|luby]\n"
      "  pargreedy_tool mm <graph> [--seed S] [--window W] [--algo "
      "prefix|rootset|naive|seq]\n"
      "  pargreedy_tool color <graph> [--seed S] [--window W]\n"
      "  pargreedy_tool forest <graph> [--seed S] [--window W]\n"
      "  pargreedy_tool clique <graph> [--seed S] [--window W]\n";
  std::exit(2);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

CsrGraph load_graph(const std::string& path) {
  if (ends_with(path, ".pgrb")) return read_binary_graph(path);
  if (ends_with(path, ".adj")) return read_adjacency_graph(path);
  if (ends_with(path, ".edges"))
    return CsrGraph::from_edges(read_edge_list(path));
  usage("unknown graph extension on " + path + " (.pgrb/.adj/.edges)");
}

void save_graph(const std::string& path, const CsrGraph& g) {
  if (ends_with(path, ".pgrb")) return write_binary_graph(path, g);
  if (ends_with(path, ".adj")) return write_adjacency_graph(path, g);
  if (ends_with(path, ".edges")) {
    EdgeList el(g.num_vertices());
    for (const Edge& e : g.edges()) el.add(e.u, e.v);
    return write_edge_list(path, el);
  }
  usage("unknown output extension on " + path);
}

struct Options {
  uint64_t seed = 1;
  uint64_t window = 0;  // 0: auto (input/50)
  std::string algo = "prefix";
  std::vector<std::string> positional;
};

Options parse(int argc, char** argv, int first) {
  Options o;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--seed") o.seed = std::stoull(next());
    else if (arg == "--window") o.window = std::stoull(next());
    else if (arg == "--algo") o.algo = next();
    else if (arg.rfind("--", 0) == 0) usage("unknown flag " + arg);
    else o.positional.push_back(arg);
  }
  return o;
}

int cmd_gen(const Options& o) {
  if (o.positional.size() < 2) usage("gen needs <family> <out>");
  const std::string& family = o.positional[0];
  const std::string& out = o.positional[1];
  auto arg = [&](std::size_t i) -> uint64_t {
    if (o.positional.size() <= 2 + i) usage(family + ": missing argument");
    return std::stoull(o.positional[2 + i]);
  };
  EdgeList el;
  if (family == "random") el = random_graph_nm(arg(0), arg(1), o.seed);
  else if (family == "rmat")
    el = rmat_graph(static_cast<unsigned>(arg(0)), arg(1), o.seed);
  else if (family == "grid") el = grid_graph(arg(0), arg(1));
  else if (family == "ba") el = barabasi_albert(arg(0), arg(1), o.seed);
  else if (family == "ws") {
    if (o.positional.size() < 5) usage("ws needs <n> <k> <beta>");
    el = watts_strogatz(arg(0), arg(1), std::stod(o.positional[4]), o.seed);
  } else usage("unknown family " + family);
  const CsrGraph g = CsrGraph::from_edges(el);
  save_graph(out, g);
  std::cout << "wrote " << out << ": n=" << g.num_vertices()
            << " m=" << g.num_edges() << "\n";
  return 0;
}

int cmd_stats(const Options& o) {
  if (o.positional.size() != 1) usage("stats needs <graph>");
  const CsrGraph g = load_graph(o.positional[0]);
  require_valid(g);
  const DegreeStats ds = degree_stats(g);
  const VertexOrder pi = VertexOrder::random(g.num_vertices(), o.seed);
  Table t({"metric", "value"});
  t.add_row({"vertices", fmt_count(static_cast<int64_t>(g.num_vertices()))});
  t.add_row({"edges", fmt_count(static_cast<int64_t>(g.num_edges()))});
  t.add_row({"min degree", fmt_count(static_cast<int64_t>(ds.min_degree))});
  t.add_row({"max degree", fmt_count(static_cast<int64_t>(ds.max_degree))});
  t.add_row({"avg degree", fmt_double(ds.avg_degree)});
  t.add_row({"isolated", fmt_count(static_cast<int64_t>(ds.isolated_vertices))});
  t.add_row({"components",
             fmt_count(static_cast<int64_t>(count_components(g)))});
  t.add_row({"dependence length (random pi)",
             fmt_count(static_cast<int64_t>(dependence_length(g, pi)))});
  t.add_row({"memory", fmt_count(static_cast<int64_t>(g.memory_bytes()))});
  t.print(std::cout);
  return 0;
}

int cmd_convert(const Options& o) {
  if (o.positional.size() != 2) usage("convert needs <in> <out>");
  const CsrGraph g = load_graph(o.positional[0]);
  save_graph(o.positional[1], g);
  std::cout << "converted " << o.positional[0] << " -> " << o.positional[1]
            << " (n=" << g.num_vertices() << ", m=" << g.num_edges() << ")\n";
  return 0;
}

int cmd_mis(const Options& o) {
  if (o.positional.size() != 1) usage("mis needs <graph>");
  const CsrGraph g = load_graph(o.positional[0]);
  const VertexOrder pi = VertexOrder::random(g.num_vertices(), o.seed);
  const uint64_t window =
      o.window > 0 ? o.window : g.num_vertices() / 50 + 1;
  Timer timer;
  MisResult r;
  if (o.algo == "prefix") r = mis_prefix(g, pi, window);
  else if (o.algo == "rootset") r = mis_rootset(g, pi);
  // Algorithm 2 is the prefix kernel with the whole graph as its window.
  else if (o.algo == "naive") r = mis_prefix(g, pi, g.num_vertices());
  else if (o.algo == "seq") r = mis_sequential(g, pi);
  else if (o.algo == "luby") r = luby_mis(g, o.seed);
  else usage("unknown MIS algorithm " + o.algo);
  const double ms = timer.elapsed_ms();
  const bool exact =
      o.algo == "luby" || is_lex_first_mis(g, pi, r.in_set);
  std::cout << o.algo << " MIS: " << r.size() << " of " << g.num_vertices()
            << " vertices in " << fmt_double(ms) << " ms; valid="
            << (is_maximal_independent_set(g, r.in_set) ? "yes" : "NO")
            << (o.algo == "luby"
                    ? std::string("")
                    : std::string("; lex-first=") + (exact ? "yes" : "NO"))
            << "\n";
  return is_maximal_independent_set(g, r.in_set) && exact ? 0 : 1;
}

int cmd_mm(const Options& o) {
  if (o.positional.size() != 1) usage("mm needs <graph>");
  const CsrGraph g = load_graph(o.positional[0]);
  const EdgeOrder sigma = EdgeOrder::random(g.num_edges(), o.seed);
  const uint64_t window = o.window > 0 ? o.window : g.num_edges() / 50 + 1;
  Timer timer;
  MatchResult r;
  if (o.algo == "prefix") r = mm_prefix(g, sigma, window);
  else if (o.algo == "rootset") r = mm_rootset(g, sigma);
  else if (o.algo == "naive") r = mm_parallel_naive(g, sigma);
  else if (o.algo == "seq") r = mm_sequential(g, sigma);
  else usage("unknown MM algorithm " + o.algo);
  const double ms = timer.elapsed_ms();
  const bool exact = is_lex_first_matching(g, sigma, r.in_matching);
  std::cout << o.algo << " MM: " << r.size() << " edges in "
            << fmt_double(ms) << " ms; valid="
            << (is_maximal_matching(g, r.in_matching) ? "yes" : "NO")
            << "; lex-first=" << (exact ? "yes" : "NO") << "\n";
  return is_maximal_matching(g, r.in_matching) && exact ? 0 : 1;
}

int cmd_color(const Options& o) {
  if (o.positional.size() != 1) usage("color needs <graph>");
  const CsrGraph g = load_graph(o.positional[0]);
  const VertexOrder pi = VertexOrder::random(g.num_vertices(), o.seed);
  const uint64_t window =
      o.window > 0 ? o.window : g.num_vertices() / 50 + 1;
  Timer timer;
  const ColoringResult r = greedy_coloring_prefix(g, pi, window);
  std::cout << "first-fit coloring: " << r.num_colors << " colors (Delta+1="
            << g.max_degree() + 1 << ") in " << fmt_double(timer.elapsed_ms())
            << " ms; proper="
            << (is_proper_coloring(g, r.color) ? "yes" : "NO") << "\n";
  return is_proper_coloring(g, r.color) ? 0 : 1;
}

int cmd_forest(const Options& o) {
  if (o.positional.size() != 1) usage("forest needs <graph>");
  const CsrGraph g = load_graph(o.positional[0]);
  const EdgeOrder sigma = EdgeOrder::random(g.num_edges(), o.seed);
  const uint64_t window = o.window > 0 ? o.window : g.num_edges() / 50 + 1;
  Timer timer;
  const ForestResult r = spanning_forest_prefix(g, sigma, window);
  std::cout << "spanning forest: " << r.size() << " edges ("
            << g.num_vertices() - count_components(g) << " expected) in "
            << fmt_double(timer.elapsed_ms()) << " ms; valid="
            << (is_spanning_forest(g, r.in_forest) ? "yes" : "NO") << "\n";
  return is_spanning_forest(g, r.in_forest) ? 0 : 1;
}

int cmd_clique(const Options& o) {
  if (o.positional.size() != 1) usage("clique needs <graph>");
  const CsrGraph g = load_graph(o.positional[0]);
  const VertexOrder pi = VertexOrder::random(g.num_vertices(), o.seed);
  const uint64_t window =
      o.window > 0 ? o.window : g.num_vertices() / 50 + 1;
  Timer timer;
  const CliqueResult r = greedy_clique_prefix(g, pi, window);
  std::cout << "greedy maximal clique: " << r.size() << " vertices in "
            << fmt_double(timer.elapsed_ms()) << " ms; valid="
            << (is_maximal_clique(g, r.in_clique) ? "yes" : "NO") << "\n";
  return is_maximal_clique(g, r.in_clique) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    const Options o = parse(argc, argv, 2);
    if (cmd == "gen") return cmd_gen(o);
    if (cmd == "stats") return cmd_stats(o);
    if (cmd == "convert") return cmd_convert(o);
    if (cmd == "mis") return cmd_mis(o);
    if (cmd == "mm") return cmd_mm(o);
    if (cmd == "color") return cmd_color(o);
    if (cmd == "forest") return cmd_forest(o);
    if (cmd == "clique") return cmd_clique(o);
    usage("unknown command " + cmd);
  } catch (const pargreedy::CheckFailure& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
