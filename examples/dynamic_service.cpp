// Dynamic service demo: a long-lived MIS + matching answering a stream of
// update batches — the "serve traffic instead of recomputing" deployment
// the dynamic engines exist for — plus the transactional layer on top:
// speculative what-if batches served and aborted without disturbing the
// committed state, O(1) snapshots with nested rollback, and versioned
// reads through the commit history.
//
// Commands:
//
//   serve     (default) the original serving loop: each tick a mixed batch
//             of edge churn, in-place reweights, and vertex churn arrives,
//             apply_batch repropagates the affected cone, queries stay
//             available between ticks — and every 4th tick a speculative
//             "surge" batch is evaluated inside a transaction and aborted,
//             with the tick's committed state provably untouched. Every
//             5th tick the maintained solutions are audited against a
//             from-scratch sequential greedy recompute (bit-identical).
//   what-if   evaluates K candidate batches speculatively against the
//             same engine — apply, inspect, abort, repeat — then commits
//             the candidate with the largest maintained MIS.
//   snapshot  walks begin / savepoint / rollback_to / commit and the
//             versioned reads (read(v) across the retained window),
//             printing undo-log sizes along the way.
//   rollback  stress-aborts: applies an escalating series of batches in
//             one transaction and aborts, asserting the engine state is
//             bit-identical to the pre-transaction capture.
//   shards    the same service split across 4 range-partitioned shard
//             engines behind ShardedEngine: per-tick boundary-cone
//             exchange counters, a speculative cross-shard what-if with
//             no committed residue, and checksummed composed versioned
//             reads — every tick checked bit-exact against a single
//             reference engine fed identical traffic.
//   stats     serves a shorter mixed loop (commits + aborted speculation)
//             with a periodic structured stats dump — the obs registry's
//             JSON, engine.* /repro.* /txn.* /reader.* counters and
//             histograms — then a final human-readable catalog.
//
// `--trace-out <file>` (any command) arms span recording and writes the
// flight recorder as Chrome trace_event JSON on exit — open it in
// chrome://tracing or https://ui.perfetto.dev (docs/OBSERVABILITY.md walks
// through it). `--events-out <file>` writes the same format without
// arming spans.
//
// Build & run:  ./examples/dynamic_service [command] [n [m [seed]]]
#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "obs/prometheus.hpp"
#include "pargreedy.hpp"

namespace {

using namespace pargreedy;

uint64_t g_n = 50'000;
uint64_t g_m = 0;  // defaults to 5n
uint64_t g_seed = 7;
constexpr uint64_t kWeightLevels = 64;

CsrGraph make_base() {
  CsrGraph g = CsrGraph::from_edges(random_graph_nm(g_n, g_m, g_seed));
  g.set_vertex_weights(quantized_weights(g_n, g_seed + 10, kWeightLevels));
  g.set_edge_weights(
      quantized_weights(g.num_edges(), g_seed + 11, kWeightLevels));
  return g;
}

UpdateBatch traffic(const OverlayGraph& graph, uint64_t salt,
                    uint64_t scale_div = 1) {
  const uint64_t m = g_m;
  return UpdateBatch::random_weighted(
      g_n, graph.live_edge_list().edges(),
      /*inserts=*/m / (200 * scale_div) + 1,
      /*deletes=*/m / (300 * scale_div) + 1,
      /*reweights=*/m / (150 * scale_div) + 1, /*toggles=*/2, kWeightLevels,
      g_seed + salt);
}

int cmd_serve() {
  const uint64_t ticks = 20;
  Timer build_timer;
  const CsrGraph g = make_base();
  DynamicMis mis(EngineOptions::with_source(
      g, PrioritySource::weight_hash_tiebreak(g_seed + 1)));
  DynamicMatching matching(EngineOptions::with_source(
      g, PrioritySource::weight_hash_tiebreak(g_seed + 2)));
  MisTransaction mis_txn(mis);
  std::cout << "built graph + initial solutions in "
            << fmt_double(build_timer.elapsed_ms()) << " ms (MIS "
            << mis.size() << " vertices, matching " << matching.size()
            << " edges)\n\n";

  double service_ms = 0;
  for (uint64_t tick = 1; tick <= ticks; ++tick) {
    const UpdateBatch batch = traffic(mis.graph(), 100 + tick);

    Timer tick_timer;
    // The MIS serves through its transaction (committed versions feed the
    // versioned-read API); the matching applies directly.
    mis_txn.begin();
    const BatchStats mis_stats = mis_txn.apply(batch);
    mis_txn.commit();
    const BatchStats mm_stats = matching.apply_batch(batch);
    const double tick_ms = tick_timer.elapsed_ms();
    service_ms += tick_ms;

    std::cout << "tick " << tick << ": " << fmt_double(tick_ms, 3)
              << " ms (version " << mis_txn.version() << ")\n  MIS      "
              << mis_stats.summary() << "\n  matching "
              << mm_stats.summary() << "\n";

    if (tick % 4 == 0) {
      // Speculative what-if surge: served, inspected, aborted — the
      // committed solution is provably untouched (epoch + size checks).
      const uint64_t size_before = mis.size();
      Timer spec_timer;
      mis_txn.begin();
      mis_txn.apply(traffic(mis.graph(), 5'000 + tick, /*scale_div=*/4));
      const uint64_t speculative_size = mis.size();
      mis_txn.abort();
      std::cout << "  what-if surge: MIS would be " << speculative_size
                << " (committed " << mis.size() << ", speculated+aborted in "
                << fmt_double(spec_timer.elapsed_ms(), 3) << " ms)\n";
      if (mis.size() != size_before) return 1;
    }

    if (tick % 5 == 0) {
      Timer audit_timer;
      // The snapshot carries the reweighted values, and both orders are
      // built from it, so both audits recompute from the engines' own
      // state alone.
      const CsrGraph h = mis.active_subgraph();
      std::vector<uint8_t> expect =
          mis_sequential(h, mis.vertex_order_for(h)).in_set;
      for (VertexId v = 0; v < g_n; ++v)
        if (!mis.active(v)) expect[v] = 0;
      const bool mis_ok = mis.solution() == expect;

      const CsrGraph hm = matching.active_subgraph();
      const bool mm_ok =
          matching.solution() ==
          mm_sequential(hm, matching.edge_order_for(hm)).matched_with;
      std::cout << "  audit: MIS " << (mis_ok ? "exact" : "DIVERGED")
                << ", matching " << (mm_ok ? "exact" : "DIVERGED")
                << " (from-scratch recompute took "
                << fmt_double(audit_timer.elapsed_ms(), 3) << " ms)\n";
      if (!mis_ok || !mm_ok) return 1;
    }
  }
  std::cout << "\nserved " << ticks << " update batches in "
            << fmt_double(service_ms, 4) << " ms total ("
            << fmt_double(service_ms / static_cast<double>(ticks), 3)
            << " ms/batch amortized), " << mis_txn.version()
            << " committed versions retained back to version "
            << mis_txn.oldest_version() << "\n";
  return 0;
}

int cmd_what_if() {
  const uint64_t candidates = 4;
  DynamicMis mis(EngineOptions::with_source(
      make_base(), PrioritySource::weight_hash_tiebreak(g_seed + 1)));
  MisTransaction txn(mis);
  std::cout << "what-if: evaluating " << candidates
            << " candidate batches speculatively (baseline MIS "
            << mis.size() << ")\n";

  uint64_t best_salt = 0, best_size = 0;
  for (uint64_t c = 0; c < candidates; ++c) {
    const uint64_t salt = 2'000 + 31 * c;
    Timer t;
    txn.begin();
    txn.apply(traffic(mis.graph(), salt, /*scale_div=*/2));
    const uint64_t size = mis.size();
    txn.abort();
    std::cout << "  candidate " << c << ": MIS would be " << size
              << " (speculated+aborted in " << fmt_double(t.elapsed_ms(), 3)
              << " ms)\n";
    if (size > best_size) {
      best_size = size;
      best_salt = salt;
    }
  }
  txn.begin();
  txn.apply(traffic(mis.graph(), best_salt, /*scale_div=*/2));
  const uint64_t version = txn.commit();
  std::cout << "committed the best candidate as version " << version
            << " (MIS " << mis.size() << ", expected " << best_size << ")\n";
  return mis.size() == best_size ? 0 : 1;
}

int cmd_snapshot() {
  DynamicMis mis(EngineOptions::with_source(
      make_base(), PrioritySource::weight_hash_tiebreak(g_seed + 1)));
  MisTransaction txn(mis);
  std::vector<uint64_t> sizes{mis.size()};  // per committed version

  std::cout << "snapshot: committing 3 versions, then nesting savepoints\n";
  for (uint64_t i = 1; i <= 3; ++i) {
    txn.begin();
    txn.apply(traffic(mis.graph(), 3'000 + i));
    txn.commit();
    sizes.push_back(mis.size());
    std::cout << "  version " << txn.version() << ": MIS " << mis.size()
              << "\n";
  }
  for (uint64_t v = txn.oldest_version(); v <= txn.version(); ++v) {
    const auto view = txn.read(v);  // zero-copy versioned ReadView
    uint64_t size = 0;
    for (const uint8_t bit : view.values()) size += bit;
    std::cout << "  read(" << v << "): MIS " << size
              << (size == sizes[v] ? "" : "  MISMATCH") << "\n";
    if (size != sizes[v]) return 1;
  }

  txn.begin();
  txn.apply(traffic(mis.graph(), 3'100));
  const EngineSnapshot sp = txn.savepoint();
  txn.apply(traffic(mis.graph(), 3'101));
  std::cout << "  open transaction: 2 batches applied, MIS " << mis.size()
            << "; rolling back the second\n";
  txn.rollback_to(sp);
  std::cout << "  after rollback_to: MIS " << mis.size()
            << "; committed read still serves version " << txn.version()
            << " (MIS " << sizes.back() << ")\n";
  uint64_t committed_size = 0;
  for (const uint8_t bit : txn.committed_solution()) committed_size += bit;
  if (committed_size != sizes.back()) return 1;
  txn.commit();
  std::cout << "committed as version " << txn.version() << "\n";
  return 0;
}

int cmd_rollback() {
  DynamicMis mis(EngineOptions::with_source(
      make_base(), PrioritySource::weight_hash_tiebreak(g_seed + 1)));
  DynamicMatching matching(EngineOptions::with_source(
      make_base(), PrioritySource::weight_hash_tiebreak(g_seed + 2)));
  MisTransaction mis_txn(mis);
  MatchingTransaction mm_txn(matching);

  const std::vector<uint8_t> mis_before = mis.solution();
  const std::vector<VertexId> mm_before = matching.solution();
  const uint64_t mis_epoch = mis.epoch();

  std::cout << "rollback: applying 3 escalating batches speculatively\n";
  Timer t;
  mis_txn.begin();
  mm_txn.begin();
  for (uint64_t i = 0; i < 3; ++i) {
    const UpdateBatch batch = traffic(mis.graph(), 4'000 + i, 1 + i);
    mis_txn.apply(batch);
    mm_txn.apply(batch);
  }
  std::cout << "  speculative state: MIS " << mis.size() << ", matching "
            << matching.size() << " ("
            << mis_txn.txn_stats().summary() << ")\n";
  mis_txn.abort();
  mm_txn.abort();
  std::cout << "  aborted in " << fmt_double(t.elapsed_ms(), 3)
            << " ms total\n";

  const bool ok = mis.solution() == mis_before &&
                  matching.solution() == mm_before &&
                  mis.epoch() == mis_epoch;
  std::cout << "  state bit-identical to pre-transaction capture: "
            << (ok ? "yes" : "NO") << "\n";
  return ok ? 0 : 1;
}

int cmd_readers() {
  // N query threads serve lock-free committed reads through the unified
  // read() entry point — each call returns a self-contained ReadView of
  // the newest committed version (txn/read_view.hpp) while the writer
  // loop commits and aborts: the many-client read side of the service.
  // Every observation is checksum-validated; each reader must observe
  // at least one committed version before the service shuts down.
  const uint64_t ticks = 12;
  const std::size_t num_readers = 4;
  DynamicMis mis(EngineOptions::with_source(
      make_base(), PrioritySource::weight_hash_tiebreak(g_seed + 1)));
  MisTransaction txn(mis);

  std::atomic<bool> stop{false};
  struct Tally {
    std::atomic<uint64_t> reads{0};
    std::atomic<uint64_t> checksum_failures{0};
    std::atomic<uint64_t> max_version{0};
  };
  std::vector<Tally> tallies(num_readers);
  std::vector<std::thread> readers;
  readers.reserve(num_readers);
  for (std::size_t r = 0; r < num_readers; ++r)
    readers.emplace_back([&txn, &stop, &tallies, r] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto view = txn.read();
        if (!view.verify_checksum())
          tallies[r].checksum_failures.fetch_add(1);
        tallies[r].max_version.store(view.version());
        tallies[r].reads.fetch_add(1);
      }
    });

  std::cout << "readers: " << num_readers
            << " query threads serving lock-free committed reads while "
               "the writer runs "
            << ticks << " ticks\n";
  Timer service_timer;
  for (uint64_t tick = 1; tick <= ticks; ++tick) {
    txn.begin();
    txn.apply(traffic(mis.graph(), 100 + tick));
    if (tick % 3 == 0) {
      txn.abort();  // speculation — must never surface to a reader
    } else {
      txn.commit();
    }
  }
  const double service_ms = service_timer.elapsed_ms();
  // The writer can outrun thread startup on a narrow machine (12 ticks
  // finish in ~ms); hold the readers open until every thread has
  // validated at least one read of a committed version. Readers never
  // block and the published latest only advances, so this terminates.
  for (const auto& tally : tallies)
    while (tally.max_version.load() == 0) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  uint64_t total_reads = 0, failures = 0;
  bool every_reader_current = true;
  for (std::size_t r = 0; r < num_readers; ++r) {
    total_reads += tallies[r].reads.load();
    failures += tallies[r].checksum_failures.load();
    every_reader_current &= tallies[r].max_version.load() > 0;
    std::cout << "  reader " << r << ": " << tallies[r].reads.load()
              << " validated reads, newest version observed "
              << tallies[r].max_version.load() << "\n";
  }
  std::cout << "served " << total_reads << " lock-free reads across "
            << num_readers << " threads during "
            << fmt_double(service_ms, 3) << " ms of writer work ("
            << txn.version() << " committed versions, retained back to "
            << txn.oldest_version() << "); checksum failures: " << failures
            << "\n";
  return failures == 0 && total_reads > 0 && every_reader_current ? 0 : 1;
}

int cmd_shards() {
  // Sharded deployment demo: the same service split across 4
  // range-partitioned shard engines behind ShardedEngine, fed the
  // identical traffic as a single reference engine and checked
  // bit-exact after every tick. Prints the boundary-cone exchange
  // counters (rounds, ghost activity seeds, conflict retries) that the
  // sharded_batch bench races at scale, demonstrates a speculative
  // what_if with no committed residue, and finishes with a checksummed
  // composed read of a retained version.
  const uint64_t ticks = 6;
  const uint32_t shards = 4;
  const CsrGraph g = make_base();
  const PrioritySource src = PrioritySource::weight_hash_tiebreak(g_seed + 1);
  DynamicMis single(EngineOptions::with_source(g, src));
  const RangePartitioner part(g_n, shards);
  ShardedEngine<MisTxnTraits> sharded(g, part, src);

  std::cout << "shards: " << shards << " " << sharded.partitioner_name()
            << "-partitioned MIS engines vs one reference engine\n";
  for (uint32_t s = 0; s < shards; ++s)
    std::cout << "  shard " << s << ": " << sharded.live_ghosts(s).size()
              << " ghost vertices (non-owned endpoints of live cross "
                 "edges)\n";
  const auto& built = sharded.construction_exchange();
  std::cout << "  construction exchange: " << built.rounds << " rounds, "
            << built.boundary_seeds << " boundary seeds\n";
  if (sharded.solution() != single.solution()) return 1;

  for (uint64_t tick = 1; tick <= ticks; ++tick) {
    const UpdateBatch batch = traffic(single.graph(), 7'000 + tick);
    single.apply_batch(batch);
    Timer t;
    const BatchStats stats = sharded.apply_batch(batch);
    const auto& ex = sharded.last_exchange();
    const bool exact = sharded.solution() == single.solution();
    std::cout << "tick " << tick << ": " << fmt_double(t.elapsed_ms(), 3)
              << " ms sharded (" << stats.summary() << ")\n  exchange: "
              << ex.rounds << " rounds, " << ex.boundary_seeds
              << " boundary seeds, " << ex.conflict_retries
              << " conflict retries; composed solution "
              << (exact ? "bit-exact" : "DIVERGED") << "\n";
    if (!exact) return 1;

    if (tick % 3 == 0) {
      // Speculative cross-shard what-if: evaluated through the same
      // exchange, then rolled back on every shard — no residue.
      const auto committed = sharded.committed_solution();
      const auto what =
          sharded.what_if(traffic(single.graph(), 8'000 + tick, 4));
      std::cout << "  what-if across shards: " << what.exchange.rounds
                << " exchange rounds speculated+rolled back; committed "
                << (sharded.committed_solution() == committed
                        ? "untouched"
                        : "DISTURBED")
                << "\n";
      if (sharded.committed_solution() != committed) return 1;
    }
  }

  const uint64_t oldest = sharded.oldest_version();
  const auto view = sharded.read(oldest);
  std::cout << "composed read of retained version " << oldest << ": "
            << (view.verify_checksums() ? "checksums verified"
                                        : "CHECKSUM FAILURE")
            << " across " << shards << " shard views (lockstep clock at "
            << sharded.version().value() << ")\n";
  return view.verify_checksums() ? 0 : 1;
}

int cmd_stats() {
#if PARGREEDY_OBS
  const uint64_t ticks = 12;
  const CsrGraph g = make_base();
  DynamicMis mis(EngineOptions::with_source(
      g, PrioritySource::weight_hash_tiebreak(g_seed + 1)));
  DynamicMatching matching(EngineOptions::with_source(
      g, PrioritySource::weight_hash_tiebreak(g_seed + 2)));
  MisTransaction mis_txn(mis);
  auto& registry = obs::MetricsRegistry::global();

  std::cout << "stats: serving " << ticks
            << " ticks with a structured dump every 4th\n";
  for (uint64_t tick = 1; tick <= ticks; ++tick) {
    const UpdateBatch batch = traffic(mis.graph(), 100 + tick);
    mis_txn.begin();
    mis_txn.apply(batch);
    mis_txn.commit();
    matching.apply_batch(batch);

    if (tick % 3 == 0) {
      // Aborted speculation, so the txn.abort.* counters carry signal.
      mis_txn.begin();
      mis_txn.apply(traffic(mis.graph(), 5'000 + tick, /*scale_div=*/4));
      mis_txn.abort();
    }
    if (tick % 4 == 0) {
      std::cout << "stats@tick" << tick << " ";
      registry.write_json(std::cout);
      std::cout << "\n";
    }
  }

  // Sharded segment: a few ticks through a 4-shard engine, so the dump
  // below carries labeled per-shard series (shard.*{shard="s"}) and not
  // just the merged shard.* totals that hide skew.
  {
    const uint32_t shards = 4;
    const RangePartitioner part(g_n, shards);
    ShardedEngine<MisTxnTraits> sharded(
        g, part, PrioritySource::weight_hash_tiebreak(g_seed + 1));
    for (uint64_t tick = 1; tick <= 3; ++tick)
      sharded.apply_batch(traffic(mis.graph(), 9'000 + tick));
    const auto& ex = sharded.lifetime_exchange();
    std::cout << "\nsharded segment: " << shards << " shards, "
              << ex.rounds << " exchange rounds, " << ex.boundary_seeds
              << " boundary seeds, " << ex.conflict_retries
              << " conflict retries\n";
  }

  std::cout << "\nper-shard breakdown (labeled series):\n";
  for (const auto& sample : registry.snapshot()) {
    const auto [base, labels] = obs::split_labels(sample.name);
    if (labels.empty() || base.rfind("shard.", 0) != 0) continue;
    std::cout << "  " << base << "{" << labels << "}  " << sample.counter
              << "\n";
  }

  std::cout << "\nflight recorder: "
            << obs::EventRecorder::global().event_count()
            << " records retained, "
            << obs::EventRecorder::global().overwritten()
            << " overwritten\n";

  std::cout << "\nfinal metric catalog:\n";
  registry.print(std::cout);
  // Sanity the dump is live: the loop above committed and aborted.
  return registry.counter_value(obs::kTxnCommit) >= ticks &&
                 registry.counter_value(obs::kTxnAbort) >= ticks / 3
             ? 0
             : 1;
#else
  std::cout << "stats: observability is compiled out (PARGREEDY_OBS=0); "
               "nothing to report\n";
  return 0;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && (std::strcmp(argv[1], "--help") == 0 ||
                   std::strcmp(argv[1], "-h") == 0)) {
    std::cout
        << "usage: dynamic_service [command] [n [m [seed]]]\n"
           "\n"
           "Long-lived DynamicMis + DynamicMatching engines under weighted\n"
           "(weight_hash_tiebreak) priorities, serving mixed edge/vertex\n"
           "update batches with transactional speculation on top.\n"
           "\n"
           "commands:\n"
           "  serve     (default) 20 ticks of mixed batches — edge churn,\n"
           "            in-place reweights, vertex churn — with a\n"
           "            speculative what-if surge aborted every 4th tick\n"
           "            and a from-scratch oracle audit every 5th\n"
           "  what-if   speculate 4 candidate batches, abort each, commit\n"
           "            the one with the largest MIS\n"
           "  snapshot  checkpoint/savepoint walkthrough: nested\n"
           "            rollback_to plus versioned reads (read(v))\n"
           "  rollback  apply escalating batches in one transaction,\n"
           "            abort, verify bit-identical restoration\n"
           "  readers   4 query threads serve lock-free committed reads\n"
           "            through read() ReadViews (checksummed) while the\n"
           "            writer loop commits and aborts\n"
           "  shards    the service split across 4 range-partitioned\n"
           "            shard engines (ShardedEngine): per-tick\n"
           "            boundary-cone exchange counters, a cross-shard\n"
           "            what-if with no committed residue, composed\n"
           "            versioned reads — bit-exact vs one engine\n"
           "  stats     short serving loop (plus a 4-shard segment) with\n"
           "            a periodic structured stats dump (obs registry\n"
           "            JSON), the labeled per-shard breakdown, and a\n"
           "            final human-readable metric catalog\n"
           "\n"
           "options:\n"
           "  --trace-out <file>   record scoped spans too, and write the\n"
           "                       flight recorder as Chrome trace_event\n"
           "                       JSON on exit (open in chrome://tracing\n"
           "                       or ui.perfetto.dev)\n"
           "  --prom-out <file>    write the metrics registry snapshot in\n"
           "                       Prometheus text exposition format on\n"
           "                       exit (per-shard/per-policy labeled\n"
           "                       series included)\n"
           "  --events-out <file>  write the flight recorder (each\n"
           "                       thread's last 8192 records, with\n"
           "                       batch/txn/shard correlation ids) in\n"
           "                       the same format on exit, without\n"
           "                       recording spans\n"
           "\n"
           "arguments:\n"
           "  n     vertex count of the random base graph (default 50000)\n"
           "  m     edge count (default 5n)\n"
           "  seed  RNG seed for graph, priorities, and traffic (default 7)\n";
    return 0;
  }

  std::string trace_out;
  std::string prom_out;
  std::string events_out;
  std::vector<char*> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--prom-out") == 0 && i + 1 < argc) {
      prom_out = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--events-out") == 0 && i + 1 < argc) {
      events_out = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
#if PARGREEDY_OBS
  if (!trace_out.empty() && !pargreedy::obs::arm_spans())
    std::cerr << "dynamic_service: --trace-out ignored — the obs runtime "
                 "switch is off (PARGREEDY_OBS=0 in the environment)\n";
#else
  if (!trace_out.empty() || !prom_out.empty() || !events_out.empty())
    std::cerr << "dynamic_service: --trace-out/--prom-out/--events-out "
                 "ignored — observability was compiled out "
                 "(PARGREEDY_OBS=0)\n";
#endif

  std::size_t arg = 0;
  std::string command = "serve";
  if (arg < args.size() &&
      !std::isdigit(static_cast<unsigned char>(*args[arg]))) {
    command = args[arg++];
  }
  g_n = arg < args.size() ? std::stoull(args[arg++]) : 50'000;
  g_m = arg < args.size() ? std::stoull(args[arg++]) : 5 * g_n;
  g_seed = arg < args.size() ? std::stoull(args[arg++]) : 7;
  if (g_m == 0) g_m = 5 * g_n;

  std::cout << "dynamic_service " << command << ": n=" << g_n
            << " m=" << g_m << " seed=" << g_seed << "\n";
  int rc = 2;
  if (command == "serve")
    rc = cmd_serve();
  else if (command == "what-if")
    rc = cmd_what_if();
  else if (command == "snapshot")
    rc = cmd_snapshot();
  else if (command == "rollback")
    rc = cmd_rollback();
  else if (command == "readers")
    rc = cmd_readers();
  else if (command == "shards")
    rc = cmd_shards();
  else if (command == "stats")
    rc = cmd_stats();
  else
    std::cerr << "unknown command '" << command
              << "' (expected serve, what-if, snapshot, rollback, "
                 "readers, shards, or stats); see --help\n";

#if PARGREEDY_OBS
  const auto write_recording = [](const std::string& path, const char* what) {
    auto& recorder = pargreedy::obs::EventRecorder::global();
    if (recorder.write_file(path))
      std::cout << what << " written to " << path << " ("
                << recorder.event_count() << " records)\n";
    else
      std::cerr << "dynamic_service: failed to write " << what << " to "
                << path << "\n";
  };
  if (!trace_out.empty() && pargreedy::obs::spans_armed())
    write_recording(trace_out, "trace");
  if (!prom_out.empty()) {
    if (pargreedy::obs::write_prometheus_file(prom_out))
      std::cout << "prometheus exposition written to " << prom_out << "\n";
    else
      std::cerr << "dynamic_service: failed to write metrics to " << prom_out
                << "\n";
  }
  if (!events_out.empty()) write_recording(events_out, "flight recorder");
#endif
  return rc;
}
