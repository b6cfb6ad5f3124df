// Concurrent-reader benchmark: what the lock-free published-read path
// (txn/epoch.hpp + txn/published_state.hpp) delivers to serving threads
// that read committed solutions while the writer keeps committing.
//
// Fixed-work design so the CI compare gate has deterministic columns:
// every reader thread performs exactly kReadsPerThread validated reads
// (a ReadView from the unified read() entry point, checksum-verified,
// with a full-window walk over the guarded raw accessors — the
// refcount-free fast path — and a read().to_vector() deep copy every
// kHeavyEvery-th read). Reader counts sweep 1/2/4/8 with the writer off
// (static window) and on (commit loop racing the readers), per engine:
//
//   * wall_ms / Mreads_s — reader-phase wall clock and aggregate
//     validated-read throughput; scaling across the reader column is the
//     acceptance signal (informational in CI: runner-noise dominated),
//   * copy_us            — one read().to_vector() deep copy, timed
//     single-threaded before the readers start,
//   * writer_commits     — commits the writer landed during the phase
//     (0 when off; racing and hence informational when on),
//   * reader_pins        — obs reader.pins delta for the phase; pure
//     arithmetic in the fixed-work design, so deterministic,
//   * checksum_failures / order_failures — torn or reordered reads seen
//     by any thread; always 0, asserted via PG_CHECK after the join and
//     pinned by the CI compare gate's --worse regex.
//
// With PARGREEDY_JSON_DIR set, tables land in
// BENCH_concurrent_readers.json.
#include <atomic>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/priority/priority_source.hpp"
#include "dynamic/dynamic_matching.hpp"
#include "dynamic/dynamic_mis.hpp"
#include "dynamic/update_batch.hpp"
#include "support/check.hpp"
#include "txn/epoch.hpp"
#include "txn/published_state.hpp"
#include "txn/transaction.hpp"

namespace pargreedy {
namespace {

constexpr uint64_t kReadsPerThread = 256;  // fixed work per reader thread
constexpr uint64_t kHeavyEvery = 16;       // window walk + copy cadence
constexpr uint64_t kWarmupCommits = 6;     // fills the published window
constexpr std::size_t kRetention = 4;      // window width = retention + 1
constexpr uint64_t kWriterBatchOps = 8;
constexpr uint64_t kWeightLevels = 64;

/// Deterministic obs counter read, 0 when the layer is compiled out.
uint64_t obs_counter(const char* name) {
#if PARGREEDY_OBS
  return obs::counter_value(name);
#else
  (void)name;
  return 0;
#endif
}

UpdateBatch writer_batch(const OverlayGraph& graph, uint64_t seed) {
  return UpdateBatch::random_weighted(
      graph.num_vertices(), graph.live_edge_list().edges(),
      /*inserts=*/kWriterBatchOps, /*deletes=*/kWriterBatchOps / 2,
      /*reweights=*/kWriterBatchOps, /*toggles=*/0, kWeightLevels, seed);
}

/// Per-thread tallies; plain fields — each thread owns its slot and the
/// join is the publication point.
struct ReaderTally {
  uint64_t reads = 0;
  uint64_t checksum_failures = 0;
  uint64_t order_failures = 0;
};

/// The fixed-work reader loop. Light read: one read() ReadView of the
/// latest committed version — checksum it, check the latest id never
/// goes backwards. Heavy read (every kHeavyEvery-th): additionally walk
/// the whole window through the guarded raw accessors (consecutive ids,
/// width <= retention, every checksum — the refcount-free path ReadView
/// deliberately trades away) and take the deep-copy read a serving
/// thread would (`read().to_vector()`).
template <typename Txn>
void reader_loop(const Txn& txn, ReaderTally& tally) {
  const auto& state = txn.published_state();
  uint64_t last_latest = 0;
  for (uint64_t i = 0; i < kReadsPerThread; ++i) {
    {
      const auto view = txn.read();
      if (!view.verify_checksum()) ++tally.checksum_failures;
      if (view.version() < last_latest) ++tally.order_failures;
      last_latest = view.version();
    }
    if (i % kHeavyEvery == 0) {
      {
        ReadGuard guard(state.epochs_);
        const auto& window = state.window(guard);
        if (window.versions.empty() ||
            window.versions.size() > kRetention + 1)
          ++tally.order_failures;
        uint64_t expect_id = window.versions.front()->version;
        for (const auto& ver : window.versions) {
          if (!ver->verify_checksum()) ++tally.checksum_failures;
          if (ver->version != expect_id++) ++tally.order_failures;
        }
      }
      if (txn.read().to_vector().empty()) ++tally.order_failures;
    }
    ++tally.reads;
  }
}

/// One engine's sweep over reader counts x writer on/off.
template <typename Engine, typename Txn>
void run_engine(const std::string& series, Engine& engine, uint64_t seed) {
  Txn txn(engine, kRetention);
  for (uint64_t i = 0; i < kWarmupCommits; ++i) {
    txn.begin();
    txn.apply(writer_batch(engine.graph(), seed + i));
    txn.commit();
  }

  // One config column (the compare gate joins rows by their first
  // cell, so it must be unique): "<readers>r/<writer on|off>".
  Table table({"readers/writer", "reads/thread", "wall_ms", "Mreads/s",
               "copy_us", "writer_commits", "reader_pins",
               "checksum_failures", "order_failures"});
  uint64_t writer_seed = seed + 1'000;
  for (std::size_t num_readers : {1, 2, 4, 8}) {
    for (const bool writer_on : {false, true}) {
      // The deep-copy cost, single-threaded and outside the pins delta.
      const double copy_s = time_best_of(bench::timing_reps(), [&] {
        const auto copy = txn.read().to_vector();
        PG_CHECK(!copy.empty());
      });

      const uint64_t pins_before = obs_counter(obs::kReaderPins);
      std::vector<ReaderTally> tallies(num_readers);
      std::atomic<bool> stop{false};
      uint64_t writer_commits = 0;
      std::thread writer;
      if (writer_on)
        writer = std::thread([&] {
          while (!stop.load(std::memory_order_acquire)) {
            txn.begin();
            txn.apply(writer_batch(engine.graph(), ++writer_seed));
            txn.commit();
            ++writer_commits;
          }
        });

      Timer wall;
      std::vector<std::thread> readers;
      readers.reserve(num_readers);
      for (std::size_t r = 0; r < num_readers; ++r)
        readers.emplace_back([&txn, &tallies, r] {
          reader_loop(txn, tallies[r]);
        });
      for (auto& t : readers) t.join();
      const double wall_s = wall.elapsed_seconds();
      stop.store(true, std::memory_order_release);
      if (writer.joinable()) writer.join();
      const uint64_t pins = obs_counter(obs::kReaderPins) - pins_before;

      // Bit-exactness gate, outside the timers: no reader may ever have
      // seen a torn or reordered published version.
      uint64_t total_reads = 0, checksum_failures = 0, order_failures = 0;
      for (const ReaderTally& t : tallies) {
        total_reads += t.reads;
        checksum_failures += t.checksum_failures;
        order_failures += t.order_failures;
      }
      PG_CHECK_MSG(checksum_failures == 0,
                   "torn read at readers=" << num_readers);
      PG_CHECK_MSG(order_failures == 0,
                   "reordered read at readers=" << num_readers);
      PG_CHECK(total_reads == num_readers * kReadsPerThread);

      table.add_row(
          {std::to_string(num_readers) + (writer_on ? "r/on" : "r/off"),
           fmt_count(static_cast<int64_t>(kReadsPerThread)),
           fmt_double(wall_s * 1e3, 3),
           fmt_double(static_cast<double>(total_reads) /
                          (wall_s > 0 ? wall_s : 1e-9) / 1e6,
                      3),
           fmt_double(copy_s * 1e6, 3),
           fmt_count(static_cast<int64_t>(writer_commits)),
           fmt_count(static_cast<int64_t>(pins)),
           fmt_count(static_cast<int64_t>(checksum_failures)),
           fmt_count(static_cast<int64_t>(order_failures))});
    }
  }
  bench::emit("concurrent_readers", series, table);
}

void run_mis(const bench::Workload& w, uint64_t seed) {
  CsrGraph g = w.graph;
  g.set_vertex_weights(
      quantized_weights(g.num_vertices(), seed, kWeightLevels));
  DynamicMis engine(EngineOptions::with_source(
      g, PrioritySource::weight_hash_tiebreak(seed)));
  bench::print_header("concurrent_readers",
                      w.name + " — DynamicMis lock-free published reads");
  run_engine<DynamicMis, MisTransaction>("mis: " + w.name, engine, seed);
}

void run_matching(const bench::Workload& w, uint64_t seed) {
  CsrGraph g = w.graph;
  g.set_edge_weights(quantized_weights(g.num_edges(), seed, kWeightLevels));
  DynamicMatching engine(EngineOptions::with_source(
      g, PrioritySource::weight_hash_tiebreak(seed)));
  bench::print_header(
      "concurrent_readers",
      w.name + " — DynamicMatching lock-free published reads");
  run_engine<DynamicMatching, MatchingTransaction>("matching: " + w.name,
                                                   engine, seed);
}

}  // namespace
}  // namespace pargreedy

int main() {
  using namespace pargreedy;
  const BenchScale scale = bench_scale();
  if (!bench::csv_output())
    std::cout << "concurrent_readers — scale preset: " << scale.name << "\n";
  const bench::Workload random = bench::make_random_workload(scale);
  const bench::Workload rmat = bench::make_rmat_workload(scale);
  run_mis(random, 701);
  run_matching(rmat, 702);
  return 0;
}
