// serve-small and serve-large: one writer, closed loop with one client,
// applies each tick's batch to the MIS engine and then to the matching
// engine through their Transactions (begin, apply, then commit, or abort
// for a what-if). Priorities are weight_hash_tiebreak over quantized
// vertex and edge weights, so reweights move priorities.
//
//   serve-small  rMat ci graph, batches of 2-200 ops, one tick in four a
//                what-if, writer at 2 workers plus 2 reader threads
//                (closed loops) acquiring committed views. Commit and
//                publish dominate; readers share the published state.
//   serve-large  random ci graph, batches of 2k-20k ops, no what-ifs, no
//                readers, writer at 4 workers. Repropagation and overlay
//                work dominate and commits compact every few dozen ticks.
//
// The traced run adds the baselines: from-scratch kernels on the start
// graph, a bare-engine twin fed the same committed batches, a writer-only
// mode and a mode with the obs runtime switch off (interleaved with the
// traced and untraced modes in fixed blocks of ticks, so every mode
// samples the same stretch of the stream), and (serve-small) the same
// tick stream sent through 4-shard ShardedEngines.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/matching/matching.hpp"
#include "core/mis/mis.hpp"
#include "core/priority/priority_source.hpp"
#include "dynamic/dynamic_matching.hpp"
#include "dynamic/dynamic_mis.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "loadgen.hpp"
#include "obs/runtime.hpp"
#include "parallel/arch.hpp"
#include "random/hash.hpp"
#include "shard/partitioner.hpp"
#include "shard/sharded_engine.hpp"
#include "txn/transaction.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace pargreedy;

struct ServeSpec {
  bool rmat = true;
  StreamShape shape;
  uint64_t stream_ticks = 0;  ///< pre-generated; a run ends early past it
  /// Ticks per block of one mode in the traced run: whole what-if periods
  /// and size-ladder cycles, so every mode sees the same batch mix.
  uint64_t block_ticks = 0;
  int workers = 2;
  int readers = 0;
  bool sharded_pass = false;
};

ServeSpec spec_for(const std::string& workload) {
  ServeSpec s;
  if (workload == "serve-small") {
    s.rmat = true;
    s.shape = {2, 200, 16, 4, 64};
    s.stream_ticks = 1 << 15;
    s.block_ticks = 64;
    s.workers = 2;
    s.readers = 2;
    s.sharded_pass = true;
  } else {
    s.rmat = false;
    s.shape = {2'000, 20'000, 16, 0, 64};
    s.stream_ticks = 1 << 10;
    s.block_ticks = 16;
    s.workers = 4;
    s.readers = 0;
  }
  return s;
}

constexpr int kSetupReps = 5;
constexpr uint32_t kShards = 4;
constexpr uint64_t kReadStreamLength = 1 << 16;
// The read mix (k, the copy and retained-version shares) is an arbitrary
// choice: no example or trace in the repository fixes one.
constexpr uint32_t kLookupK = 16;
constexpr uint32_t kCopyEvery = 8192;
constexpr uint32_t kRetainedEvery = 10;
constexpr uint64_t kChecksumEvery = 1 << 16;  ///< reads per checksum check
/// Lookup reads per traced one (copies, being rare, are all traced).
constexpr uint64_t kReadTraceEvery = 512;
constexpr uint64_t kWhatIfCheckEvery = 8;     ///< what-ifs per restore check

struct Inputs {
  uint64_t n = 0;
  uint64_t m = 0;
  EdgeList edges;
  std::vector<Weight> vertex_weights, edge_weights;
  PrioritySource mis_source, mm_source;
  std::vector<Tick> ticks;
  std::vector<ReadStream> reads;  ///< one stream per reader
};

Inputs make_inputs(const ServeSpec& spec, uint64_t seed) {
  Inputs in;
  in.edges = spec.rmat ? rmat_graph(18, 1'000'000, hash64(seed, 1))
                       : random_graph_nm(200'000, 1'000'000, hash64(seed, 1));
  const CsrGraph g = CsrGraph::from_edges(in.edges);
  in.n = g.num_vertices();
  in.m = g.num_edges();
  in.vertex_weights =
      quantized_weights(in.n, hash64(seed, 2), spec.shape.weight_levels);
  in.edge_weights =
      quantized_weights(in.m, hash64(seed, 3), spec.shape.weight_levels);
  in.mis_source = PrioritySource::weight_hash_tiebreak(hash64(seed, 4));
  in.mm_source = PrioritySource::weight_hash_tiebreak(hash64(seed, 5));
  Mirror mirror(in.n, g.edges());
  in.ticks =
      generate_ticks(mirror, spec.shape, spec.stream_ticks, hash64(seed, 6));
  for (int r = 0; r < spec.readers; ++r)
    in.reads.push_back(generate_reads(in.n, kReadStreamLength, kLookupK,
                                      kCopyEvery, kRetainedEvery,
                                      hash64(seed, 10 + r)));
  return in;
}

/// The workload graph with its weights (input copies are not timed).
CsrGraph build_graph(const Inputs& in) {
  CsrGraph g = CsrGraph::from_edges(in.edges);
  g.set_vertex_weights(in.vertex_weights);
  g.set_edge_weights(in.edge_weights);
  return g;
}

/// Both engines and their Transactions. Declaration order makes the
/// Transactions die before the engines they wrap.
struct Service {
  std::unique_ptr<DynamicMis> mis;
  std::unique_ptr<DynamicMatching> mm;
  std::unique_ptr<MisTransaction> mis_txn;
  std::unique_ptr<MatchingTransaction> mm_txn;
};

/// Destroys the Transactions before the engines they wrap.
void release(Service& s) {
  s.mm_txn.reset();
  s.mis_txn.reset();
  s.mm.reset();
  s.mis.reset();
}

struct SetupTimes {
  double total_s = 0, graph_ms = 0, mis_ms = 0, mm_ms = 0, txn_ms = 0;
};

Service build_service(const Inputs& in, SetupTimes& t) {
  std::vector<Weight> vw = in.vertex_weights, ew = in.edge_weights;
  Service s;
  const int64_t t0 = now_ns();
  CsrGraph g = CsrGraph::from_edges(in.edges);
  g.set_vertex_weights(std::move(vw));
  g.set_edge_weights(std::move(ew));
  const int64_t t1 = now_ns();
  s.mis = std::make_unique<DynamicMis>(
      EngineOptions::with_source(g, in.mis_source));
  const int64_t t2 = now_ns();
  s.mm = std::make_unique<DynamicMatching>(
      EngineOptions::with_source(std::move(g), in.mm_source));
  const int64_t t3 = now_ns();
  s.mis_txn = std::make_unique<MisTransaction>(*s.mis);
  s.mm_txn = std::make_unique<MatchingTransaction>(*s.mm);
  const int64_t t4 = now_ns();
  t = {double(t4 - t0) * 1e-9, double(t1 - t0) * 1e-6,
       double(t2 - t1) * 1e-6, double(t3 - t2) * 1e-6,
       double(t4 - t3) * 1e-6};
  return s;
}

/// Samples kept uniformly over a stream of unknown length: when full,
/// every other sample is dropped and the sampling stride doubles.
class SampleBuffer {
 public:
  explicit SampleBuffer(std::size_t cap) : cap_(cap) { v_.reserve(cap); }

  void add(double x) {
    const uint64_t i = seen_++;
    if (i % stride_ != 0) return;
    if (v_.size() == cap_) {
      std::size_t w = 0;
      for (std::size_t r = 0; r < v_.size(); r += 2) v_[w++] = v_[r];
      v_.resize(w);
      stride_ *= 2;
      if (i % stride_ != 0) return;
    }
    v_.push_back(float(x));
  }

  [[nodiscard]] std::vector<double> values() const {
    return {v_.begin(), v_.end()};
  }

 private:
  std::size_t cap_;
  std::vector<float> v_;
  uint64_t seen_ = 0;
  uint64_t stride_ = 1;
};

struct ReaderOut {
  SampleBuffer read_us{1 << 20};
  SampleBuffer copy_us{1 << 16};
  std::vector<double> stale;  ///< traced latest reads: versions behind
  uint64_t next = 0;          ///< the next request, across blocks
  uint64_t last_mis = 0, last_mm = 0;  ///< newest versions seen
  uint64_t reads = 0;
  uint64_t checksum_checks = 0, checksum_failures = 0;
  uint64_t order_failures = 0, evicted = 0, errors = 0;
  uint64_t sink = 0;  ///< folds every value read, so no read is elided
};

/// The view `back` commits older than the newest, and the version asked
/// for; throws CheckFailure when that version was already evicted.
template <typename Txn>
auto read_back(const Txn& txn, uint32_t back, uint64_t& target) {
  const uint64_t latest = txn.version();
  target = latest > back ? latest - back : 0;
  return txn.read(target);
}

/// One reader client: a closed loop over its pre-generated requests,
/// resuming where its previous block stopped.
void reader_loop(const Service& s, const ReadStream& rs,
                 const std::atomic<bool>& stop, SpanLog& log, bool traced,
                 ReaderOut& out) {
  uint64_t sink = 0;
  uint64_t i = out.next;
  for (; !stop.load(std::memory_order_relaxed); ++i) {
    const ReadRequest& r = rs.requests[i % rs.requests.size()];
    const bool check = i % kChecksumEvery == 0;
    log.set_on(traced && (i % kReadTraceEvery == 0 || r.copy));
    ReadView<uint8_t> keep_mis;
    ReadView<VertexId> keep_mm;
    uint64_t mis_version = 0, mm_version = 0;
    uint64_t target_mis = 0, target_mm = 0;
    const int64_t t0 = now_ns();
    try {
      Scope read(log, kRead, i);
      ReadView<uint8_t> mv;
      ReadView<VertexId> xv;
      {
        Scope acquire(log, kReadAcquire, i);
        if (r.back == 0) {
          mv = s.mis_txn->read();
          xv = s.mm_txn->read();
        } else {
          mv = read_back(*s.mis_txn, r.back, target_mis);
          xv = read_back(*s.mm_txn, r.back, target_mm);
        }
      }
      if (r.copy) {
        {
          Scope copy(log, kReadCopyMis, i);
          sink += mv.to_vector()[r.first % mv.size()];
        }
        Scope copy(log, kReadCopyMm, i);
        sink += xv.to_vector()[r.first % xv.size()];
      } else {
        Scope lookup(log, kReadLookup, i);
        for (uint32_t j = 0; j < rs.k; ++j) {
          const VertexId v = rs.vertices[r.first + j];
          sink += mv[v] + xv[v];
        }
      }
      mis_version = mv.version();
      mm_version = xv.version();
      if (check) {
        keep_mis = mv;
        keep_mm = xv;
      }
    } catch (const CheckFailure&) {
      // The retained version was evicted between version() and read():
      // the documented bound of the retention window, not an error.
      ++out.evicted;
      continue;
    } catch (const std::exception&) {
      ++out.errors;
      continue;
    }
    const double us = double(now_ns() - t0) * 1e-3;
    ++out.reads;
    (r.copy ? out.copy_us : out.read_us).add(us);
    if (r.back == 0) {
      if (mis_version < out.last_mis || mm_version < out.last_mm)
        ++out.order_failures;
      out.last_mis = mis_version;
      out.last_mm = mm_version;
      if (log.on())
        out.stale.push_back(double(s.mis_txn->version() - mis_version));
    } else if (mis_version != target_mis || mm_version != target_mm) {
      ++out.order_failures;
    }
    if (check) {
      ++out.checksum_checks;
      if (!keep_mis.verify_checksum() || !keep_mm.verify_checksum())
        ++out.checksum_failures;
    }
  }
  log.set_on(false);
  out.next = i;
  out.sink += sink;
}

/// Bare engines fed the same committed batches (traced run only).
struct Twin {
  std::unique_ptr<DynamicMis> mis;
  std::unique_ptr<DynamicMatching> mm;
};

/// What one writer mode measured, accumulated over its blocks of ticks.
/// Each mode owns its span logs; `log_id` must differ between modes.
struct Phase {
  Phase(uint32_t log_id, bool traced, int readers)
      : traced(traced),
        log(log_id, traced, traced ? 1 << 20 : 0),
        reader_outs(readers) {
    for (int r = 0; r < readers; ++r)
      reader_logs.push_back(std::make_unique<SpanLog>(
          log_id + 1 + uint32_t(r), traced, traced ? 1 << 16 : 0));
  }

  bool traced;
  SpanLog log;  ///< the writer's spans
  std::vector<ReaderOut> reader_outs;
  std::vector<std::unique_ptr<SpanLog>> reader_logs;

  std::vector<double> mis_us, mm_us;  ///< committed ticks, begin..commit
  std::vector<double> mis_whatif_us, mm_whatif_us;
  std::vector<BatchStats> mis_stats, mm_stats;  ///< committed ticks
  std::vector<uint64_t> committed_ticks;        ///< tick ids, in order
  std::vector<uint64_t> mis_compacting, mm_compacting;  ///< tick ids
  uint64_t committed_ops = 0;
  uint64_t what_ifs = 0;
  double writer_s = 0;  ///< summed tick time, commits and what-ifs
  double reader_s = 0;
  // Readers, merged by collect_readers().
  std::vector<double> read_us, copy_us, stale;
  uint64_t reads = 0, evicted = 0, checksum_checks = 0;
  uint64_t checksum_failures = 0, order_failures = 0;
  std::vector<Span> reader_spans;
};

/// A phase's reader threads for one block; joined on destruction, also
/// when the writer loop throws.
class ReaderPool {
 public:
  ReaderPool(const Service& s, const Inputs& in, Phase& phase) {
    for (std::size_t r = 0; r < phase.reader_outs.size(); ++r)
      threads_.emplace_back(reader_loop, std::cref(s), std::cref(in.reads[r]),
                            std::cref(stop_), std::ref(*phase.reader_logs[r]),
                            phase.traced, std::ref(phase.reader_outs[r]));
    start_ = now_ns();
  }

  ~ReaderPool() { stop(); }
  ReaderPool(const ReaderPool&) = delete;
  ReaderPool& operator=(const ReaderPool&) = delete;

  /// Stops and joins the readers; returns their wall seconds.
  double stop() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_)
      if (t.joinable()) t.join();
    if (end_ == 0) end_ = now_ns();
    return double(end_ - start_) * 1e-9;
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
  int64_t start_ = 0, end_ = 0;
};

/// One engine's part of a tick; false when a call threw.
template <typename Txn, typename Engine>
bool engine_tick(Txn& txn, const Engine& engine, const Tick& tick, uint64_t id,
                 SpanLog& log, const SpanName (&names)[5], BatchStats& stats,
                 bool& compacted, double& us, Report& report) {
  const int64_t t0 = now_ns();
  try {
    Scope batch(log, names[0], id);
    {
      Scope s(log, names[1], id);
      txn.begin();
    }
    {
      Scope s(log, names[2], id);
      stats = txn.apply(tick.batch);
    }
    if (tick.what_if) {
      Scope s(log, names[4], id);
      txn.abort();
    } else {
      const uint64_t epoch = engine.epoch();
      {
        Scope s(log, names[3], id);
        txn.commit();
      }
      compacted = engine.epoch() != epoch;
    }
  } catch (const std::exception& e) {
    report.fail(std::string("tick ") + std::to_string(id) + ": " + e.what());
    try {
      if (txn.in_transaction()) txn.abort();
    } catch (const std::exception&) {
    }
    return false;
  }
  us = double(now_ns() - t0) * 1e-3;
  return true;
}

constexpr SpanName kMisNames[5] = {kMisBatch, kMisBegin, kMisApply,
                                   kMisCommit, kMisAbort};
constexpr SpanName kMmNames[5] = {kMmBatch, kMmBegin, kMmApply, kMmCommit,
                                  kMmAbort};

/// Runs up to `ticks` ticks from `next`, stopping early once the steady
/// clock passes `deadline_ns`, with the phase's readers alongside.
void run_block(Service& s, Twin* twin, const Inputs& in, uint64_t& next,
               uint64_t ticks, int64_t deadline_ns, Phase& out,
               Report& report) {
  SpanLog& log = out.log;
  const uint64_t end = next + std::min<uint64_t>(ticks, in.ticks.size() - next);
  ReaderPool pool(s, in, out);
  while (next < end && now_ns() < deadline_ns) {
    const uint64_t id = next++;
    const Tick& tick = in.ticks[id];
    const bool check_restore =
        tick.what_if && out.what_ifs++ % kWhatIfCheckEvery == 0;
    std::vector<uint8_t> mis_before;
    std::vector<VertexId> mm_before;
    if (check_restore) {
      mis_before = s.mis->solution();
      mm_before = s.mm->solution();
    }
    BatchStats mis_stats, mm_stats;
    bool mis_compacted = false, mm_compacted = false;
    double mis_us = 0, mm_us = 0;
    report.attempt(2);
    const bool mis_ok = engine_tick(*s.mis_txn, *s.mis, tick, id, log,
                                    kMisNames, mis_stats, mis_compacted,
                                    mis_us, report);
    const bool mm_ok = engine_tick(*s.mm_txn, *s.mm, tick, id, log, kMmNames,
                                   mm_stats, mm_compacted, mm_us, report);
    out.writer_s += (mis_us + mm_us) * 1e-6;
    if (check_restore) {
      report.attempt();
      if (s.mis->solution() != mis_before || s.mm->solution() != mm_before)
        report.fail("what-if " + std::to_string(id) +
                    " did not restore the pre-tick solution");
    }
    if (tick.what_if) {
      if (mis_ok) out.mis_whatif_us.push_back(mis_us);
      if (mm_ok) out.mm_whatif_us.push_back(mm_us);
      continue;
    }
    if (mis_ok) out.mis_us.push_back(mis_us);
    if (mm_ok) out.mm_us.push_back(mm_us);
    out.mis_stats.push_back(mis_stats);
    out.mm_stats.push_back(mm_stats);
    out.committed_ticks.push_back(id);
    if (mis_compacted) out.mis_compacting.push_back(id);
    if (mm_compacted) out.mm_compacting.push_back(id);
    out.committed_ops += tick.batch.size();
    if (twin != nullptr) {
      {
        Scope bare(log, kBareMisApply, id);
        twin->mis->apply_batch(tick.batch);
      }
      Scope bare(log, kBareMmApply, id);
      twin->mm->apply_batch(tick.batch);
    }
  }
  out.reader_s += pool.stop();
}

/// Merges a phase's reader results once its last block has run, and
/// counts the reads and their failures in `report`.
void collect_readers(Phase& p, Report& report) {
  for (const ReaderOut& r : p.reader_outs) {
    const auto reads = r.read_us.values();
    const auto copies = r.copy_us.values();
    p.read_us.insert(p.read_us.end(), reads.begin(), reads.end());
    p.copy_us.insert(p.copy_us.end(), copies.begin(), copies.end());
    p.stale.insert(p.stale.end(), r.stale.begin(), r.stale.end());
    p.reads += r.reads;
    p.evicted += r.evicted;
    p.checksum_checks += r.checksum_checks;
    p.checksum_failures += r.checksum_failures;
    p.order_failures += r.order_failures;
    report.attempt(r.reads + r.errors);
    for (uint64_t f = 0; f < r.checksum_failures; ++f)
      report.fail("reader checksum mismatch");
    for (uint64_t f = 0; f < r.order_failures; ++f)
      report.fail("reader saw versions out of order");
    for (uint64_t f = 0; f < r.errors; ++f) report.fail("reader call threw");
  }
  for (const auto& l : p.reader_logs)
    p.reader_spans.insert(p.reader_spans.end(), l->spans().begin(),
                          l->spans().end());
}

/// Final audit: each engine's committed solution against the weighted
/// sequential oracle on its active subgraph, live edge counts against the
/// generator's mirror, and the twin (when present) against both.
void audit(const Service& s, const Twin* twin, const Inputs& in,
           uint64_t next, Report& report) {
  const auto check = [&](bool pass, const std::string& what) {
    report.attempt();
    if (!pass) report.fail("audit: " + what);
  };
  const uint64_t live = next == 0 ? in.m : in.ticks[next - 1].live_after;
  check(s.mis->num_edges() == live, "MIS live edges differ from the mirror");
  check(s.mm->num_edges() == live,
        "matching live edges differ from the mirror");

  const std::vector<uint8_t> mis = s.mis_txn->read().to_vector();
  std::vector<uint8_t> expect =
      mis_weighted_sequential(s.mis->active_subgraph(), in.mis_source).in_set;
  for (VertexId v = 0; v < in.n; ++v)
    if (!s.mis->active(v)) expect[v] = 0;
  check(mis == expect, "MIS differs from mis_weighted_sequential");

  const std::vector<VertexId> mm = s.mm_txn->read().to_vector();
  check(mm == mm_weighted_sequential(s.mm->active_subgraph(), in.mm_source)
                  .matched_with,
        "matching differs from mm_weighted_sequential");
  if (twin != nullptr) {
    check(twin->mis->solution() == mis, "bare MIS twin differs");
    check(twin->mm->solution() == mm, "bare matching twin differs");
  }
}

/// From-scratch kernels on the start graph (before tick 0, so every build
/// measures the same graph): the full-recompute and sequential-greedy
/// baselines of the core layer.
void core_probes(const Service& s, const Inputs& in, Report& report) {
  ScopedNumWorkers width(4);
  const CsrGraph gv = s.mis->active_subgraph();
  const CsrGraph ge = s.mm->active_subgraph();
  const uint64_t vwin = std::max<uint64_t>(1, gv.num_vertices() / 50);
  const uint64_t ewin = std::max<uint64_t>(1, ge.num_edges() / 50);
  VertexOrder pi;
  EdgeOrder epi;
  const double order = probe_ms([&] { pi = in.mis_source.vertex_order(gv); });
  const double edge_order =
      probe_ms([&] { epi = in.mm_source.edge_order(ge); });
  const double mis4 = probe_ms([&] { (void)mis_prefix(gv, pi, vwin); });
  const double mm4 = probe_ms([&] { (void)mm_prefix(ge, epi, ewin); });
  double mis1 = 0, mm1 = 0;
  {
    ScopedNumWorkers one(1);
    mis1 = probe_ms([&] { (void)mis_prefix(gv, pi, vwin); });
    mm1 = probe_ms([&] { (void)mm_prefix(ge, epi, ewin); });
  }
  const double mis_seq = probe_ms([&] { (void)mis_sequential(gv, pi); });
  const double mm_seq = probe_ms([&] { (void)mm_sequential(ge, epi); });
  const double rootset = probe_ms([&] {
    (void)mis_rootset(gv, pi);
    (void)mm_rootset(ge, epi);
  });
  const MisResult mr = mis_prefix(gv, pi, vwin, ProfileLevel::kCounters);
  const MatchResult xr = mm_prefix(ge, epi, ewin, ProfileLevel::kCounters);
  report.attempt(2);
  if (mr.in_set != mis_sequential(gv, pi).in_set)
    report.fail("mis_prefix differs from mis_sequential on the start graph");
  if (xr.matched_with != mm_sequential(ge, epi).matched_with)
    report.fail("mm_prefix differs from mm_sequential on the start graph");

  const char* where = "start graph";
  report.add("core.order_ms", order, "ms", kProbeReps,
             "median PrioritySource::vertex_order, start graph");
  report.add("core.edge_order_ms", edge_order, "ms", kProbeReps,
             "median PrioritySource::edge_order, start graph");
  report.add("core.mis_prefix_ms", mis4, "ms", kProbeReps,
             std::string("median full recompute, 4 workers, ") + where);
  report.add("core.mm_prefix_ms", mm4, "ms", kProbeReps,
             std::string("median full recompute, 4 workers, ") + where);
  report.add("core.mis_prefix_1w_ms", mis1, "ms", kProbeReps, "median");
  report.add("core.mm_prefix_1w_ms", mm1, "ms", kProbeReps, "median");
  report.add("core.mis_sequential_ms", mis_seq, "ms", kProbeReps, "median");
  report.add("core.mm_sequential_ms", mm_seq, "ms", kProbeReps, "median");
  report.add("core.rootset_ms", rootset, "ms", kProbeReps,
             "median mis_rootset + mm_rootset, 4 workers");
  report.add("core.mis_speedup", mis_seq / mis4, "ratio", 1,
             "sequential over prefix at 4 workers");
  report.add("core.mm_speedup", mm_seq / mm4, "ratio", 1,
             "sequential over prefix at 4 workers");
  report.add("core.mis_work_overhead", mis1 / mis_seq, "ratio", 1,
             "prefix at 1 worker over sequential");
  report.add("core.mm_work_overhead", mm1 / mm_seq, "ratio", 1,
             "prefix at 1 worker over sequential");
  report.add("core.mis_rounds", double(mr.profile.rounds), "count");
  report.add("core.mm_rounds", double(xr.profile.rounds), "count");
}

/// Spans called `name` whose tick `committed` says is (not) a what-if.
std::vector<double> tick_spans_us(const std::vector<Span>& spans,
                                  const Inputs& in, SpanName name,
                                  bool what_if) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (s.name == name && in.ticks[s.request].what_if == what_if)
      out.push_back(double(s.duration()) * 1e-3);
  return out;
}

/// Per-batch counters and the txn/dynamic ledger of one engine, from the
/// traced writer spans and (for the bare twin) the writer-only ones.
void engine_ledger(const char* e, const std::vector<Span>& spans,
                   const std::vector<int64_t>& self,
                   const std::vector<Span>& wo,
                   const std::vector<BatchStats>& stats,
                   const std::vector<uint64_t>& compacting, uint64_t n,
                   const SpanName (&names)[5], SpanName bare,
                   const Inputs& in, Report& report) {
  const std::string txn = std::string("txn.") + e;
  const std::string dyn = std::string("dynamic.") + e;
  const auto q = [&](const std::string& name, std::vector<double> v,
                     double p, const char* which) {
    report.add_quantile(name, percentile(std::move(v), p), "us", 1, which);
  };
  const std::vector<double> batch = tick_spans_us(spans, in, names[0], false);
  const std::vector<double> commit = tick_spans_us(spans, in, names[3], false);
  const std::vector<double> apply = tick_spans_us(spans, in, names[2], false);
  q(txn + ".begin_us", span_us(spans, names[1]), 0.5, "p50");
  q(txn + ".apply_us", apply, 0.5, "p50");
  q(txn + ".apply_p90_us", apply, 0.9, "p90");
  q(txn + ".commit_us", commit, 0.5, "p50");
  q(txn + ".commit_p90_us", commit, 0.9, "p90");
  q(txn + ".abort_us", span_us(spans, names[4]), 0.5, "p50");
  report.add(txn + ".commit_share", total(commit) / total(batch), "ratio",
             commit.size(), "summed commit over summed committed batch");
  std::vector<double> unattributed;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == names[0] && !in.ticks[spans[i].request].what_if)
      unattributed.push_back(double(self[i]) * 1e-3);
  const Quantile u = percentile(unattributed, 0.5);
  report.add_quantile(txn + ".unattributed_us", u, "us", 1,
                      "p50 batch span minus begin/apply/commit");
  report.add_quantile(std::string(e) + ".unattributed_us", u, "us", 1,
                      "p50 batch span minus begin/apply/commit");

  std::vector<double> compacting_commit;
  for (const Span& s : spans)
    if (s.name == names[3] &&
        std::find(compacting.begin(), compacting.end(), s.request) !=
            compacting.end())
      compacting_commit.push_back(double(s.duration()) * 1e-3);
  q(txn + ".commit_compacting_us", compacting_commit, 0.5, "p50");
  report.add(dyn + ".compactions", double(compacting.size()), "count", 1,
             "compacting commits over the whole run");

  // The bare twin against the transaction, on the writer-only ticks.
  const std::vector<double> bare_us = span_us(wo, bare);
  report.add_quantile(dyn + ".apply_us", percentile(bare_us, 0.5), "us", 1,
                      "p50 bare engine apply_batch, writer-only phase");
  report.add(txn + ".journal_overhead",
             total(tick_spans_us(wo, in, names[2], false)) / total(bare_us),
             "ratio", bare_us.size(),
             "summed txn apply over summed bare apply, same batches");

  double recomputed = 0, rounds = 0, seeds = 0, changed = 0;
  std::vector<double> depth;
  const double log2n = std::ceil(std::log2(double(n)));
  for (const BatchStats& b : stats) {
    recomputed += double(b.recomputed);
    rounds += double(b.rounds);
    seeds += double(b.seeds);
    changed += double(b.changed);
    if (b.rounds > 0) depth.push_back(double(b.rounds) / (log2n * log2n));
  }
  const double k = double(std::max<std::size_t>(1, stats.size()));
  report.add(dyn + ".recomputed_per_batch", recomputed / k, "count",
             stats.size(), "mean over committed ticks");
  report.add(dyn + ".rounds_per_batch", rounds / k, "count", stats.size());
  report.add(dyn + ".seeds_per_batch", seeds / k, "count", stats.size());
  report.add(dyn + ".changed_per_batch", changed / k, "count", stats.size());
  report.add(dyn + ".useful_ratio", recomputed > 0 ? changed / recomputed : 0,
             "ratio", stats.size(), "changed over recomputed");
  report.add_quantile(dyn + ".depth_ratio_p90", percentile(depth, 0.9),
                      "ratio", 1, "p90 rounds / ceil(log2 n)^2");
}

/// Exchange counters summed over committed ticks.
struct ExchangeTotals {
  double rounds = 0, seeds = 0, retries = 0;
  template <typename Stats>
  void add(const Stats& x) {
    rounds += double(x.rounds);
    seeds += double(x.boundary_seeds);
    retries += double(x.conflict_retries);
  }
};

/// The serve-small tick stream, from tick 0, through 4-shard range
/// partitioned engines; a single-engine pair fed the same ticks is the
/// oracle.
void sharded_pass(const Inputs& in, const ServeSpec& spec, double seconds,
                  double single_mis_us, double single_mm_us, SpanLog& log,
                  Report& report) {
  ScopedNumWorkers width(spec.workers);
  CsrGraph base = build_graph(in);
  uint64_t committed = 0, sink = 0;

  // The full recompute sharded matching is held against, on the start
  // graph: from_edges on its edges, the policy's edge order, mm_rootset.
  std::vector<double> full;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    std::vector<Edge> edges(base.edges().begin(), base.edges().end());
    std::vector<Weight> weights(base.edge_weights().begin(),
                                base.edge_weights().end());
    const int64_t f0 = now_ns();
    CsrGraph h = CsrGraph::from_edges(EdgeList(in.n, std::move(edges)),
                                      /*assume_normalized=*/true);
    h.set_edge_weights(std::move(weights));
    sink += mm_rootset(h, in.mm_source.edge_order(h)).size();
    full.push_back(double(now_ns() - f0) * 1e-6);
  }
  const double full_ms = median(full);

  const RangePartitioner part(in.n, kShards);
  const std::vector<uint32_t> owner = part.labels(in.n);
  const int64_t t0 = now_ns();
  auto smis = std::make_unique<ShardedMisEngine>(base, part, in.mis_source);
  auto smm = std::make_unique<ShardedMatchingEngine>(base, part, in.mm_source);
  const double build_ms = double(now_ns() - t0) * 1e-6;
  DynamicMis one_mis(EngineOptions::with_source(base, in.mis_source));
  DynamicMatching one_mm(
      EngineOptions::with_source(std::move(base), in.mm_source));

  ExchangeTotals mis_ex, mm_ex;
  const ReadStream& rs = in.reads.front();
  const int64_t start = now_ns();
  for (uint64_t id = 0; id < in.ticks.size() &&
                        double(now_ns() - start) * 1e-9 < seconds;
       ++id) {
    const Tick& tick = in.ticks[id];
    {
      Scope route(log, kRoute, id);
      sink += route_batch(tick.batch, owner, kShards).per_shard.size();
    }
    report.attempt(2);
    try {
      if (tick.what_if) {
        {
          Scope s(log, kShardMisWhatIf, id);
          sink += smis->what_if(tick.batch).solution.size();
        }
        Scope s(log, kShardMmWhatIf, id);
        sink += smm->what_if(tick.batch).solution.size();
      } else {
        {
          Scope s(log, kShardMisApply, id);
          smis->apply_batch(tick.batch);
        }
        mis_ex.add(smis->last_exchange());
        {
          Scope s(log, kShardMmApply, id);
          smm->apply_batch(tick.batch);
        }
        mm_ex.add(smm->last_exchange());
        one_mis.apply_batch(tick.batch);
        one_mm.apply_batch(tick.batch);
        ++committed;
      }
    } catch (const std::exception& e) {
      report.fail(std::string("sharded tick: ") + e.what());
    }
    Scope read(log, kShardRead, id);
    const auto mv = smis->read();
    const auto xv = smm->read();
    const ReadRequest& r = rs.requests[id % rs.requests.size()];
    for (uint32_t j = 0; j < rs.k; ++j) {
      const VertexId v = rs.vertices[r.first + j];
      sink += mv[v] + xv[v];
    }
  }
  report.attempt(2);
  if (smis->committed_solution() != one_mis.solution())
    report.fail("sharded MIS differs from the single engine");
  if (smm->committed_solution() != one_mm.solution())
    report.fail("sharded matching differs from the single engine");

  const std::vector<Span>& spans = log.spans();
  const auto q = [&](const std::string& name, SpanName span) {
    report.add_quantile(name, percentile(span_us(spans, span), 0.5), "us", 1,
                        "p50");
  };
  const double c = double(std::max<uint64_t>(1, committed));
  report.add("shard.build_ms", build_ms, "ms", 1,
             "ShardedMisEngine + ShardedMatchingEngine, 4 range shards");
  q("shard.route_us", kRoute);
  q("shard.mis.apply_us", kShardMisApply);
  q("shard.mm.apply_us", kShardMmApply);
  q("shard.mis.whatif_us", kShardMisWhatIf);
  q("shard.mm.whatif_us", kShardMmWhatIf);
  q("shard.read_us", kShardRead);
  report.add("shard.mis.exchange_rounds_per_batch", mis_ex.rounds / c,
             "count", committed);
  report.add("shard.mm.exchange_rounds_per_batch", mm_ex.rounds / c, "count",
             committed);
  report.add("shard.mis.boundary_seeds_per_batch", mis_ex.seeds / c, "count",
             committed);
  report.add("shard.mm.boundary_seeds_per_batch", mm_ex.seeds / c, "count",
             committed);
  report.add("shard.mis.conflict_retries_per_batch", mis_ex.retries / c,
             "count", committed);
  report.add("shard.mm.conflict_retries_per_batch", mm_ex.retries / c,
             "count", committed);
  const double mis_apply = median(span_us(spans, kShardMisApply));
  const double mm_apply = median(span_us(spans, kShardMmApply));
  report.add("shard.mis.over_single", mis_apply / single_mis_us, "ratio",
             committed, "p50 sharded apply_batch over p50 txn tick, writer-only");
  report.add("shard.mm.over_single", mm_apply / single_mm_us, "ratio",
             committed, "p50 sharded apply_batch over p50 txn tick, writer-only");
  report.add("shard.mm.over_full", mm_apply / (full_ms * 1e3), "ratio",
             committed,
             "p50 sharded apply_batch over from_edges + mm_rootset, start "
             "graph");
  do_not_optimize(sink);
}

}  // namespace

int run_serve(const Options& opt, Report& report) {
  const ServeSpec spec = spec_for(opt.workload);
  const Inputs in = make_inputs(spec, opt.seed);
  const uint64_t rss_inputs = current_rss_bytes();

  add_common_context(report, opt);
  report.set_context("workers", std::to_string(spec.workers));
  report.set_context("readers", std::to_string(spec.readers));

  // Setup, several times; the last service is kept.
  Service s;
  std::vector<double> total_s, graph_ms, mis_ms, mm_ms, txn_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    release(s);
    ScopedNumWorkers width(spec.workers);
    SetupTimes t;
    s = build_service(in, t);
    total_s.push_back(t.total_s);
    graph_ms.push_back(t.graph_ms);
    mis_ms.push_back(t.mis_ms);
    mm_ms.push_back(t.mm_ms);
    txn_ms.push_back(t.txn_ms);
  }
  report.set_context("rss_mb", "inputs " + std::to_string(rss_inputs >> 20) +
                                   ", after setup " +
                                   std::to_string(current_rss_bytes() >> 20));
  const CsrGraph& base = s.mis->graph().base();
  report.set_context("graph", std::string(spec.rmat ? "rmat" : "random") +
                                  " n=" + std::to_string(in.n) +
                                  " m=" + std::to_string(in.m) +
                                  " csr_bytes=" +
                                  std::to_string(base.memory_bytes()));
  report.add("setup_s", median(total_s), "s", total_s.size(),
             "median of CSR build + engines + Transactions");
  report.add("graph.build_ms", median(graph_ms), "ms", graph_ms.size(),
             "median");
  report.add("dynamic.mis.build_ms", median(mis_ms), "ms", mis_ms.size(),
             "median");
  report.add("dynamic.mm.build_ms", median(mm_ms), "ms", mm_ms.size(),
             "median");
  report.add("txn.build_ms", median(txn_ms), "ms", txn_ms.size(),
             "median, both Transactions incl. version-0 publish");

  ScopedNumWorkers width(spec.workers);
  uint64_t next = 0;

  if (!opt.trace) {
    Phase ph(0, false, spec.readers);
    run_block(s, nullptr, in, next, in.ticks.size(),
              now_ns() + int64_t(opt.seconds * 1e9), ph, report);
    collect_readers(ph, report);
    report.add("peak_rss_mb", double(peak_rss_bytes()) / (1 << 20), "MB", 1,
               "process VmHWM after the timed phase");
    const auto add_engine = [&](const char* e, const std::vector<double>& us,
                                const std::vector<double>& whatif) {
      const std::string name(e);
      report.add_quantile(name + ".batch_p50_us", percentile(us, 0.5), "us",
                          1, "p50 committed tick, begin..commit");
      report.add_quantile(name + ".batch_p90_us", percentile(us, 0.9), "us",
                          1, "p90 committed tick, begin..commit");
      if (!whatif.empty())
        report.add_quantile(name + ".whatif_p50_us", percentile(whatif, 0.5),
                            "us", 1, "p50 what-if tick, begin..abort");
    };
    add_engine("mis", ph.mis_us, ph.mis_whatif_us);
    add_engine("mm", ph.mm_us, ph.mm_whatif_us);
    report.add("ops_per_s", double(ph.committed_ops) / ph.writer_s, "1/s",
               ph.committed_ticks.size(),
               "committed user ops per second of writer tick time");
    if (spec.readers > 0) {
      report.add_quantile("read_p50_us", percentile(ph.read_us, 0.5), "us", 1,
                          "p50 lookup read");
      report.add_quantile("read_p90_us", percentile(ph.read_us, 0.9), "us", 1,
                          "p90 lookup read");
      report.add("reads_per_s", double(ph.reads) / ph.reader_s, "1/s",
                 ph.reads, "all reader clients");
      report.add_quantile("copy_p50_us", percentile(ph.copy_us, 0.5), "us", 1,
                          "p50 whole-solution copy of both engines");
    }
  } else {
    core_probes(s, in, report);
    Twin twin;
    {
      CsrGraph g = build_graph(in);
      twin.mis = std::make_unique<DynamicMis>(
          EngineOptions::with_source(g, in.mis_source));
      twin.mm = std::make_unique<DynamicMatching>(
          EngineOptions::with_source(std::move(g), in.mm_source));
    }
    // Modes, run in turn one block of ticks each until the time is up: A
    // traced with readers, B untraced, D untraced with obs off, C traced
    // writer-only (serve-large has no readers, so A is writer-only).
    Phase a(16, true, spec.readers), b(32, false, spec.readers),
        d(48, false, spec.readers), c_storage(64, true, 0);
    const bool separate_c = spec.readers > 0;
    Phase& c = separate_c ? c_storage : a;
    const int64_t deadline = now_ns() + int64_t(opt.seconds * 1e9);
    const int64_t no_deadline = std::numeric_limits<int64_t>::max();
    while (next < in.ticks.size() && now_ns() < deadline) {
      run_block(s, &twin, in, next, spec.block_ticks, no_deadline, a, report);
      run_block(s, &twin, in, next, spec.block_ticks, no_deadline, b, report);
      obs::set_enabled(false);
      run_block(s, &twin, in, next, spec.block_ticks, no_deadline, d, report);
      obs::set_enabled(true);
      if (separate_c)
        run_block(s, &twin, in, next, spec.block_ticks, no_deadline, c,
                  report);
    }
    for (Phase* p : {&a, &b, &d, &c_storage}) collect_readers(*p, report);
    report.set_context("traced_ticks_per_mode",
                       std::to_string(a.committed_ticks.size()) +
                           " committed (A), block " +
                           std::to_string(spec.block_ticks));

    std::vector<Span> spans = a.log.spans();
    if (separate_c)
      spans.insert(spans.end(), c.log.spans().begin(), c.log.spans().end());
    const std::vector<int64_t> self = self_times(spans);
    std::vector<uint64_t> mis_compacting, mm_compacting;
    for (const Phase* p : {&a, &b, &d, &c_storage}) {
      mis_compacting.insert(mis_compacting.end(), p->mis_compacting.begin(),
                            p->mis_compacting.end());
      mm_compacting.insert(mm_compacting.end(), p->mm_compacting.begin(),
                           p->mm_compacting.end());
    }
    engine_ledger("mis", spans, self, c.log.spans(), a.mis_stats,
                  mis_compacting, in.n, kMisNames, kBareMisApply, in, report);
    engine_ledger("mm", spans, self, c.log.spans(), a.mm_stats, mm_compacting,
                  in.n, kMmNames, kBareMmApply, in, report);

    const auto ratio = [](const Phase& x, const Phase& y) {
      return (median(x.mis_us) + median(x.mm_us)) /
             (median(y.mis_us) + median(y.mm_us));
    };
    report.add("trace.overhead", ratio(a, b), "ratio",
               a.mis_us.size() + b.mis_us.size(),
               "traced over untraced p50 committed tick, MIS + MM");
    report.add("obs.overhead", ratio(d, b), "ratio",
               d.mis_us.size() + b.mis_us.size(),
               "p50 committed tick with PARGREEDY_OBS off over on, MIS + MM");

    if (spec.readers > 0) {
      const std::vector<Span>& rs = a.reader_spans;
      const auto q = [&](const std::string& name, SpanName span) {
        report.add_quantile(name, percentile(span_us(rs, span), 0.5), "us", 1,
                            "p50, sampled traced reads");
      };
      q("read.acquire_us", kReadAcquire);
      q("read.lookup_us", kReadLookup);
      q("read.copy_us.mis", kReadCopyMis);
      q("read.copy_us.mm", kReadCopyMm);
      report.add_quantile("read.stale_versions_p90",
                          percentile(a.stale, 0.9), "count", 1,
                          "p90 commits behind the newest, traced latest reads");
      const auto commit_p50 = [&](const Phase& p, SpanName name) {
        return median(tick_spans_us(p.log.spans(), in, name, false));
      };
      report.add("read.writer_slowdown.mis",
                 commit_p50(a, kMisCommit) / commit_p50(c, kMisCommit),
                 "ratio", a.mis_us.size(),
                 "p50 commit with readers over writer-only");
      report.add("read.writer_slowdown",
                 commit_p50(a, kMmCommit) / commit_p50(c, kMmCommit), "ratio",
                 a.mm_us.size(), "p50 matching commit with readers over "
                                 "writer-only");
      uint64_t evicted = 0, checks = 0, checksum_failures = 0,
               order_failures = 0;
      for (const Phase* p : {&a, &b, &d}) {
        evicted += p->evicted;
        checks += p->checksum_checks;
        checksum_failures += p->checksum_failures;
        order_failures += p->order_failures;
      }
      report.add("read.checksum_failures", double(checksum_failures), "count",
                 checks, "over n sampled checksum checks");
      report.add("read.order_failures", double(order_failures), "count", 1,
                 "reads whose version went backwards or missed its target");
      report.add("read.evicted", double(evicted), "count", 1,
                 "retained-version reads that raced eviction (not failures)");
    }

    audit(s, &twin, in, next, report);
    SpanLog shard_log(80, true, spec.sharded_pass ? 1 << 16 : 0);
    if (spec.sharded_pass)
      sharded_pass(in, spec, opt.seconds * 0.8, median(c.mis_us),
                   median(c.mm_us), shard_log, report);
    std::vector<Span> all = spans;
    all.insert(all.end(), a.reader_spans.begin(), a.reader_spans.end());
    all.insert(all.end(), shard_log.spans().begin(), shard_log.spans().end());
    write_span_file(opt.spans_path, all);
  }
  // A run cut short by the end of the pre-generated stream measured
  // fewer seconds than asked; the context says so.
  report.set_context("stream_exhausted",
                     next == in.ticks.size() ? "yes" : "no");
  if (!opt.trace) audit(s, nullptr, in, next, report);
  release(s);
  return report.failed() == 0 ? 0 : 1;
}

}  // namespace perfbench
