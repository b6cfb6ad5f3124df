// Unit tests for the observability layer (src/obs/): histogram bucket
// boundaries and percentile math, registry snapshot-under-mutation, the
// flight recorder's rings (spans and events, nesting, cross-thread merge,
// correlation ids, wrap-around), and both halves of the PARGREEDY_OBS
// seam (runtime switch here; the compile-time no-op TU is
// test_obs_disabled_seam.cpp, linked into this binary). Tests share the
// process-wide recorder and clear() it first.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "dynamic/dynamic_mis.hpp"
#include "dynamic/update_batch.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "obs/obs.hpp"
#include "obs/prometheus.hpp"
#include "parallel/arch.hpp"
#include "txn/transaction.hpp"

namespace pargreedy::obs {

// Defined in test_obs_disabled_seam.cpp, compiled with PARGREEDY_OBS=0:
// fires PG_OBS_* macros that must all be no-ops.
void emit_disabled_seam_probes();

namespace {

TEST(ObsHistogram, BucketIndexBoundaries) {
  // Bucket 0 holds exactly the value 0; bucket i >= 1 holds
  // [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::bucket_index(0), 0);
  EXPECT_EQ(Histogram::bucket_index(1), 1);
  EXPECT_EQ(Histogram::bucket_index(2), 2);
  EXPECT_EQ(Histogram::bucket_index(3), 2);
  EXPECT_EQ(Histogram::bucket_index(4), 3);
  EXPECT_EQ(Histogram::bucket_index(7), 3);
  EXPECT_EQ(Histogram::bucket_index(8), 4);
  EXPECT_EQ(Histogram::bucket_index((uint64_t{1} << 32) - 1), 32);
  EXPECT_EQ(Histogram::bucket_index(uint64_t{1} << 32), 33);
  EXPECT_EQ(Histogram::bucket_index(~uint64_t{0}), 64);
}

TEST(ObsHistogram, BucketUpperBoundaries) {
  EXPECT_EQ(Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper(2), 3u);
  EXPECT_EQ(Histogram::bucket_upper(3), 7u);
  EXPECT_EQ(Histogram::bucket_upper(64), ~uint64_t{0});
  // Every value lands in the bucket whose range contains it.
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 5ull, 100ull, 4096ull}) {
    const int b = Histogram::bucket_index(v);
    EXPECT_LE(v, Histogram::bucket_upper(b)) << v;
    if (b > 0) {
      EXPECT_GT(v, Histogram::bucket_upper(b - 1)) << v;
    }
  }
}

TEST(ObsHistogram, PercentileMath) {
  Histogram h;
  // 50 samples of 1 and 50 of 1000: the median rank falls in bucket 1
  // (upper 1), p95/p99 in 1000's bucket (bit_width 10, upper 1023).
  for (int i = 0; i < 50; ++i) h.record(1);
  for (int i = 0; i < 50; ++i) h.record(1000);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 50u + 50u * 1000u);
  const HistogramSummary s = h.summary();
  EXPECT_EQ(s.p50, 1u);
  EXPECT_EQ(s.p95, 1023u);
  EXPECT_EQ(s.p99, 1023u);
  EXPECT_EQ(s.max, 1023u);
}

TEST(ObsHistogram, QuantileEdgeCases) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0u);  // empty
  h.record(0);
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(1.0), 0u);
  h.record(6);  // bucket 3, upper 7
  EXPECT_EQ(h.quantile(0.25), 0u);   // rank 1 of 2 -> the zero sample
  EXPECT_EQ(h.quantile(1.0), 7u);    // rank 2 of 2 -> bucket 3
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.99), 0u);
}

TEST(ObsRegistry, CounterGaugeRoundTrip) {
  auto& reg = MetricsRegistry::global();
  Counter& c = reg.counter("test.roundtrip.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(reg.counter_value("test.roundtrip.counter"), 42u);
  EXPECT_EQ(reg.counter_value("test.never.registered"), 0u);
  // Same name -> same object (reference stability is the hot-path
  // contract: call sites cache the reference in a static).
  EXPECT_EQ(&c, &reg.counter("test.roundtrip.counter"));
  Gauge& g = reg.gauge("test.roundtrip.gauge");
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
}

TEST(ObsRegistry, SnapshotUnderMutation) {
  auto& reg = MetricsRegistry::global();
  Counter& c = reg.counter("test.mutation.counter");
  Histogram& h = reg.histogram("test.mutation.hist");
  std::atomic<bool> stop{false};
  // Writer hammers the metrics while the main thread snapshots: no
  // blocking, no torn registry state, and the counter value observed by
  // successive snapshots never decreases.
  // do-while: on a loaded single-core machine the main thread can finish
  // all its snapshots before the writer is first scheduled — at least one
  // record must land so the percentile check below has a sample.
  std::thread writer([&] {
    do {
      c.add();
      h.record(3);
    } while (!stop.load(std::memory_order_relaxed));
  });
  uint64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    const auto samples = reg.snapshot();
    uint64_t seen = 0;
    for (const auto& s : samples) {
      if (s.name == "test.mutation.counter") seen = s.counter;
    }
    EXPECT_GE(seen, last);
    last = seen;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(reg.counter_value("test.mutation.counter"), c.value());
  EXPECT_EQ(h.summary().p50, 3u);
}

TEST(ObsRegistry, JsonShape) {
  auto& reg = MetricsRegistry::global();
  reg.counter("test.json.counter").add(5);
  reg.histogram("test.json.hist").record(9);
  std::ostringstream out;
  reg.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.counter\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ObsRuntime, SwitchGatesMacros) {
  set_enabled(true);
  PG_OBS_COUNT("test.runtime.gate", 1);
  const uint64_t after_on = counter_value("test.runtime.gate");
  EXPECT_EQ(after_on, 1u);
  set_enabled(false);
  PG_OBS_COUNT("test.runtime.gate", 1);
  PG_OBS_HIST("test.runtime.gate_hist", 10);
  EXPECT_EQ(counter_value("test.runtime.gate"), after_on);
  set_enabled(true);
  PG_OBS_COUNT("test.runtime.gate", 1);
  EXPECT_EQ(counter_value("test.runtime.gate"), after_on + 1);
}

TEST(ObsRuntime, TracerRefusesWhenDisabled) {
  set_enabled(false);
  EXPECT_FALSE(arm_spans());
  set_enabled(true);
  EXPECT_TRUE(arm_spans());
  EXPECT_TRUE(spans_armed());
  disarm_spans();
  EXPECT_FALSE(spans_armed());
  EventRecorder::global().clear();
}

TEST(ObsTrace, SpanNestingAndThreadMerge) {
  set_enabled(true);
  auto& rec = EventRecorder::global();
  rec.clear();
  ASSERT_TRUE(arm_spans());
  {
    TraceSpan outer(EventKind::kApplyBatchMis, 8);
    {
      TraceSpan inner(EventKind::kDecide, 1, 5);
      record_event(EventKind::kReproRound, 5, 2);
    }
    outer.set_arg1(3);
  }
  std::thread worker([] { TraceSpan span(EventKind::kCompact, 4, 0); });
  worker.join();
  disarm_spans();

  // Each span is one record, written at open: outer, inner, the event,
  // then the worker's span in its own ring.
  const auto records = rec.merged();
  ASSERT_EQ(records.size(), 4u);
  const EventRecord& outer = records[0];
  const EventRecord& inner = records[1];
  EXPECT_EQ(outer.kind, static_cast<uint16_t>(EventKind::kApplyBatchMis));
  EXPECT_EQ(outer.arg0, 8u);
  EXPECT_EQ(outer.arg1, 3u);  // set_arg1() lands at close
  EXPECT_EQ(inner.kind, static_cast<uint16_t>(EventKind::kDecide));
  EXPECT_EQ(inner.arg1, 5u);
  // RAII closed inner before outer: its interval nests in outer's.
  EXPECT_LE(outer.ts_us, inner.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us);
  EXPECT_EQ(records[2].kind, static_cast<uint16_t>(EventKind::kReproRound));
  EXPECT_EQ(records[2].dur_us, 0u);
  const EventRecord& worker_span = records[3];
  EXPECT_EQ(worker_span.kind, static_cast<uint16_t>(EventKind::kCompact));
  EXPECT_NE(worker_span.tid, outer.tid);

  MetricsRegistry::global().counter("test.trace.counter").add(2);
  std::ostringstream out;
  rec.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  for (const char* name : {"apply_batch", "decide", "repro.round", "compact"}) {
    EXPECT_NE(json.find(std::string("\"name\": \"") + name + "\""),
              std::string::npos)
        << name;
  }
  // The worker thread's ring merged under its own tid, with metadata.
  EXPECT_NE(json.find("obs-thread-" + std::to_string(worker_span.tid)),
            std::string::npos);
  // The category names the engine an apply_batch (and every round
  // nested in it) belongs to.
  EXPECT_NE(json.find("\"name\": \"apply_batch\", \"cat\": \"mis\""),
            std::string::npos);
  EXPECT_STREQ(kind_info(EventKind::kApplyBatchMm).name, "apply_batch");
  EXPECT_STREQ(kind_info(EventKind::kApplyBatchMm).cat, "matching");
  // Spans are complete events, events instants, both with named args.
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"round\": 1, \"frontier\": 5"), std::string::npos);
  // Registered counters ride along as Chrome "C" events.
  EXPECT_NE(json.find("\"name\": \"test.trace.counter\", \"cat\": "
                      "\"metrics\", \"ph\": \"C\""),
            std::string::npos);

  rec.clear();
  EXPECT_EQ(rec.event_count(), 0u);
}

TEST(ObsTrace, InactiveSpansRecordNothing) {
  set_enabled(true);
  auto& rec = EventRecorder::global();
  disarm_spans();
  rec.clear();
  {
    TraceSpan span(EventKind::kDecide);
    span.set_arg1(1);
  }
  EXPECT_EQ(rec.event_count(), 0u);
}

// A span whose record the ring overwrote before the span closed leaves
// the slot's new owner alone; one that survives gets its close fill.
TEST(ObsTrace, SpanOverwrittenBeforeCloseSkipsFill) {
  set_enabled(true);
  auto& rec = EventRecorder::global();
  rec.clear();
  ASSERT_TRUE(arm_spans());
  {
    TraceSpan span(EventKind::kRepropagate, 7);
    span.set_arg1(99);
    for (std::size_t i = 0; i + 1 < EventRecorder::kRingCapacity; ++i)
      rec.record(EventKind::kReproRound, i, 0);
  }
  auto records = rec.merged();
  ASSERT_EQ(records.size(), EventRecorder::kRingCapacity);
  EXPECT_EQ(records.front().kind,
            static_cast<uint16_t>(EventKind::kRepropagate));
  EXPECT_EQ(records.front().arg1, 99u);

  rec.clear();
  {
    TraceSpan span(EventKind::kRepropagate, 7);
    span.set_arg1(99);
    for (std::size_t i = 0; i < EventRecorder::kRingCapacity; ++i)
      rec.record(EventKind::kReproRound, i, 0);
  }
  disarm_spans();
  EXPECT_EQ(rec.overwritten(), 1u);
  records = rec.merged();
  ASSERT_EQ(records.size(), EventRecorder::kRingCapacity);
  for (const EventRecord& r : records) {
    EXPECT_EQ(r.kind, static_cast<uint16_t>(EventKind::kReproRound));
    EXPECT_EQ(r.arg1, 0u);
    EXPECT_EQ(r.dur_us, 0u);
  }
  rec.clear();
}

// Every engine span carries the batch id of the apply_batch it runs in,
// and every txn.* span and event the id of its transaction.
TEST(ObsTrace, RecordsCarryBatchAndTxnIds) {
  set_enabled(true);
  DynamicMis dm(
      EngineOptions::seeded(CsrGraph::from_edges(path_graph(256)), 11));
  MisTransaction txn(dm);
  auto& rec = EventRecorder::global();
  rec.clear();
  ASSERT_TRUE(arm_spans());
  UpdateBatch batch;
  batch.insert_edge(0, 255).insert_edge(17, 200).delete_edge(10, 11);
  txn.begin();
  const EngineSnapshot start = txn.savepoint();
  txn.apply(batch);
  txn.rollback_to(start);
  txn.apply(batch);
  txn.commit();
  UpdateBatch undo;
  undo.delete_edge(0, 255);
  txn.begin();
  txn.apply(undo);
  txn.abort();
  disarm_spans();

  std::vector<std::pair<EventKind, uint64_t>> txn_records;
  std::vector<uint64_t> batches;
  uint64_t batch_id = 0;
  for (const EventRecord& r : rec.merged()) {
    const auto kind = static_cast<EventKind>(r.kind);
    switch (kind) {
      case EventKind::kBatchBegin:
        EXPECT_EQ(r.batch_id, batch_id);
        batches.push_back(r.batch_id);
        break;
      case EventKind::kApplyBatchMis:  // opens before kBatchBegin records
        EXPECT_GT(r.batch_id, 0u);
        batch_id = r.batch_id;
        break;
      case EventKind::kRepropagate:
      case EventKind::kDecide:
      case EventKind::kCommit:
      case EventKind::kExpand:
        EXPECT_EQ(r.batch_id, batch_id) << kind_info(kind).name;
        break;
      case EventKind::kTxnBegin:
      case EventKind::kTxnCommit:
      case EventKind::kTxnAbort:
      case EventKind::kTxnBeginSpan:
      case EventKind::kTxnApplySpan:
      case EventKind::kTxnRollbackToSpan:
      case EventKind::kTxnCommitSpan:
      case EventKind::kTxnAbortSpan:
        txn_records.emplace_back(kind, r.txn_id);
        break;
      default:
        break;
    }
  }
  // Three engine batches, each its own id.
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_NE(batches[0], batches[1]);
  EXPECT_NE(batches[1], batches[2]);
  using K = EventKind;
  const std::vector<std::pair<EventKind, uint64_t>> expected = {
      {K::kTxnBeginSpan, 1},  {K::kTxnBegin, 1},
      {K::kTxnApplySpan, 1},  {K::kTxnRollbackToSpan, 1},
      {K::kTxnApplySpan, 1},  {K::kTxnCommit, 1},
      {K::kTxnCommitSpan, 1}, {K::kTxnBeginSpan, 2},
      {K::kTxnBegin, 2},      {K::kTxnApplySpan, 2},
      {K::kTxnAbort, 2},      {K::kTxnAbortSpan, 2}};
  EXPECT_EQ(txn_records, expected);
  rec.clear();
}

TEST(ObsLabels, LabeledNameCanonicalForm) {
  EXPECT_EQ(labeled_name("shard.seeds", "shard", "3"),
            "shard.seeds{shard=\"3\"}");
  // Label values are escaped so the canonical key (and the Prometheus
  // exposition derived from it) stays parseable.
  EXPECT_EQ(labeled_name("x", "k", "say \"hi\"\\"),
            "x{k=\"say \\\"hi\\\"\\\\\"}");
}

TEST(ObsLabels, SplitLabelsRoundTrip) {
  const auto [base, labels] = split_labels("shard.seeds{shard=\"3\"}");
  EXPECT_EQ(base, "shard.seeds");
  EXPECT_EQ(labels, "shard=\"3\"");
  const auto [plain_base, plain_labels] = split_labels("engine.rounds");
  EXPECT_EQ(plain_base, "engine.rounds");
  EXPECT_TRUE(plain_labels.empty());
}

TEST(ObsLabels, LabeledSeriesAreDistinctAndAdditive) {
  set_enabled(true);
  auto& reg = MetricsRegistry::global();
  // The macro contract: labeled bumps ride ALONGSIDE the unlabeled base
  // (call sites bump both), so the base total stays the cross-label sum.
  PG_OBS_COUNT("test.labels.total", 2);
  PG_OBS_COUNT_L("test.labels.total", "shard", "0", 1);
  PG_OBS_COUNT_L("test.labels.total", "shard", "1", 1);
  PG_OBS_COUNT_L("test.labels.total", "shard", "1", 0);  // registers only
  EXPECT_EQ(reg.counter_value("test.labels.total"), 2u);
  EXPECT_EQ(reg.counter_value("test.labels.total{shard=\"0\"}"), 1u);
  EXPECT_EQ(reg.counter_value("test.labels.total{shard=\"1\"}"), 1u);
  // Reference stability holds per label set, as for unlabeled series.
  EXPECT_EQ(&reg.counter("test.labels.total", "shard", "0"),
            &reg.counter("test.labels.total", "shard", "0"));
  EXPECT_NE(&reg.counter("test.labels.total", "shard", "0"),
            &reg.counter("test.labels.total", "shard", "1"));
}

TEST(ObsLabels, LabeledSnapshotUnderMutation) {
  auto& reg = MetricsRegistry::global();
  Counter& c0 = reg.counter("test.labels.mutation", "shard", "0");
  std::atomic<bool> stop{false};
  // Writer hammers one labeled series while the main thread snapshots
  // AND registers fresh labeled series: no blocking, no torn names, and
  // the labeled value observed by successive snapshots never decreases.
  std::thread writer([&] {
    do {
      c0.add();
    } while (!stop.load(std::memory_order_relaxed));
  });
  uint64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    reg.counter("test.labels.mutation", "shard", std::to_string(i % 4))
        .add(0);
    uint64_t seen = 0;
    for (const auto& s : reg.snapshot()) {
      if (s.name == "test.labels.mutation{shard=\"0\"}") seen = s.counter;
    }
    EXPECT_GE(seen, last);
    last = seen;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(reg.counter_value("test.labels.mutation{shard=\"0\"}"),
            c0.value());
}

TEST(ObsEvents, RingOverflowAccounting) {
  set_enabled(true);
  auto& rec = EventRecorder::global();
  rec.clear();
  constexpr std::size_t kOverflow = 37;
  for (std::size_t i = 0; i < EventRecorder::kRingCapacity + kOverflow; ++i)
    rec.record(EventKind::kReproRound, i, 0);
  EXPECT_EQ(rec.event_count(), EventRecorder::kRingCapacity);
  EXPECT_EQ(rec.overwritten(), kOverflow);
  const auto events = rec.merged();
  ASSERT_EQ(events.size(), EventRecorder::kRingCapacity);
  // Oldest retained record is the first survivor of the wrap-around;
  // newest is the last record ever made.
  EXPECT_EQ(events.front().arg0, kOverflow);
  EXPECT_EQ(events.back().arg0,
            EventRecorder::kRingCapacity + kOverflow - 1);
  rec.clear();
  EXPECT_EQ(rec.event_count(), 0u);
  EXPECT_EQ(rec.overwritten(), 0u);
}

TEST(ObsEvents, CorrelationScopesNestAndRestore) {
  set_enabled(true);
  auto& rec = EventRecorder::global();
  rec.clear();
  {
    BatchScope outer;
    const uint64_t outer_id = current_batch_id();
    EXPECT_GT(outer_id, 0u);
    {
      // Inner scope inherits: this is what keeps one sharded UpdateBatch
      // a single batch_id across the per-shard engine applies.
      BatchScope inner;
      EXPECT_EQ(current_batch_id(), outer_id);
      TxnScope txn(42);
      ShardScope shard(3);
      rec.record(EventKind::kShardApply, 7, 0);
    }
    rec.record(EventKind::kBatchEnd, 0, 0);
  }
  EXPECT_EQ(current_batch_id(), 0u);
  const auto events = rec.merged();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_GT(events[0].batch_id, 0u);
  EXPECT_EQ(events[0].txn_id, 42u);
  EXPECT_EQ(events[0].shard_id, 3u);
  // Scopes restored: the second record is back outside txn/shard context
  // but still inside the batch.
  EXPECT_EQ(events[1].batch_id, events[0].batch_id);
  EXPECT_EQ(events[1].txn_id, 0u);
  EXPECT_EQ(events[1].shard_id, kNoShard);
  rec.clear();
}

TEST(ObsEvents, JsonShape) {
  set_enabled(true);
  auto& rec = EventRecorder::global();
  rec.clear();
  {
    ShardScope shard(2);
    rec.record(EventKind::kExchangeRound, 1, 64);
  }
  rec.record(EventKind::kTxnAbort, 1, 0);
  std::ostringstream out;
  rec.write_json(out, "unit_test");
  const std::string json = out.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_NE(json.find("\"reason\": \"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"overwritten\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"shard.exchange_round\", \"cat\": "
                      "\"shard\", \"ph\": \"i\""),
            std::string::npos);
  // Correlation ids, then the kind's named args.
  EXPECT_NE(json.find("\"shard_id\": 2, \"round\": 1, \"forcing\": 64"),
            std::string::npos);
  EXPECT_NE(json.find("\"txn_id\": 0, \"explicit\": 1}"),
            std::string::npos);
  // Outside a shard scope a record carries no shard_id, never 2^32-1.
  EXPECT_EQ(json.find("\"shard_id\""), json.rfind("\"shard_id\""));
  EXPECT_EQ(json.find(std::to_string(kNoShard)), std::string::npos);
  rec.clear();
}

// Failure dumps are numbered, so a second failure with the same reason
// keeps the first dump, and stop at kMaxFailureDumps files.
TEST(ObsEvents, FailureDumpsAreNumberedAndCapped) {
  set_enabled(true);
  auto& rec = EventRecorder::global();
  std::string dir =
      (std::filesystem::temp_directory_path() / "pargreedy_events_XXXXXX")
          .string();
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  ASSERT_EQ(setenv("PARGREEDY_EVENTS_DIR", dir.c_str(), 1), 0);
  const auto files = [&dir] {
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir))
      names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
  };
  EXPECT_TRUE(rec.dump_failure("unit_test"));
  EXPECT_TRUE(rec.dump_failure("unit_test"));
  EXPECT_EQ(files(), (std::vector<std::string>{
                         "EVENTS_failure_unit_test_0.json",
                         "EVENTS_failure_unit_test_1.json"}));
  for (uint64_t k = 2; k < EventRecorder::kMaxFailureDumps; ++k)
    EXPECT_TRUE(rec.dump_failure("unit_test"));
  EXPECT_FALSE(rec.dump_failure("unit_test"));  // past the cap
  EXPECT_EQ(files().size(), EventRecorder::kMaxFailureDumps);
  unsetenv("PARGREEDY_EVENTS_DIR");
  std::filesystem::remove_all(dir);
  rec.clear();
}

TEST(ObsEvents, MergedStreamIsDeterministicAcrossWorkers) {
  set_enabled(true);
  // The engine-facing determinism contract: the flight-recorder stream
  // of a committed transaction, spans included, is identical at any
  // worker count (records carry deterministic quantities from
  // driver-synchronous code; merged() keeps per-ring recording order).
  ASSERT_TRUE(arm_spans());
  auto run = [](int workers) {
    ScopedNumWorkers guard(workers);
    DynamicMis dm(EngineOptions::seeded(
        CsrGraph::from_edges(path_graph(256)), 11));
    MisTransaction txn(dm);
    EventRecorder::global().clear();
    UpdateBatch batch;
    batch.insert_edge(0, 255).insert_edge(17, 200).insert_edge(3, 128);
    batch.delete_edge(10, 11);
    txn.begin();
    txn.apply(batch);
    txn.commit();
    std::vector<std::tuple<uint16_t, uint64_t, uint64_t>> stream;
    for (const EventRecord& e : EventRecorder::global().merged())
      stream.emplace_back(e.kind, e.arg0, e.arg1);
    return stream;
  };
  const auto at1 = run(1);
  EXPECT_TRUE(std::any_of(at1.begin(), at1.end(), [](const auto& r) {
    return std::get<0>(r) == static_cast<uint16_t>(EventKind::kDecide);
  }));
  EXPECT_EQ(run(2), at1);
  EXPECT_EQ(run(4), at1);
  disarm_spans();
  EventRecorder::global().clear();
}

TEST(ObsPrometheus, ExpositionShape) {
  set_enabled(true);
  auto& reg = MetricsRegistry::global();
  reg.counter("test.prom.counter").add(5);
  reg.counter("test.prom.counter", "shard", "0").add(2);
  reg.counter("test.prom.counter", "shard", "1").add(3);
  reg.gauge("test.prom.gauge").set(9);
  reg.histogram("test.prom.hist").record(100);
  std::ostringstream out;
  write_prometheus(out);
  const std::string text = out.str();
  // Names are sanitized ('.' is illegal) and namespaced; one TYPE line
  // heads the whole family, labeled variants ride under it.
  EXPECT_NE(text.find("# TYPE pargreedy_test_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("\npargreedy_test_prom_counter 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("pargreedy_test_prom_counter{shard=\"0\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("pargreedy_test_prom_counter{shard=\"1\"} 3"),
            std::string::npos);
  EXPECT_EQ(text.find("test.prom"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pargreedy_test_prom_gauge gauge"),
            std::string::npos);
  // Power-of-two histograms export as summaries: three quantiles plus
  // _sum and _count.
  EXPECT_NE(text.find("# TYPE pargreedy_test_prom_hist summary"),
            std::string::npos);
  for (const char* q : {"0.5", "0.95", "0.99"}) {
    EXPECT_NE(
        text.find("pargreedy_test_prom_hist{quantile=\"" + std::string(q)),
        std::string::npos)
        << q;
  }
  EXPECT_NE(text.find("pargreedy_test_prom_hist_sum 100"),
            std::string::npos);
  EXPECT_NE(text.find("pargreedy_test_prom_hist_count 1"),
            std::string::npos);
}

TEST(ObsSeam, CompiledOutTuIsNoOp) {
  set_enabled(true);
  // The probe TU was compiled with PARGREEDY_OBS=0: its PG_OBS_* macros
  // must have expanded to nothing, so none of its metric names exist.
  emit_disabled_seam_probes();
  auto& reg = MetricsRegistry::global();
  EXPECT_EQ(reg.counter_value("test.seam.counter"), 0u);
  bool hist_registered = false;
  for (const auto& s : reg.snapshot()) {
    if (s.name == "test.seam.hist") hist_registered = true;
  }
  EXPECT_FALSE(hist_registered);
}

}  // namespace
}  // namespace pargreedy::obs
