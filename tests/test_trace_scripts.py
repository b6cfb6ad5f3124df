#!/usr/bin/env python3
"""Unit tests for scripts/validate_trace_json.py — the validator guarding
the CI bench-capture lane's flight-recorder artifacts (traces, event
recordings, failure dumps). Invoked through CTest (stdlib unittest, no
third-party dependencies).
"""
import importlib.util
import json
import tempfile
import unittest
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


validate = load("validate_trace_json")


def span(name, cat="repro", ts=10, dur=5, batch_id=1, txn_id=0, **args):
    return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
            "pid": 1, "tid": 0,
            "args": dict(batch_id=batch_id, txn_id=txn_id, **args)}


def event(name, ts=10, batch_id=1, txn_id=0, **args):
    return {"name": name, "cat": "engine", "ph": "i", "s": "t", "ts": ts,
            "pid": 1, "tid": 0,
            "args": dict(batch_id=batch_id, txn_id=txn_id, **args)}


def counter(name, value, ts=100):
    return {"name": name, "cat": "metrics", "ph": "C", "ts": ts, "pid": 1,
            "tid": 0, "args": {"value": value}}


def doc(records, reason="on_demand", overwritten=0):
    return {"traceEvents": records, "displayTimeUnit": "ms",
            "reason": reason, "overwritten": overwritten}


GOOD = doc([
    {"name": "process_name", "ph": "M", "ts": 0, "pid": 1, "tid": 0,
     "args": {"name": "pargreedy"}},
    event("batch.begin", ts=1, batch_size=64),
    span("decide", ts=2, round=1, frontier=12),
    event("shard.exchange_round", ts=3, shard_id=0, round=1),
    event("shard.exchange_round", ts=4, shard_id=1, round=1),
    event("shard.exchange_round", ts=5, shard_id=2, round=1),
    event("shard.exchange_round", ts=6, shard_id=3, round=1),
    event("repro.round", ts=7, frontier=12, flipped=3),
    span("commit", ts=8, round=1, flipped=3),
    span("expand", ts=9),
    event("batch.end", ts=10, rounds=2, changed=3),
    counter("txn.abort", 4),
])


class TraceFileTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def write(self, content, name="TRACE_demo.json"):
        path = self.dir / name
        path.write_text(
            content if isinstance(content, str) else json.dumps(content))
        return path

    def run_main(self, *argv):
        return validate.main(["validate_trace_json", *map(str, argv)])


class ValidateTraceJsonTest(TraceFileTest):
    def test_accepts_well_formed_trace(self):
        self.assertEqual(self.run_main(self.write(GOOD)), 0)

    def test_missing_file_fails(self):
        self.assertEqual(self.run_main(self.dir / "TRACE_absent.json"), 1)

    def test_malformed_json_fails(self):
        self.assertEqual(self.run_main(self.write("{]")), 1)

    def test_top_level_list_fails(self):
        # The recorder emits JSON *object* format; bare event arrays (also
        # legal Chrome input) are rejected so a writer regression shows.
        self.assertEqual(self.run_main(self.write(GOOD["traceEvents"])), 1)

    def test_empty_trace_events_fails(self):
        self.assertEqual(self.run_main(self.write(doc([]))), 1)

    def test_missing_reason_fails(self):
        bad = dict(GOOD)
        del bad["reason"]
        self.assertEqual(self.run_main(self.write(bad)), 1)

    def test_missing_overwritten_fails(self):
        bad = dict(GOOD)
        del bad["overwritten"]
        self.assertEqual(self.run_main(self.write(bad)), 1)

    def test_empty_name_fails(self):
        self.assertEqual(self.run_main(self.write(doc([event("")]))), 1)

    def test_unknown_phase_fails(self):
        bad = doc([dict(span("x"), ph="Z")])
        self.assertEqual(self.run_main(self.write(bad)), 1)

    def test_complete_event_without_dur_fails(self):
        record = span("x")
        del record["dur"]
        self.assertEqual(self.run_main(self.write(doc([record]))), 1)

    def test_negative_ts_fails(self):
        self.assertEqual(self.run_main(self.write(doc([span("x", ts=-1)]))), 1)

    def test_decreasing_timestamps_fail(self):
        bad = doc([event("a", ts=5), event("b", ts=4)])
        self.assertEqual(self.run_main(self.write(bad)), 1)

    def test_counter_without_value_fails(self):
        record = counter("c", 1)
        record["args"] = {}
        self.assertEqual(self.run_main(self.write(doc([record]))), 1)

    def test_boolean_args_fail(self):
        self.assertEqual(
            self.run_main(self.write(doc([span("x", flag=True)]))), 1)
        self.assertEqual(
            self.run_main(self.write(doc([event("x", batch_id=True)]))), 1)

    def test_record_without_correlation_ids_fails(self):
        for record in (span("x"), event("x")):
            del record["args"]["txn_id"]
            self.assertEqual(self.run_main(self.write(doc([record]))), 1)

    def test_negative_shard_fails(self):
        # Outside a shard scope a record carries no shard_id at all.
        self.assertEqual(
            self.run_main(self.write(doc([event("x", shard_id=-1)]))), 1)

    def test_require_satisfied_passes(self):
        path = self.write(GOOD)
        self.assertEqual(
            self.run_main(path, "--require", "decide,commit,expand"), 0)
        self.assertEqual(
            self.run_main(path, "--require",
                          "batch.begin@i,repro.round,batch.end,txn.abort@C"),
            0)

    def test_require_missing_name_fails(self):
        self.assertEqual(
            self.run_main(self.write(GOOD), "--require", "never_emitted"), 1)

    def test_require_applies_to_every_file(self):
        # txn.abort occurs in GOOD but not in a second counter-free file.
        other = doc([span("decide")])
        self.assertEqual(
            self.run_main(self.write(GOOD),
                          self.write(other, "TRACE_other.json"),
                          "--require", "txn.abort@C"), 1)

    def test_bare_require_is_not_met_by_a_counter(self):
        # Every export carries a counter per registered counter; the
        # txn.begin counter alone must not stand in for the event.
        only_counter = self.write(doc([counter("txn.begin", 3)]))
        self.assertEqual(self.run_main(only_counter, "--require",
                                       "txn.begin"), 1)
        self.assertEqual(self.run_main(only_counter, "--require",
                                       "txn.begin@C"), 0)

    def test_require_pins_the_phase(self):
        # A txn.commit span and counter without the txn.commit event.
        path = self.write(doc([span("txn.commit", cat="txn", txn_id=1),
                               counter("txn.commit", 1)]))
        self.assertEqual(self.run_main(path, "--require", "txn.commit@i"), 1)
        self.assertEqual(self.run_main(path, "--require", "txn.commit@X"), 0)
        self.assertEqual(self.run_main(path, "--require", "txn.commit"), 0)
        only_event = self.write(doc([event("txn.commit", txn_id=1)]),
                                "TRACE_event.json")
        self.assertEqual(
            self.run_main(only_event, "--require", "txn.commit@X"), 1)
        self.assertEqual(
            self.run_main(only_event, "--require", "txn.commit@C"), 1)
        self.assertEqual(
            self.run_main(only_event, "--require", "txn.commit@i"), 0)

    def test_require_chain_satisfied_passes(self):
        self.assertEqual(
            self.run_main(self.write(GOOD), "--require-chain", "4"), 0)

    def test_require_chain_too_wide_fails(self):
        self.assertEqual(
            self.run_main(self.write(GOOD), "--require-chain", "5"), 1)

    def test_require_chain_ignores_unbatched_records(self):
        # shard context without a batch id is not a correlated chain.
        loose = doc([event("x", batch_id=0, shard_id=s, ts=s)
                     for s in range(4)])
        self.assertEqual(
            self.run_main(self.write(loose), "--require-chain", "2"), 1)

    def test_one_bad_file_fails_the_set(self):
        self.assertEqual(
            self.run_main(self.write(GOOD),
                          self.write("{]", "TRACE_bad.json")), 1)

    def test_no_files_is_usage_error(self):
        self.assertEqual(self.run_main(), 2)

    def test_require_without_argument_is_usage_error(self):
        self.assertEqual(self.run_main(self.write(GOOD), "--require"), 2)

    def test_require_unknown_phase_is_usage_error(self):
        for item in ("decide@Q", "decide@", "@X"):
            self.assertEqual(
                self.run_main(self.write(GOOD), "--require", item), 2, item)

    def test_require_chain_non_integer_is_usage_error(self):
        self.assertEqual(
            self.run_main(self.write(GOOD), "--require-chain", "wide"), 2)


if __name__ == "__main__":
    unittest.main(verbosity=2)
