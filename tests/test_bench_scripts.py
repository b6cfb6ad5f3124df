#!/usr/bin/env python3
"""Unit tests for the bench tooling: scripts/validate_bench_json.py,
scripts/compare_bench_json.py and scripts/record_bench.py. Invoked through
CTest (stdlib unittest, no third-party dependencies) so the tooling that
guards the CI bench lane and records the perf trajectory is itself
regression-guarded.
"""
import importlib.util
import json
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


validate = load("validate_bench_json")
compare = load("compare_bench_json")
record = load("record_bench")


def table(name, headers, rows):
    return {"name": name, "headers": headers, "rows": rows}


GOOD = [table("mis: random", ["batch_ops", "update_ms", "full/update"],
              [["2", "0.10", "100.0"], ["20", "0.50", "40.0"]])]


class TempDirTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def write(self, subdir, bench, doc):
        d = self.dir / subdir
        d.mkdir(parents=True, exist_ok=True)
        (d / f"BENCH_{bench}.json").write_text(json.dumps(doc))
        return d


class ValidateBenchJsonTest(TempDirTest):
    def run_main(self, *benches, subdir="a"):
        return validate.main(["validate", str(self.dir / subdir), *benches])

    def test_accepts_well_formed_capture(self):
        self.write("a", "demo", GOOD)
        self.assertEqual(self.run_main("demo"), 0)

    def test_missing_file_fails(self):
        (self.dir / "a").mkdir()
        self.assertEqual(self.run_main("demo"), 1)

    def test_malformed_json_fails(self):
        d = self.dir / "a"
        d.mkdir()
        (d / "BENCH_demo.json").write_text("[{]")
        self.assertEqual(self.run_main("demo"), 1)

    def test_empty_top_level_fails(self):
        self.write("a", "demo", [])
        self.assertEqual(self.run_main("demo"), 1)

    def test_row_arity_mismatch_fails(self):
        bad = [table("t", ["a", "b"], [["1", "2"], ["only-one"]])]
        self.write("a", "demo", bad)
        self.assertEqual(self.run_main("demo"), 1)

    def test_non_string_cells_fail(self):
        bad = [table("t", ["a"], [[1]])]
        self.write("a", "demo", bad)
        self.assertEqual(self.run_main("demo"), 1)

    def test_unexpected_keys_fail(self):
        bad = [dict(table("t", ["a"], [["1"]]), extra=1)]
        self.write("a", "demo", bad)
        self.assertEqual(self.run_main("demo"), 1)

    def test_one_bad_bench_fails_the_set(self):
        self.write("a", "good", GOOD)
        self.write("a", "bad", [])
        self.assertEqual(self.run_main("good", "bad"), 1)


class CompareBenchJsonTest(TempDirTest):
    def run_main(self, *extra):
        return compare.main(["compare", str(self.dir / "base"),
                             str(self.dir / "cur"), *extra])

    def test_identical_runs_pass(self):
        self.write("base", "demo", GOOD)
        self.write("cur", "demo", GOOD)
        self.assertEqual(self.run_main(), 0)

    def test_regression_in_worse_column_fails(self):
        self.write("base", "demo", GOOD)
        worse = [table("mis: random", GOOD[0]["headers"],
                       [["2", "0.50", "100.0"], ["20", "0.50", "40.0"]])]
        self.write("cur", "demo", worse)
        self.assertEqual(self.run_main(), 1)

    def test_improvement_in_worse_column_passes(self):
        self.write("base", "demo", GOOD)
        better = [table("mis: random", GOOD[0]["headers"],
                        [["2", "0.01", "100.0"], ["20", "0.05", "40.0"]])]
        self.write("cur", "demo", better)
        self.assertEqual(self.run_main(), 0)

    def test_drop_in_better_column_fails(self):
        self.write("base", "demo", GOOD)
        worse = [table("mis: random", GOOD[0]["headers"],
                       [["2", "0.10", "1.0"], ["20", "0.50", "40.0"]])]
        self.write("cur", "demo", worse)
        self.assertEqual(self.run_main(), 1)

    def test_threshold_masks_noise(self):
        self.write("base", "demo", GOOD)
        noisy = [table("mis: random", GOOD[0]["headers"],
                       [["2", "0.11", "95.0"], ["20", "0.54", "41.0"]])]
        self.write("cur", "demo", noisy)
        self.assertEqual(self.run_main("--threshold", "0.25"), 0)
        self.assertEqual(self.run_main("--threshold", "0.01"), 1)

    def test_new_bench_and_new_rows_are_informational(self):
        self.write("base", "demo", GOOD)
        extended = [table("mis: random", GOOD[0]["headers"],
                          GOOD[0]["rows"] + [["200", "2.0", "10.0"]]),
                    table("new series", ["a"], [["1"]])]
        self.write("cur", "demo", extended)
        self.write("cur", "brand_new_bench", GOOD)
        self.assertEqual(self.run_main(), 0)

    def test_missing_bench_in_current_is_informational(self):
        self.write("base", "demo", GOOD)
        self.write("base", "gone", GOOD)
        self.write("cur", "demo", GOOD)
        self.assertEqual(self.run_main(), 0)

    def test_header_change_skips_table(self):
        self.write("base", "demo", GOOD)
        renamed = [table("mis: random", ["batch_ops", "other_ms", "x"],
                         [["2", "9.99", "1"]])]
        self.write("cur", "demo", renamed)
        self.assertEqual(self.run_main(), 0)

    def test_benches_filter_restricts_comparison(self):
        self.write("base", "demo", GOOD)
        regressed = [table("mis: random", GOOD[0]["headers"],
                           [["2", "9.99", "100.0"]])]
        self.write("cur", "demo", regressed)
        self.write("base", "other", GOOD)
        self.write("cur", "other", GOOD)
        self.assertEqual(self.run_main("--benches", "other"), 0)
        self.assertEqual(self.run_main("--benches", "demo"), 1)

    def test_unknown_direction_columns_never_fail(self):
        headers = ["k", "mystery_metric"]
        self.write("base", "demo", [table("t", headers, [["1", "10"]])])
        self.write("cur", "demo", [table("t", headers, [["1", "99"]])])
        self.assertEqual(self.run_main(), 0)

    def test_missing_directory_errors(self):
        self.write("base", "demo", GOOD)
        self.assertEqual(self.run_main(), 2)

    def test_malformed_current_capture_is_io_error(self):
        # The PR's own artifact being broken is load-bearing: hard error.
        self.write("base", "demo", GOOD)
        d = self.dir / "cur"
        d.mkdir()
        (d / "BENCH_demo.json").write_text("[{]")
        with self.assertRaises(SystemExit) as ctx:
            self.run_main()
        self.assertEqual(ctx.exception.code, 2)

    def test_unjoinable_current_capture_is_io_error(self):
        self.write("base", "demo", GOOD)
        self.write("cur", "demo", {"not": "a list of tables"})
        with self.assertRaises(SystemExit) as ctx:
            self.run_main()
        self.assertEqual(ctx.exception.code, 2)

    def test_malformed_baseline_demotes_bench_to_new(self):
        # A truncated/garbage baseline artifact must not block the PR:
        # the bench joins as absent-from-baseline, current reports as
        # new, informational — even when the current rows would have
        # regressed against what the baseline used to say.
        d = self.dir / "base"
        d.mkdir()
        (d / "BENCH_demo.json").write_text("[{]")
        regressed = [table("mis: random", GOOD[0]["headers"],
                           [["2", "9.99", "1.0"]])]
        self.write("cur", "demo", regressed)
        self.assertEqual(self.run_main(), 0)

    def test_unjoinable_baseline_demotes_bench_to_new(self):
        # Valid JSON, wrong shape (not a list of named tables) — same
        # lenient treatment as malformed JSON, and it must not traceback.
        self.write("base", "demo", {"tables": "nope"})
        self.write("base", "shaped", [["rows", "without", "dicts"]])
        self.write("cur", "demo", GOOD)
        self.write("cur", "shaped", GOOD)
        self.assertEqual(self.run_main(), 0)

    def test_lenient_baseline_only_drops_the_broken_bench(self):
        # The broken baseline capture is scoped: other benches still
        # join and still gate.
        d = self.dir / "base"
        self.write("base", "demo", GOOD)
        (d / "BENCH_broken.json").write_text("[{]")
        regressed = [table("mis: random", GOOD[0]["headers"],
                           [["2", "9.99", "100.0"]])]
        self.write("cur", "demo", regressed)
        self.write("cur", "broken", GOOD)
        self.assertEqual(self.run_main(), 1)

    def test_sharded_batch_lands_without_baseline(self):
        # The exact scenario the lenient baseline exists for: the PR
        # introduces bench/sharded_batch, so BENCH_sharded_batch.json is
        # in the current artifacts but main's baseline has never
        # produced one. The gate must pass without an exemption.
        self.write("base", "dynamic_batch", GOOD)
        self.write("cur", "dynamic_batch", GOOD)
        sharded = [table("mis: random", ["shards", "avg_update_ms",
                                         "exchange_rounds",
                                         "boundary_seeds",
                                         "conflict_retries"],
                         [["1", "0.22", "5", "0", "0"],
                          ["8", "0.91", "14", "123", "2"]])]
        self.write("cur", "sharded_batch", sharded)
        self.assertEqual(self.run_main(), 0)
        # And once main has a baseline, the counters gate as usual.
        self.write("base", "sharded_batch", sharded)
        self.assertEqual(self.run_main(), 0)
        worse = [table("mis: random", sharded[0]["headers"],
                       [["1", "0.22", "5", "0", "0"],
                        ["8", "0.91", "44", "999", "2"]])]
        self.write("cur", "sharded_batch", worse)
        self.assertEqual(self.run_main(), 1)

    def test_unjoinable_rows_are_skipped_not_fatal(self):
        # A baseline table whose rows list contains junk joins on the
        # well-formed rows and ignores the rest.
        messy = [dict(table("mis: random", GOOD[0]["headers"],
                            [GOOD[0]["rows"][0], [], "junk",
                             GOOD[0]["rows"][1]]))]
        self.write("base", "demo", messy)
        self.write("cur", "demo", GOOD)
        self.assertEqual(self.run_main(), 0)


STAT = """cpu  100 5 50 800 10 2 3 30 7 1
cpu0 50 2 25 400 5 1 1 15 3 0
intr 12345
"""

FAKE_RUN = """import json, sys
print("perfbench: context and ledger")
if "--seed" in sys.argv and sys.argv[sys.argv.index("--seed") + 1] == "0":
    sys.exit(2)
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}))
"""


class RecordBenchTest(TempDirTest):
    def test_parses_aggregate_cpu_line(self):
        # user..steal sum to 1000; guest (7) and guest_nice (1) are already
        # inside user and nice and stay out of the total.
        self.assertEqual(record.parse_cpu_times(STAT), (30, 1000))

    def test_rejects_stat_without_cpu_line(self):
        with self.assertRaises(ValueError):
            record.parse_cpu_times("cpu0 1 2 3 4 5 6 7 8\n")
        with self.assertRaises(ValueError):
            record.parse_cpu_times("cpu 1 2 3\n")

    def test_unreadable_stat_reads_none(self):
        self.assertIsNone(record.read_cpu_times(self.dir / "missing"))
        path = self.dir / "stat"
        path.write_text(STAT)
        self.assertEqual(record.read_cpu_times(path), (30, 1000))

    def test_steal_share_is_stolen_over_elapsed_time(self):
        self.assertAlmostEqual(record.steal_share((30, 1000), (35, 1400)),
                               5 / 400)
        self.assertIsNone(record.steal_share(None, (35, 1400)))
        self.assertIsNone(record.steal_share((30, 1000), (30, 1000)))

    def test_last_json_object_takes_the_final_line(self):
        out = 'ledger {"not": "last"}\n{"correct": true}\n\n'
        self.assertEqual(record.last_json_object(out), {"correct": True})
        self.assertIsNone(record.last_json_object(""))
        self.assertIsNone(record.last_json_object("build failed\n"))
        self.assertIsNone(record.last_json_object("[1, 2]\n"))

    def test_append_creates_then_extends_one_record_per_line(self):
        path = self.dir / "BENCH_serve-small.json"
        record.append_record(path, {"label": "parent", "seed": 1})
        record.append_record(path, {"label": "change", "seed": 1})
        self.assertEqual(json.loads(path.read_text()),
                         [{"label": "parent", "seed": 1},
                          {"label": "change", "seed": 1}])
        self.assertEqual(len(path.read_text().splitlines()), 4)
        self.assertFalse(path.with_name(path.name + ".tmp").exists())

    def test_append_refuses_a_file_that_is_not_an_array(self):
        path = self.dir / "BENCH_x.json"
        path.write_text('{"name": "a bench table file"}')
        with self.assertRaises(ValueError):
            record.append_record(path, {})

    def run_main(self, seed):
        # The temporary directory stands in for the repository root, so
        # the record lands there and the default checkout is the fake.
        (self.dir / "perfbench").mkdir(exist_ok=True)
        (self.dir / "perfbench" / "run.py").write_text(FAKE_RUN)
        repo = record.REPO
        record.REPO = self.dir
        self.addCleanup(setattr, record, "REPO", repo)
        return record.main(["--workload", "serve-small", "--seed", str(seed),
                            "--seconds", "2", "--trace", "0",
                            "--label", "change"])

    def test_main_appends_the_result_line_with_its_context(self):
        self.assertEqual(self.run_main(5), 0)
        (rec,) = json.loads((self.dir / "BENCH_serve-small.json").read_text())
        self.assertEqual(rec["label"], "change")
        self.assertEqual(rec["args"], {"workload": "serve-small", "seed": 5,
                                       "seconds": 2.0, "trace": 0})
        self.assertEqual(rec["result"]["metrics"]["setup_s"]["value"], 0.5)
        self.assertGreaterEqual(rec["nproc"], 1)
        for key in ("commit", "dirty", "steal_share", "omp_wait_policy"):
            self.assertIn(key, rec)

    def test_main_appends_nothing_without_a_result_line(self):
        self.assertNotEqual(self.run_main(0), 0)
        self.assertFalse((self.dir / "BENCH_serve-small.json").exists())


if __name__ == "__main__":
    unittest.main(verbosity=2)
