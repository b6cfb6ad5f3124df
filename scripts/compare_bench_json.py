#!/usr/bin/env python3
"""Compare two directories of BENCH_*.json captures and flag regressions.

Usage: compare_bench_json.py BASELINE_DIR CURRENT_DIR [options]

Joins the two runs' captures by (bench, table name, row key), where the
row key is the first cell of each row (the sweep variable, e.g.
`batch_ops`), and compares every numeric cell under the same header.
Relative deltas beyond --threshold are flagged; whether a delta is a
*regression* depends on the column's direction:

  * higher-is-worse columns (--worse, default: times in ms/us, rounds,
    recomputed/seeds/retries/changed counters, and the snapshot bench's
    txn_aborts obs-counter delta) regress when they increase;
  * higher-is-better columns (--better, default: the `full/...`,
    `churn/...`, `rebuild/...` win ratios) regress when they decrease;
  * columns matching neither regex are reported when they move, but
    never fail the run (unknown direction).

Tables, rows, or whole benches present on only one side are reported as
informational (new benches appear every PR; a bench that stops emitting
is caught by validate_bench_json.py in the same CI lane). The baseline
side is held to the same standard: a baseline capture that is
unreadable, malformed JSON, or not the list-of-tables shape the join
needs is dropped with an informational note, so the matching current
capture reports as "new" — a PR that adds a bench the main baseline has
never produced (or whose baseline artifact got truncated) must not need
a gate exemption. Only the *current* side's captures are load-bearing,
and a broken one is still a hard error (exit 2).

Exit status: 1 if any regression was flagged, 2 on usage/IO errors,
0 otherwise. Used by the bench-capture CI lane to diff every PR's
artifacts against the latest main run; wall-clock columns on shared
runners are noisy, so CI passes a generous threshold and the
deterministic counter columns do the heavy lifting.
"""
import argparse
import json
import re
import sys
from pathlib import Path

DEFAULT_WORSE = (
    r"(_ms$|_us$|rounds|recomputed|seeds|retries|changed|txn_aborts)")
DEFAULT_BETTER = r"^(full|churn|rebuild)/"


def joinable(doc):
    """True when the parsed doc has the list-of-tables shape compare()
    joins on: a list of dicts, each with a string "name"."""
    return (isinstance(doc, list) and
            all(isinstance(t, dict) and isinstance(t.get("name"), str)
                for t in doc))


def load_captures(directory: Path, lenient: bool = False):
    """{bench name: parsed json} for every BENCH_*.json in directory.

    Strict mode (the current run's artifacts): an unreadable, malformed,
    or unjoinable capture exits 2 — the PR's own output is broken.
    Lenient mode (the main baseline): the capture is dropped with an
    informational note, so the bench joins as absent-from-baseline and
    the current side reports it as new (see the module docstring).
    """
    captures = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        name = path.stem[len("BENCH_"):]
        try:
            doc = json.loads(path.read_text())
            if not joinable(doc):
                raise ValueError("not a list of named tables")
        except (OSError, json.JSONDecodeError, ValueError) as e:
            if lenient:
                print(f"info: baseline {path.name} unreadable or "
                      f"unjoinable ({e}); treating bench '{name}' as "
                      f"absent from baseline")
                continue
            print(f"error: {path}: unreadable or malformed — {e}",
                  file=sys.stderr)
            raise SystemExit(2)  # IO/usage error, not a perf regression
        captures[name] = doc
    return captures


def index_rows(table):
    """{first cell: row} — later duplicates win, matching emission order.
    Rows that are not non-empty lists cannot be joined and are skipped."""
    return {row[0]: row for row in table.get("rows", [])
            if isinstance(row, list) and row}


def parse_number(cell: str):
    """float value of a table cell, or None for non-numeric cells."""
    try:
        return float(cell.replace(",", ""))
    except (ValueError, AttributeError):
        return None


def relative_delta(base: float, cur: float):
    """(cur - base) / |base|, treating a 0 -> 0 move as no delta."""
    if base == cur:
        return 0.0
    if base == 0:
        return float("inf") if cur > 0 else float("-inf")
    return (cur - base) / abs(base)


def compare(baseline, current, threshold, worse_re, better_re, report):
    """Walks one bench's tables; returns the number of regressions."""
    regressions = 0
    base_tables = {t["name"]: t for t in baseline}
    cur_tables = {t["name"]: t for t in current}
    for name in base_tables.keys() - cur_tables.keys():
        report("info", f"table '{name}' missing from current run")
    for name in cur_tables.keys() - base_tables.keys():
        report("info", f"table '{name}' is new in current run")
    for name in sorted(base_tables.keys() & cur_tables.keys()):
        bt, ct = base_tables[name], cur_tables[name]
        headers = bt.get("headers", [])
        if headers != ct.get("headers", []):
            report("info", f"table '{name}': headers changed; skipping")
            continue
        base_rows, cur_rows = index_rows(bt), index_rows(ct)
        for key in base_rows.keys() - cur_rows.keys():
            report("info", f"table '{name}' row '{key}' missing from current")
        for key in cur_rows.keys() - base_rows.keys():
            report("info", f"table '{name}' row '{key}' is new in current")
        for key in sorted(base_rows.keys() & cur_rows.keys()):
            for header, base_cell, cur_cell in zip(
                    headers[1:], base_rows[key][1:], cur_rows[key][1:]):
                base_val = parse_number(base_cell)
                cur_val = parse_number(cur_cell)
                if base_val is None or cur_val is None:
                    continue
                delta = relative_delta(base_val, cur_val)
                if abs(delta) <= threshold:
                    continue
                where = (f"table '{name}' row '{key}' column '{header}': "
                         f"{base_cell} -> {cur_cell} ({delta:+.1%})")
                if worse_re.search(header):
                    if delta > 0:
                        regressions += 1
                        report("REGRESSION", where)
                    else:
                        report("improved", where)
                elif better_re.search(header):
                    if delta < 0:
                        regressions += 1
                        report("REGRESSION", where)
                    else:
                        report("improved", where)
                else:
                    report("changed", where)
    return regressions


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative delta considered noise (default 0.25)")
    parser.add_argument("--worse", default=DEFAULT_WORSE,
                        help="regex of higher-is-worse column headers")
    parser.add_argument("--better", default=DEFAULT_BETTER,
                        help="regex of higher-is-better column headers")
    parser.add_argument("--benches", nargs="*",
                        help="restrict to these bench names (default: all "
                             "benches present in the baseline)")
    args = parser.parse_args(argv[1:])
    for directory in (args.baseline, args.current):
        if not directory.is_dir():
            print(f"error: {directory} is not a directory", file=sys.stderr)
            return 2
    worse_re = re.compile(args.worse)
    better_re = re.compile(args.better)

    baseline = load_captures(args.baseline, lenient=True)
    current = load_captures(args.current)
    if args.benches:
        baseline = {b: t for b, t in baseline.items() if b in args.benches}
        current = {b: t for b, t in current.items() if b in args.benches}

    regressions = 0
    lines = []

    def report(kind, message):
        lines.append((kind, message))

    for bench in sorted(baseline.keys() - current.keys()):
        report("info", f"bench '{bench}' missing from current run")
    for bench in sorted(current.keys() - baseline.keys()):
        report("info", f"bench '{bench}' is new in current run")
    for bench in sorted(baseline.keys() & current.keys()):
        regressions += compare(baseline[bench], current[bench],
                               args.threshold, worse_re, better_re,
                               lambda kind, msg, b=bench:
                               report(kind, f"[{b}] {msg}"))

    for kind, message in lines:
        stream = sys.stderr if kind == "REGRESSION" else sys.stdout
        print(f"{kind}: {message}", file=stream)
    compared = sorted(baseline.keys() & current.keys())
    print(f"compared benches: {', '.join(compared) if compared else '(none)'}"
          f" — {regressions} regression(s) beyond {args.threshold:.0%}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
