#!/usr/bin/env python3
"""Validate the flight recorder's Chrome trace_event JSON exports.

Usage: validate_trace_json.py FILE [FILE ...]
           [--require NAME[@PH][,NAME[@PH]...]] [--require-chain N]

Each FILE must be a Chrome trace_event "JSON object format" document as
emitted by pargreedy's obs::EventRecorder (docs/OBSERVABILITY.md), for
every export (TRACE_*.json, EVENTS_*.json, failure dumps):

  * top level: an object with a non-empty "traceEvents" list, a
    non-empty string "reason" and an integer "overwritten" >= 0 (extra
    keys such as "displayTimeUnit" are allowed);
  * every record: an object with string "name", one-character "ph" in
    {X, i, C, M}, integer "ts" >= 0, and integer "pid"/"tid" >= 0;
    timestamps are non-decreasing (the recorder merges per-thread rings
    sorted by timestamp, and a span records at its open);
  * "X" (span) records additionally carry integer "dur" >= 0 and a
    string "cat";
  * "X" and "i" (event) records carry their correlation ids in "args":
    integer "batch_id"/"txn_id" >= 0, and "shard_id" >= 0 when present;
  * "C" (counter) records carry args.value as a non-negative integer;
  * "args", when present, is an object with int-or-string values.

--require NAME[@PH][,...] additionally demands that every listed record
occurs somewhere in each file — the CI bench-capture lane uses it to
pin the per-round decide/commit/expand spans, the txn.abort counter and
the repropagation, transaction and exchange events, so an
instrumentation regression fails the lane instead of shipping a hollow
recording. NAME@X, NAME@i and NAME@C demand a span, an event or a
counter of that name; a bare NAME is met by a span or an event, never by
a counter. Pin the phase of a shared name: txn.begin, txn.commit and
txn.abort each name a span, an event and a counter (every export
carries one counter record per registered counter), and a requirement
that another phase can meet still passes with its site deleted.

--require-chain N demands that some single batch_id's records span at
least N distinct args.shard_id values — the machine check that one
UpdateBatch is followable across all shards of a sharded run via its
correlation id.

Exits 0 when every file validates, 1 otherwise (all problems are
reported, not just the first), 2 on usage errors.
"""
import json
import sys
from pathlib import Path

VALID_PHASES = {"X", "i", "C", "M"}
# What each --require phase suffix demands ("" = no suffix).
REQUIRE_PHASES = {"": ("X", "i"), "X": ("X",), "i": ("i",), "C": ("C",)}
PHASE_WORDS = {"": "span or event", "X": "span", "i": "event",
               "C": "counter"}


def _nonneg_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def validate_event(event, where: str) -> list[str]:
    """Schema errors for one trace record."""
    if not isinstance(event, dict):
        return [f"{where}: event is {type(event).__name__}, not an object"]
    errors = []
    name = event.get("name")
    if not isinstance(name, str) or not name:
        errors.append(f"{where}: 'name' must be a non-empty string")
    ph = event.get("ph")
    if not isinstance(ph, str) or ph not in VALID_PHASES:
        errors.append(f"{where}: 'ph' must be one of {sorted(VALID_PHASES)}")
        return errors  # phase-specific checks are meaningless without ph
    for key in ("ts", "pid", "tid"):
        if not _nonneg_int(event.get(key)):
            errors.append(f"{where}: '{key}' must be a non-negative integer")
    if ph == "X":
        if not _nonneg_int(event.get("dur")):
            errors.append(f"{where}: complete event needs integer 'dur' >= 0")
        if not isinstance(event.get("cat"), str):
            errors.append(f"{where}: complete event needs a string 'cat'")
    args = event.get("args")
    if args is not None:
        if not isinstance(args, dict):
            errors.append(f"{where}: 'args' must be an object")
            args = {}
        else:
            for k, v in args.items():
                if not isinstance(v, (int, str)) or isinstance(v, bool):
                    errors.append(
                        f"{where}: args[{k!r}] must be an int or string")
    args = args or {}
    if ph in ("X", "i"):
        for key in ("batch_id", "txn_id"):
            if not _nonneg_int(args.get(key)):
                errors.append(
                    f"{where}: args.{key} must be a non-negative integer")
        if "shard_id" in args and not _nonneg_int(args["shard_id"]):
            errors.append(
                f"{where}: args.shard_id must be a non-negative integer")
    if ph == "C" and not _nonneg_int(args.get("value")):
        errors.append(
            f"{where}: counter event needs non-negative args.value")
    return errors


def validate_file(path: Path, required: list[tuple[str, str]], chain: int):
    """(errors, record count) for one trace file; `required` holds
    (name, phase suffix) pairs."""
    if not path.is_file():
        return [f"{path}: missing (recorder did not export)"], 0
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable or malformed JSON — {e}"], 0
    if not isinstance(doc, dict):
        return [f"{path}: top level must be an object"], 0
    errors = []
    if not isinstance(doc.get("reason"), str) or not doc.get("reason"):
        errors.append(f"{path}: 'reason' must be a non-empty string")
    if not _nonneg_int(doc.get("overwritten")):
        errors.append(f"{path}: 'overwritten' must be a non-negative integer")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return errors + [f"{path}: 'traceEvents' must be a non-empty list"], 0
    seen = set()  # (name, ph) of every record
    shards_per_batch = {}
    last_ts = 0
    for i, event in enumerate(events):
        errors += validate_event(event, f"{path} event {i}")
        if not isinstance(event, dict):
            continue
        if isinstance(event.get("name"), str):
            seen.add((event["name"], event.get("ph")))
        ts = event.get("ts")
        if _nonneg_int(ts):
            if ts < last_ts:
                errors.append(
                    f"{path} event {i}: 'ts' decreased ({ts} < {last_ts})")
            last_ts = ts
        args = event.get("args")
        if isinstance(args, dict):
            batch, shard = args.get("batch_id"), args.get("shard_id")
            if _nonneg_int(batch) and batch > 0 and _nonneg_int(shard):
                shards_per_batch.setdefault(batch, set()).add(shard)
    for name, phase in required:
        if not any((name, ph) in seen for ph in REQUIRE_PHASES[phase]):
            errors.append(f"{path}: required {PHASE_WORDS[phase]} {name!r} "
                          f"never occurs")
    if chain > 0:
        widest = max((len(s) for s in shards_per_batch.values()), default=0)
        if widest < chain:
            errors.append(
                f"{path}: no batch_id spans {chain} shards "
                f"(widest correlated chain covers {widest})")
    return errors, len(events)


def main(argv: list[str]) -> int:
    files, required, chain = [], [], 0
    args = argv[1:]
    while args:
        arg = args.pop(0)
        if arg == "--require":
            if not args:
                print("error: --require needs an argument", file=sys.stderr)
                return 2
            for item in filter(None, args.pop(0).split(",")):
                name, at, phase = item.partition("@")
                if (not name or phase not in REQUIRE_PHASES
                        or (at and not phase)):
                    print(f"error: --require {item!r}: expected NAME, "
                          f"NAME@X, NAME@i or NAME@C", file=sys.stderr)
                    return 2
                required.append((name, phase))
        elif arg == "--require-chain":
            if not args:
                print("error: --require-chain needs an argument",
                      file=sys.stderr)
                return 2
            try:
                chain = int(args.pop(0))
            except ValueError:
                print("error: --require-chain needs an integer",
                      file=sys.stderr)
                return 2
        else:
            files.append(Path(arg))
    if not files:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    errors = []
    for path in files:
        file_errors, count = validate_file(path, required, chain)
        if file_errors:
            errors += file_errors
        else:
            print(f"ok: {path} — {count} events")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
