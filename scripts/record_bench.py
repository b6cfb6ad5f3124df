#!/usr/bin/env python3
"""Run the repository benchmark once and append the run to BENCH_<workload>.json.

Usage: record_bench.py --workload W --seed N --seconds S --trace 0|1
                       --label parent|change [--checkout DIR]

Runs `python3 perfbench/run.py` in the checkout (default: this repository)
with the given arguments, reads the steal column of /proc/stat before and
after that call, and appends one record to BENCH_<workload>.json at the
root of this repository. The file is a JSON array of records, one per
line:

    {"commit": HEAD of the checkout (null without git),
     "dirty": true when tracked files differ from HEAD, i.e. the run
              measured a change not yet committed on top of it,
     "label": "parent" | "change",
     "args": {"workload": W, "seed": N, "seconds": S, "trace": T},
     "steal_share": hypervisor steal / CPU time over the call, from
                    /proc/stat (null when unreadable),
     "omp_wait_policy": OMP_WAIT_POLICY, null when unset,
     "nproc": CPUs this process may run on (as `nproc` prints),
     "result": run.py's final JSON line}

The window includes run.py's build step when it has to build. Records
transcribed from an earlier prose report carry "backfilled": true: their
commit is the one holding the measured code, dirty is null, and their
result holds only the metrics that report gave.

These files are not the bench tables of docs/BENCH.md (the
PARGREEDY_JSON_DIR captures): scripts/validate_bench_json.py does not
apply to them.

Exits with run.py's exit code. When run.py prints no result line,
appends nothing and exits non-zero.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LABELS = ("parent", "change")


def parse_cpu_times(stat_text: str):
    """(steal, total) jiffies from the aggregate `cpu` line of /proc/stat.
    total sums user..steal; guest time is already inside user and nice."""
    for line in stat_text.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            values = [int(v) for v in fields[1:9]]
            if len(values) < 8:
                raise ValueError("cpu line has fewer than 8 fields")
            return values[7], sum(values)
    raise ValueError("no aggregate cpu line")


def read_cpu_times(path="/proc/stat"):
    """parse_cpu_times of `path`, or None when it cannot be read."""
    try:
        return parse_cpu_times(Path(path).read_text())
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Stolen share of the CPU time between two read_cpu_times samples."""
    if before is None or after is None:
        return None
    total = after[1] - before[1]
    if total <= 0:
        return None
    return (after[0] - before[0]) / total


def last_json_object(stdout: str):
    """The last non-empty line of `stdout` as a JSON object, or None."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        value = json.loads(lines[-1])
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


def append_record(path: Path, record: dict) -> None:
    """Appends `record` to the JSON array in `path` (created when missing),
    one record per line, replacing the file atomically."""
    records = json.loads(path.read_text()) if path.exists() else []
    if not isinstance(records, list):
        raise ValueError(f"{path}: not a JSON array")
    records.append(record)
    body = ",\n".join(json.dumps(r, sort_keys=True) for r in records)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text("[\n" + body + "\n]\n")
    tmp.replace(path)


def git_state(checkout: Path):
    """(HEAD sha or None, whether tracked files other than the root
    BENCH_*.json records differ from it)."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True)
    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None, False
    status = git("status", "--porcelain", "--untracked-files=no", "--",
                 ".", ":(exclude)BENCH_*.json")
    return head.stdout.strip(), bool(status.stdout.strip())


def main(argv) -> int:
    # run.py validates the workload, seed, seconds and trace values.
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int)
    parser.add_argument("--label", required=True, choices=LABELS)
    parser.add_argument("--checkout", type=Path, default=REPO,
                        help="tree whose perfbench/run.py runs")
    args = parser.parse_args(argv)

    cmd = [sys.executable, str(args.checkout / "perfbench" / "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    before = read_cpu_times()
    run = subprocess.run(cmd, cwd=args.checkout, capture_output=True,
                         text=True)
    after = read_cpu_times()
    sys.stdout.write(run.stdout)
    sys.stderr.write(run.stderr)
    result = last_json_object(run.stdout)
    if result is None:
        print("record_bench: run.py printed no result line; nothing "
              "recorded", file=sys.stderr)
        return run.returncode or 1

    commit, dirty = git_state(args.checkout)
    record = {
        "commit": commit,
        "dirty": dirty,
        "label": args.label,
        "args": {"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace},
        "steal_share": steal_share(before, after),
        "omp_wait_policy": os.environ.get("OMP_WAIT_POLICY"),
        "nproc": len(os.sched_getaffinity(0)),
        "result": result,
    }
    out = REPO / f"BENCH_{args.workload}.json"
    append_record(out, record)
    share = record["steal_share"]
    print(f"record_bench: appended to {out} (steal "
          f"{'n/a' if share is None else f'{100 * share:.2f}%'})",
          file=sys.stderr)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
