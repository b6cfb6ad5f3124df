#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (a CMake package compiling the library from ../src)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset, runs the benchmark's own unit tests (perfbench_selftest), runs one
workload, and prints the program's context and metric ledger followed, as
the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Exits non-zero, without that line, when the
sources are missing, the build fails or a unit test fails, and with it
(correct: false) when an operation failed or an audit disagreed with its
oracle.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
WORKLOADS = ("static-solve", "serve-small", "serve-large")
BUILD_TIMEOUT_S = 850
SELFTEST_TIMEOUT_S = 30
RUN_TIMEOUT_S = 175
# Settings that would change what the library does or records; the
# benchmark times the library's defaults.
CLEARED_ENV = ("PARGREEDY_OBS", "PARGREEDY_TRACE", "PARGREEDY_TRACE_DIR",
               "PARGREEDY_EVENTS_DIR", "PARGREEDY_JSON_DIR", "PARGREEDY_SCALE",
               "OMP_NUM_THREADS")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(root):
        root = os.path.join(REPO, root)
    return os.path.join(root, "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark and its unit tests."""
    log_path = os.path.join(out_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j4", "--target", "perfbench",
                  "perfbench_selftest"])
    os.makedirs(out_dir, exist_ok=True)
    with open(log_path, "w") as log:
        for step in steps:
            try:
                rc = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (step[:2], e))
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)


def selftest(out_dir, env):
    """Runs the benchmark's own unit tests; exits when one fails."""
    try:
        out = subprocess.run([os.path.join(out_dir, "perfbench_selftest")],
                             env=env, capture_output=True, text=True,
                             timeout=SELFTEST_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("selftest did not run: %s" % e)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        fail("selftest failed (exit code %d)" % out.returncode)


def commit_id():
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def select(results, specs):
    """The metrics `specs` names, as {name: {value, unit}}."""
    metrics = {}
    for spec in specs:
        m = results["metrics"].get(spec["name"])
        if m is None or m["value"] is None:
            fail("metric %s was not measured" % spec["name"])
        if m["unit"] != spec["unit"]:
            fail("metric %s is in %s, BENCHMARK.json says %s"
                 % (spec["name"], m["unit"], spec["unit"]))
        metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("library sources not found under %s" % os.path.join(REPO, "src"))
    try:
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)

    out_dir = build_dir()
    build(out_dir)
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    selftest(out_dir, env)
    binary = os.path.join(out_dir, "perfbench")
    tag = "%s-%d-%d" % (args.workload, args.seed, args.trace)
    results_path = os.path.join(out_dir, "results-%s.json" % tag)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", results_path, "--commit", commit_id()]
    if args.trace:
        cmd += ["--spans", os.path.join(out_dir, "spans-%s.tsv" % tag)]
    if os.path.exists(results_path):
        os.remove(results_path)
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    try:
        with open(results_path) as f:
            results = json.load(f)
    except (OSError, ValueError) as e:
        fail("no results (exit code %d): %s" % (rc, e))

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    line = {"correct": bool(results["correct"]) and rc == 0,
            "attempted": int(results["attempted"]),
            "failed": int(results["failed"]),
            "metrics": select(results, specs)}
    print(json.dumps(line))
    sys.exit(0 if line["correct"] else 1)


if __name__ == "__main__":
    main()
