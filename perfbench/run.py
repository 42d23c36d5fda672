#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune into .bench_build/, runs it, prints
every metric it measured (name, value, unit, sample count, tail percentile)
and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics. Exits 0 only when every execution
passed its checks.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BUILD_DIR = os.path.abspath(os.path.join(".bench_build", "dune"))
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
SPANS_DIR = os.path.join(".bench_build", "spans")
TIME_LIMIT = 175.0  # seconds for one measured run, build excluded


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache", "disabled",
           "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed (dune exit %d)" % done.returncode)


def show(m):
    tail = ""
    if "tail_pct" in m:
        tail = "  p%d %.6g" % (m["tail_pct"], m["tail"])
    print("  %-26s %16.6f %-6s n=%-5d%s"
          % (m["name"], m["value"], m["unit"], m["samples"], tail))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    if not os.path.exists(EXE):
        fail("build produced no %s" % EXE)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans = os.path.join(SPANS_DIR, "%s-seed%d.json"
                             % (args.workload, args.seed))
        cmd += ["--spans-out", spans]
    start = time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=TIME_LIMIT)
    except subprocess.TimeoutExpired:
        fail("%s ran longer than %.0f s" % (args.workload, TIME_LIMIT))
    if done.returncode != 0:
        fail("perfbench.exe exited with %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("perfbench.exe printed no result")

    measured = {m["name"]: m for m in raw["metrics"]
                if isinstance(m["value"], (int, float))}
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        fail("metrics not measured: " + ", ".join(missing))
    for m in wanted:
        if measured[m["name"]]["unit"] != m["unit"]:
            fail("metric %s measured in %s, declared in %s"
                 % (m["name"], measured[m["name"]]["unit"], m["unit"]))

    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    print("workload %s  seed %d  trace %d  %.1f s"
          % (args.workload, args.seed, args.trace, time.monotonic() - start))
    for m in measured.values():
        show(m)
    print("  %-26s %16.6f %-6s attempted=%d failed=%d"
          % ("fail_ratio", failed / max(attempted, 1), "ratio",
             attempted, failed))
    for p in raw["problems"]:
        print("  check failed: " + p)
    if args.trace:
        print("  spans written to " + spans)

    correct = failed == 0 and attempted >= 1 and not raw["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
