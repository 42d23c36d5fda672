#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its own bounds.

Usage, from the root of the repository:

    python3 perfbench/steady.py [--runs 10] [--exact]

Runs every workload of BENCHMARK.json in two sets of --runs runs, each run
with another seed (seeds 1 to 2 x --runs). For each end-to-end metric and
set it reports the distance between the first and third quartile of the
values as a share of their median, against the metric's bound, and checks
that the second set's median is not worse than the first's by more than
the bound.

With --exact it runs each workload's seed 1 twice more untraced and twice
traced, and checks that the exact metrics repeat to the last digit:
alloc_mb (reported, not held, on campaign-grid, whose in-process leg runs
on 2 domains) and the per-layer counts. Timings are never exact. With
--runs 0 only this check runs.

Exits non-zero if a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

# What kind of number each metric is. Exact values repeat to the last
# digit for a fixed seed and compiler; the others are measured.
KIND = {
    "setup_s": "timing",
    "run_s": "timing",
    "alloc_mb": "exact per seed (campaign-grid: 2 domains, near-exact)",
    "peak_heap_mb": "GC-paced size, repeats closely",
}
EXACT_PER_LAYER = [
    "engine.letters", "engine.adversary_letters", "engine.rejected_forgeries",
    "protocol.calls", "adversary.calls", "jsonx.bytes",
    "faults.excused_ratio", "faults.dropped", "trace.spans",
    "service.worker_restarts", "service.requeued_shards",
    "service.protocol_errors",
]

# The per-layer self times; with trace.unattributed_s they add up to
# trace.run_s.
SELF_TIMES = [
    "engine.self_s", "protocol.send_s", "protocol.receive_s",
    "adversary.deliver_s", "adversary.corrupt_s", "verdict.check_s",
    "campaign.instantiate_s", "campaign.run_s", "campaign.fold_s",
    "jsonx.render_s", "trace.unattributed_s",
]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    print("  %s seed %d trace %d: %.1f s" % (workload, seed, trace,
                                           time.monotonic() - start))
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        raise SystemExit("%s seed %d failed (exit %d)"
                         % (workload, seed, done.returncode))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def check_spreads(w, spec, runs, seconds, bad):
    sets = []
    for k in range(2):
        values = []
        for i in range(runs):
            values.append(run(w, 1 + k * runs + i, seconds, 0))
            print("    " + json.dumps(values[-1]), flush=True)
        sets.append(values)
    print("%s (2 sets of %d runs x %d s)" % (w, runs, seconds))
    print("  %-13s %14s %14s %14s %8s %6s  %s"
          % ("metric", "median", "q1", "q3", "spread", "bound", "kind"))
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        medians = []
        for values in sets:
            med, q1, q3, s = spread([r[name] for r in values])
            medians.append(med)
            verdict = ("ok" if s < bound / 3 else
                       "within bound" if s <= bound else "OVER BOUND")
            if s > bound:
                bad.append("%s %s spread %.3f > %.3f" % (w, name, s, bound))
            print("  %-13s %14.6f %14.6f %14.6f %8.4f %6.3f  %s, %s"
                  % (name, med, q1, q3, s, bound, KIND[name], verdict))
        worse = (medians[1] - medians[0]) / medians[0]
        if m["better"] == "higher":
            worse = -worse
        print("  %-13s second median %+.4f vs first%s"
              % (name, worse, "  WORSE THAN BOUND" if worse > bound else ""))
        if worse > bound:
            bad.append("%s %s median drift %.3f" % (w, name, worse))


def check_exact(w, seed, seconds, bad):
    u = [run(w, seed, seconds, 0) for _ in range(2)]
    print("  %s alloc_mb for seed %d: %r, %r (%s)"
          % (w, seed, u[0]["alloc_mb"], u[1]["alloc_mb"],
             "exact" if u[0]["alloc_mb"] == u[1]["alloc_mb"] else "differs"))
    if w != "campaign-grid" and u[0]["alloc_mb"] != u[1]["alloc_mb"]:
        bad.append("%s alloc_mb not exact" % w)
    a, b = run(w, seed, seconds, 1), run(w, seed, seconds, 1)
    print("    " + json.dumps(a), flush=True)
    for name in EXACT_PER_LAYER:
        if a[name] != b[name]:
            bad.append("%s %s not exact: %r vs %r" % (w, name, a[name], b[name]))
    print("  %s per-layer counts repeat exactly: %s"
          % (w, all(a[n] == b[n] for n in EXACT_PER_LAYER)))
    total = sum(a[n] for n in SELF_TIMES)
    if abs(total - a["trace.run_s"]) > 1e-6 * a["trace.run_s"]:
        bad.append("%s self times add up to %r, trace.run_s %r"
                   % (w, total, a["trace.run_s"]))
    print("  %s traced run %.3f s, tracing overhead %+.3f s, gradecast vote"
          " rounds %.1f%%; self-time shares: %s"
          % (w, a["trace.run_s"], a["trace.overhead_s"],
             100 * a["gradecast.vote_s"] / a["trace.run_s"],
             ", ".join("%s %.1f%%" % (n, 100 * a[n] / a["trace.run_s"])
                       for n in SELF_TIMES if a[n] > 0)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--exact", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bad = []
    for w in (w["name"] for w in spec["workloads"]):
        if args.runs > 0:
            check_spreads(w, spec, args.runs, seconds, bad)
        if args.exact:
            check_exact(w, 1, seconds, bad)
    for b in bad:
        print("FAILED: " + b)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
