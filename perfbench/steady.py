#!/usr/bin/env python3
"""Steadiness report and sensitivity self-check for the benchmark.

Runs the benchmark command from BENCHMARK.json (from the repository root)
several times per workload, one process per run, and reports for every
metric its median, quartiles and spread: the distance between the first
and third quartile as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them. The spread of each
end-to-end metric is compared with its bound.

    python3 perfbench/steady.py --runs 10                      # seeds 1..10
    python3 perfbench/steady.py --runs 10 --same-seed 0        # default seed
    python3 perfbench/steady.py --workloads plan-400 --runs 5 --trace 1
    python3 perfbench/steady.py --regress naive --runs 5       # check A
    python3 perfbench/steady.py --regress recording --workloads plan-400

With ``--regress`` every run is paired with a run of the regressed
benchmark, alternating which goes first, and the report gives each
metric's median change and whether it moves beyond the bound. With
``--trace 1`` it also checks that the deterministic counts of the traced
runs repeat exactly for a repeated seed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(cmd, workload, seed, seconds, trace, regress=None):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    if regress:
        args += ["--regress", regress]
    t0 = time.monotonic()
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    if p.returncode != 0:
        sys.exit(f"run failed ({p.returncode}): {' '.join(args)}\n{p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    counts = [l for l in lines if l.startswith("op_stats ")
              or ("." in l.split(" ")[0] and l.split()[-1].isdigit())]
    return result, counts, wall


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def steadiness(bench, cmd, workloads, runs, seeds, seconds, trace):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    worst = {}
    for w in workloads:
        results, counts_by_seed, walls = [], {}, []
        for seed in seeds[:runs]:
            r, counts, wall = run_once(cmd, w, seed, seconds, trace)
            results.append(r)
            walls.append(wall)
            if not r["correct"] or r["failed"]:
                print(f"  {w} seed {seed}: correct={r['correct']} failed={r['failed']}")
            if trace:
                prev = counts_by_seed.setdefault(seed, counts)
                if prev != counts:
                    print(f"  {w} seed {seed}: deterministic counts differ between runs")
        print(f"\n## {w}: {len(results)} runs, seeds {seeds[:runs]}, "
              f"{sum(walls):.0f} s wall, attempted {[r['attempted'] for r in results]}")
        print(f"{'metric':<26} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3, sp = spread(vals)
            b = bounds.get(name, {}).get("bound")
            flag = ""
            if b is not None:
                flag = "ok" if sp < b / 3 else ("WIDE" if sp < b else "FAIL")
                worst[(w, name)] = sp / b
            bs = f"{b:>6}" if b is not None else ""
            print(f"{name:<26} {q1:>12.5g} {med:>12.5g} {q3:>12.5g} {100 * sp:>7.2f}% {bs} {flag}")
    return worst


def sensitivity(bench, cmd, workloads, runs, seeds, seconds, regress):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    for w in workloads:
        base, reg = [], []
        for i, seed in enumerate(seeds[:runs]):
            order = [None, regress] if i % 2 == 0 else [regress, None]
            for kind in order:
                r, _, _ = run_once(cmd, w, seed, seconds, 0, kind)
                (reg if kind else base).append(r)
        print(f"\n## {w}: --regress {regress} vs baseline, {len(base)} pairs")
        print(f"{'metric':<14} {'base median':>12} {'regressed':>12} {'change':>8} {'bound':>6}  verdict")
        for name, m in bounds.items():
            b = statistics.median(r["metrics"][name]["value"] for r in base)
            g = statistics.median(r["metrics"][name]["value"] for r in reg)
            change = (g - b) / b if b else 0.0
            worse = -change if m["better"] == "higher" else change
            verdict = "MOVED beyond bound" if worse > m["bound"] else "within bound"
            print(f"{name:<14} {b:>12.5g} {g:>12.5g} {100 * change:>+7.1f}% {m['bound']:>6}  {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", type=int, default=None, help="use this seed for every run")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--regress", choices=["naive", "recording"], default=None)
    a = ap.parse_args()

    bench = load_bench()
    cmd = bench["command"]
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    if a.same_seed is not None:
        seeds = [a.same_seed] * a.runs
    else:
        seeds = list(range(a.first_seed, a.first_seed + a.runs))
    if a.regress:
        sensitivity(bench, cmd, workloads, a.runs, seeds, seconds, a.regress)
    else:
        worst = steadiness(bench, cmd, workloads, a.runs, seeds, seconds, a.trace)
        if worst:
            (w, name), r = max(worst.items(), key=lambda kv: kv[1])
            print(f"\nwidest spread: {w} {name} at {100 * r:.0f}% of its bound")


if __name__ == "__main__":
    main()
