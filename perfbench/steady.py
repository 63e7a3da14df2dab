#!/usr/bin/env python3
"""Steadiness tooling for the clio benchmark.

Run workloads N times each (one seed per run) and print, for every
metric, the median, the quartiles and the quartile spread as a share of
the median, next to the metric's bound from BENCHMARK.json:

    python3 perfbench/steady.py --workload bulk-eval --runs 10
    python3 perfbench/steady.py --workload refine --runs 10 --sets 2
    python3 perfbench/steady.py --runs 1 --show    # every workload once, full reports
    python3 perfbench/steady.py --scaling          # timed work grows with op count

Without `--workload` every workload in BENCHMARK.json runs. Runs are
untraced, use seeds 1..N and last `run_seconds` of timed work. `--show`
prints each run's report (provenance, every metric with its unit and
sample count) before the summary.

`--sets 2` repeats the whole set with the same seeds and reports how far
the second set's medians moved from the first (the two-set agreement a
regression check relies on). `--scaling` instead runs each workload for a
fixed count of timed units (0.6-1.2 s of work) and for twice that
count and checks that the timed work (at the reference speed) doubles,
i.e. the measured work is not optimized away.

Runs use the command in BENCHMARK.json from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED0 = 1
# Timed units (ops; refine's 19-request passes): 0.6-1.2 s of work.
SCALING_UNITS = {"refine": 300, "bulk-eval": 30, "cycle-edit": 10}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(cmd, workload, seed, seconds, units=None, show=False):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    if units is not None:
        argv += ["--units", str(units)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        sys.exit(f"run failed ({out.returncode}): {' '.join(argv)}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    if show:
        print("\n".join(lines[:-1]), flush=True)
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"incorrect output: {' '.join(argv)}\n{out.stdout}")
    return result, lines


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def one_set(cmd, args, workload, label):
    values = {}
    for i in range(args.runs):
        seed = SEED0 + i
        result, _ = run_once(cmd, workload, seed, args.seconds, show=args.show)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        shown = " ".join(f"{name}={m['value']:.6g}"
                         for name, m in result["metrics"].items())
        print(f"  {label} run {i + 1}/{args.runs} seed={seed} "
              f"attempted={result['attempted']} {shown}", flush=True)
    return values


def report(values, bounds):
    print(f"{'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  verdict")
    ok = True
    for name, vals in values.items():
        med, q1, q3, sp = spread(vals)
        bound = bounds.get(name)
        if bound is None:
            verdict = "(per-layer, no bound)"
        elif sp <= bound / 3:
            verdict = "steady"
        elif sp <= bound:
            verdict = "within bound, above a third of it"
        else:
            verdict = "TOO NOISY"
            ok = False
        b = f"{bound:.2f}" if bound is not None else "-"
        print(f"{name:<36} {med:>14.6f} {q1:>14.6f} {q3:>14.6f} "
              f"{sp:>8.2%} {b:>6}  {verdict}")
    return ok


def scaling(cmd, args, workload):
    n = SCALING_UNITS[workload]
    busy = []
    for units in (n, 2 * n):
        # timed work at the reference speed, so host phases cancel out
        r, _ = run_once(cmd, workload, SEED0, args.seconds, units)
        busy.append(r["attempted"] / r["metrics"]["ops_per_s"]["value"])
        print(f"  {workload}: units={units} ops={r['attempted']} "
              f"timed={busy[-1]:.3f} s at reference speed")
    ratio = busy[1] / busy[0]
    good = 1.6 <= ratio <= 2.5
    print(f"{workload}: timed work for 2x units / 1x units = {ratio:.3f} "
          f"({'grows with op count' if good else 'DOES NOT SCALE'})")
    return good


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", nargs="+",
                   help="workloads to run (default: all in BENCHMARK.json)")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1, choices=(1, 2))
    p.add_argument("--show", action="store_true", help="print every run's report")
    p.add_argument("--scaling", action="store_true")
    args = p.parse_args()

    spec = load_spec()
    cmd = spec["command"]
    args.seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    if args.scaling:
        sys.exit(0 if all([scaling(cmd, args, w) for w in workloads]) else 1)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    ok = True
    for workload in workloads:
        sets = [one_set(cmd, args, workload, f"{workload} set {k + 1}")
                for k in range(args.sets)]
        for k, values in enumerate(sets):
            print(f"\n{workload}, set {k + 1}: {args.runs} runs of "
                  f"{args.seconds} s, seeds {SEED0}..{SEED0 + args.runs - 1}")
            if args.runs >= 2:
                ok &= report(values, bounds)
        if args.sets == 2:
            print("\nsecond set vs first (median change; worse-direction limit = bound)")
            for name, first in sets[0].items():
                a, b = statistics.median(first), statistics.median(sets[1][name])
                change = (b - a) / a if a else 0.0
                worse = change if better.get(name) == "lower" else -change
                bound = bounds.get(name)
                verdict = "-" if bound is None else ("agree" if worse <= bound else "DISAGREE")
                ok &= verdict != "DISAGREE"
                print(f"  {name:<36} {a:>14.6f} -> {b:>14.6f} ({change:+.2%})  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
